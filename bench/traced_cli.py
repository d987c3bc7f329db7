"""Run one littlewood CLI invocation with span tracing installed.

    PYTHONPATH=src python3 bench/traced_cli.py <littlewood arguments>

Behaves like `python -m littlewood <arguments>` (same stdout and exit code)
and adds one line to stderr, `TRACE_PREFIX` followed by the JSON totals that
`tracer.layer_metrics` turns into per-layer metrics.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

import tracer

TRACE_PREFIX = "littlewood-bench-trace "


def main(argv: list[str]) -> int:
    started = perf_counter()
    import littlewood.cli
    import_s = perf_counter() - started

    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        return littlewood.cli.main(argv)
    finally:
        from littlewood import special_numbers

        raw = spans.raw()
        raw["counters"]["cli.import_s"] = import_s
        # the rational-argument Eulerian cache sits inside the wrapped layer
        cached = getattr(special_numbers, "_eulerian_general", None)
        if hasattr(cached, "cache_info"):
            info = cached.cache_info()
            raw["counters"]["special_numbers.eulerian_hits"] = info.hits
            raw["counters"]["special_numbers.eulerian_misses"] = info.misses
        raw["missing"] = spans.missing
        sys.stdout.flush()
        print(TRACE_PREFIX + json.dumps(raw), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
