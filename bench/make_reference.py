"""Write the reference table of exact Fekete and Galois limits, q <= 48.

    python3 bench/make_reference.py

The table (`reference_limits.json`) holds the program's recursive values at
the commit named in it, so that `check.py` can check every q that the
`limits --qmax 48` jobs print.  Only q <= 10 has an oracle outside the
recursion; before writing, this script compares those entries with the
published values in `check.py` (q <= 8) and with the program's direct
partition-sum routes (q = 9, 10).  For q = 11..48 the table is a regression
oracle: it catches a later change that alters the values, not an error the
recursion already had when the table was made.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
from littlewood import limits  # noqa: E402


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=BENCH, check=True).stdout.strip()
    table = {"commit": commit}
    routes = {
        "fekete": (limits.fekete_limit_recursive, limits.fekete_limit_direct,
                   check.FEKETE_LIMITS),
        "galois": (limits.galois_limit_recursive, limits.galois_limit_direct,
                   check.GALOIS_LIMITS),
    }
    for family, (recursive, direct, published) in routes.items():
        values = [recursive(q) for q in range(1, check.REFERENCE_QMAX + 1)]
        for q, value in enumerate(values, 1):
            expected = published[q - 1] if q <= len(published) else (
                direct(q) if q <= check.DIRECT_QMAX else value)
            if value != expected:
                sys.exit(f"{family} q={q}: recursive {value} != {expected}")
        table[family] = [f"{v.numerator}/{v.denominator}" for v in values]
    check.REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
