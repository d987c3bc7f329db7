"""Cost of each rule's worst admitted input, each in a fresh process.

`PYTHONPATH=src python tests/admitted_costs.py` runs every argv of `INPUTS`
as `python -m littlewood ...`, with its output sent to /dev/null.  It times
the child with `time.perf_counter` from spawn to exit, reads its peak
resident memory from `os.wait4`, and prints one JSON line per input.  It
exits 1 if any input exits non-zero or exceeds the one stated bound:
`MAX_SECONDS` of wall time and `MAX_RSS_MB` of peak RSS, on a 2-vCPU
machine.  Standard library only; pytest does not collect it.
"""
import json
import os
import sys
import time
from math import factorial

from csv_digests import FIRST_REFUSED
from littlewood import _digit_limit
from littlewood.gf2k import MAX_K
from littlewood.limits import PHI_PIECES_QMAX

MAX_SECONDS = 60
MAX_RSS_MB = 512


def largest_admitted_eps_exponent(q: int) -> int:
    """The largest e at which `phi_min`'s digit rule admits eps = 1/2^e at order q:
    it admits while 2^(2e + 32) (2q)!/q! < 10^L, L = `littlewood._digit_limit()`."""
    bits = ((10**_digit_limit() - 1) // (factorial(2 * q) // factorial(q))).bit_length() - 1
    return (bits - 32) // 2


INPUTS = [
    # the shift rule: the largest admitted denominator at SHIFTED_QMAX = 16
    ("phi", "--q", "16", "--eval", f"1/{FIRST_REFUSED[16] - 1}"),
    # the norm capacity: the slowest and the largest admitted powers measured
    ("empirical", "--family", "fekete", "--q", "15", "--p", "95153"),
    ("empirical", "--family", "fekete", "--q", "3", "--p", "2380951"),
    # the order rules: MAX_Q = 128 and PHI_PIECES_QMAX = 6
    ("limits", "--family", "fekete", "--qmax", "128"),
    ("triangle", "--family", "galois", "--rows", "128"),
    ("phi", "--q", "6", "--pieces"),
    ("phi", "--q", "6", "--min"),
    # the digit rule of phi --min: its smallest admitted eps at PHI_PIECES_QMAX
    ("phi", "--q", str(PHI_PIECES_QMAX), "--min",
     "--eps", f"1/{2 ** largest_admitted_eps_exponent(PHI_PIECES_QMAX)}"),
    # the field rule at q = 1, where every sign is built only to be counted
    ("empirical", "--family", "galois", "--q", "1", "--k", str(MAX_K)),
]


def run(argv) -> dict:
    """Exit code, wall seconds and peak RSS in MB of `python -m littlewood *argv`."""
    to_null = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "littlewood", *argv],
                         os.environ, file_actions=to_null)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    # ru_maxrss is in kilobytes on Linux
    return {"argv": list(argv), "exit": os.waitstatus_to_exitcode(status),
            "wall_s": round(wall, 2), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def main() -> int:
    failures = 0
    for argv in INPUTS:
        cost = run(argv)
        cost["ok"] = (cost["exit"] == 0 and cost["wall_s"] <= MAX_SECONDS
                      and cost["peak_rss_mb"] <= MAX_RSS_MB)
        print(json.dumps(cost), flush=True)
        failures += not cost["ok"]
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
