"""Seeded job lists for the benchmark workloads.

A job is the argument list of one `python -m littlewood` invocation.  The
seed picks inputs inside bands chosen so that the amount of work stays put:
for the norm jobs every prime in a band gives the same padded transform
length and the same number of CRT primes, and each band is narrow, so the
O(p) parts of a job barely move either.  q, k and the number of jobs are
fixed per workload.
"""
from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("norms", "exact-limits")

# (lo, hi) prime bands.  Fekete q=2 with p in [31000, 32700] squares a
# length-p vector into 2p-1 <= 65399 coefficients: one 65536-point transform
# under one 30-bit prime.  Fekete q=3 with p in [10400, 10900] needs 32768
# points for both products and still one prime (|coefficient| < p^2).
# Shifted q=2 with p in [9900, 10300] needs 32768 points and one prime.
_FEKETE_Q2_BAND = (31000, 32700)
_FEKETE_Q3_BAND = (10400, 10900)
_SHIFTED_Q2_BAND = (9900, 10300)
# The small shifted sweep takes one prime from each of _SMALL_GROUPS triples
# of consecutive primes, spread evenly over the 171 primes in [101, 1200], so
# every seed gets primes of the same spread of sizes.
_SMALL_BAND = (101, 1200)
_SMALL_GROUPS = 8

# Shift ratios with small denominators for the shifted jobs and for the
# q=2 evaluation; the limit function has period 1/2 and is even.
_RATIOS = tuple(
    Fraction(a, b) for b in (3, 4, 5, 6, 8, 10, 12) for a in range(1, b) if a * 2 != b
)
# phi_8 is only pinned at 1/4; by its period 1/2 these points share that
# value.  Evaluation points stay positive: argparse reads "-1/4" as an option.
_PHI8_POINTS = tuple(Fraction(1, 4) + Fraction(j, 2) for j in range(4))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_in(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if _is_prime(n)]


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def jobs(workload: str, seed: int) -> list[list[str]]:
    """The job list of a workload for a seed; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "norms":
        band = primes_in(*_SMALL_BAND)
        starts = [i * (len(band) - 3) // (_SMALL_GROUPS - 1) for i in range(_SMALL_GROUPS)]
        shifted = ["empirical", "--family", "shifted", "--q", "4",
                   "--shift", str(rng.randint(1, 3))]
        for i in starts:
            shifted += ["--p", str(rng.choice(band[i:i + 3]))]
        fekete = ["empirical", "--family", "fekete", "--q", "2"]
        for p in primes_in(3, 127):
            fekete += ["--p", str(p)]
        return [
            ["empirical", "--family", "fekete", "--q", "2",
             "--p", str(rng.choice(primes_in(*_FEKETE_Q2_BAND)))],
            ["empirical", "--family", "fekete", "--q", "3",
             "--p", str(rng.choice(primes_in(*_FEKETE_Q3_BAND)))],
            ["empirical", "--family", "shifted", "--q", "2",
             "--p", str(rng.choice(primes_in(*_SHIFTED_Q2_BAND))),
             "--shift-ratio", _rat(rng.choice(_RATIOS))],
            ["empirical", "--family", "galois", "--q", "2", "--k", "16"],
            ["empirical", "--family", "galois", "--q", "1", "--k", "20"],
            shifted,
            fekete,
        ]
    if workload == "exact-limits":
        return [
            ["limits", "--family", "fekete", "--qmax", "8"],
            ["limits", "--family", "galois", "--qmax", "8"],
            ["triangle", "--family", "fekete", "--rows", "8"],
            ["triangle", "--family", "galois", "--rows", "8"],
            ["phi", "--q", "2", "--eval", _rat(rng.choice(_RATIOS) + rng.randint(0, 2))],
            ["phi", "--q", "8", "--eval", _rat(rng.choice(_PHI8_POINTS))],
            ["phi", "--q", "4", "--pieces"],
            ["phi", "--q", "3", "--min"],
            ["phi", "--q", "6", "--min"],
            ["limits", "--family", "fekete", "--qmax", "48"],
            ["limits", "--family", "galois", "--qmax", "48"],
        ]
    raise ValueError(f"unknown workload {workload!r}")
