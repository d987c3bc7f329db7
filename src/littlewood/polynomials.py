"""Fekete and shifted Fekete polynomials and exact norms on the unit circle.

A coefficient vector is a tuple of integers, constant term first.  The
public builders return tuples; each has a private twin returning the same
coefficients as signed bytes (a memoryview of format "b"), which is what
`convergence_table` hands the norm engine.  For a
real-coefficient polynomial f and even exponent 2q, the 2q-th power of the
L^2q norm equals the sum of squared coefficients of f^q (orthonormality of
the monomials), so it is an exact integer.  `littlewood.intconv` computes it
by Kronecker substitution with the C `decimal` module.  A trigonometric
quadrature with enough sample points serves as an independent floating-point
oracle; it is the one function here that needs numpy, and imports it itself.

`convergence_table` compares exact norms of actual polynomials with their
limits.  Its whole admission rule is `convergence_error`: the q range, the
sizes (primes up to MAX_PRIME, Galois exponents 2..MAX_K), the norm engine's
capacity for each size and the shift rule.  The table refuses with its
reason before any work starts, and the `empirical` command prints the same
reason as its error record.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import NamedTuple

# `galois` stays importable from here, beside the other public builders
from littlewood.gf2k import MAX_K, _galois_signs, galois  # noqa: F401
from littlewood.intconv import capacity_error, power_square_sum
from littlewood.limits import (
    HALF,
    MAX_Q,
    fekete_limit_recursive,
    galois_limit_recursive,
    shifted_fekete_limit,
    shifted_limit_error,
)

# Largest prime size of the fekete and shifted families; it matches the
# length 2^MAX_K - 1 of the largest Galois polynomial.
MAX_PRIME = 1 << MAX_K

# Miller-Rabin with the prime witnesses up to 41 is deterministic below
# 3317044064679887385961981, the least strong pseudoprime to all of them.
# The witnesses up to 37 alone are fooled by 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_980
# a byte of the square marks (1 for a nonzero square mod p, else 0) -> the
# Legendre symbol as a signed byte (1 or -1 as 255)
_LEGENDRE = bytes.maketrans(b"\x00\x01", b"\xff\x01")


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    if p > _MR_LIMIT:
        raise ValueError(f"{p} exceeds the deterministic primality range")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % p == 0:
            continue
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a / p) via Euler's criterion."""
    if not is_odd_prime(p):
        raise ValueError(f"primality check failed: {p} is not an odd prime")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def fekete(p: int) -> tuple[int, ...]:
    """Fekete polynomial of degree p-1: coefficient j is the Legendre symbol (j/p)."""
    return tuple(_fekete_signs(p))


def _fekete_signs(p: int) -> memoryview:
    """The coefficients of `fekete(p)` as signed bytes."""
    if not is_odd_prime(p):
        raise ValueError(f"primality check failed: {p} is not an odd prime")
    squares = bytearray(p)
    for j in range(1, (p + 1) // 2):  # j and p - j have the same square
        squares[j * j % p] = 1
    signs = squares.translate(_LEGENDRE)
    signs[0] = 0
    return memoryview(signs).cast("b")


def shifted_fekete(p: int, r: int) -> tuple[int, ...]:
    """Cyclic shift of the Fekete coefficients: coefficient j is ((j+r)/p).

    Exactly one of the p coefficients is zero (at j with j + r = 0 mod p);
    it is kept as 0 to match the definition.
    """
    return tuple(_shifted_signs(p, r))


def _shifted_signs(p: int, r: int) -> memoryview:
    """The coefficients of `shifted_fekete(p, r)` as signed bytes."""
    base = _fekete_signs(p)
    r %= p
    signs = bytearray(base[r:])
    signs += base[:r]
    return memoryview(signs).cast("b")


def norm_2q_exact(f, q: int) -> int:
    """Exact integer value of the 2q-th power of the L^2q norm of f."""
    return power_square_sum(f, q)


def norm_2q_quadrature(f, q: int) -> float:
    """Floating-point oracle for `norm_2q_exact`.

    |f|^2q on the unit circle is a trigonometric polynomial of degree
    q*deg(f), so averaging over M = 2*q*deg(f) + 1 equally spaced points is
    mathematically exact; accuracy is limited only by double precision.
    """
    import numpy as np

    if q < 1:
        raise ValueError("q must be >= 1")
    coeffs = np.asarray(list(f), dtype=float)
    deg = len(coeffs) - 1
    M = 2 * q * deg + 1
    values = np.abs(np.fft.fft(coeffs, M)) ** 2
    return float(np.mean(values**q))


class ConvergenceRow(NamedTuple):
    family: str
    q: int
    n: int
    exact_norm: int
    ratio: Fraction
    limit: Fraction
    abs_err: float
    rel_err: float


def convergence_error(
    family: str,
    q: int,
    sizes,
    shift: int | None = None,
    shift_ratio=None,
) -> str | None:
    """Why `convergence_table` refuses these arguments, or None if it admits them."""
    sizes = list(sizes)
    if family not in ("fekete", "shifted", "galois"):
        return f"unknown family {family!r}"
    if q < 1:
        return "q must be >= 1"
    if family != "shifted" and q > MAX_Q:
        return f"family {family} supports q <= {MAX_Q}"
    shapes = []  # (length, sum of |coefficients|) per size
    for s in sizes:
        if family == "galois":
            if not 2 <= s <= MAX_K:
                return f"field exponent {s} out of range 2..{MAX_K}"
            shapes.append(((1 << s) - 1, (1 << s) - 1))
        elif s > MAX_PRIME:
            return f"prime size {s} exceeds the limit {MAX_PRIME}"
        elif not is_odd_prime(s):
            return f"primality check failed: {s} is not an odd prime"
        else:
            shapes.append((s, s - 1))
    for n, abs_sum in shapes:
        reason = capacity_error(n, q, abs_sum, 1)
        if reason:
            return reason
    if family != "shifted":
        if shift is not None or shift_ratio is not None:
            return "--shift/--shift-ratio apply to the shifted family only"
        return None
    if shift is None and shift_ratio is None:
        return "shifted family needs --shift or --shift-ratio"
    if shift is not None and shift_ratio is not None:
        return "shifted family takes one of --shift and --shift-ratio, not both"
    ratios = [shift_ratio] if shift is None else [Fraction(shift, p) for p in sizes]
    for ratio in ratios:
        reason = shifted_limit_error(q, ratio)
        if reason:
            return reason
    return None


def convergence_table(
    family: str,
    q: int,
    sizes,
    shift: int | None = None,
    shift_ratio=None,
) -> list[ConvergenceRow]:
    """Exact norm ratios against the theoretical limit, one row per size.

    `sizes` are odd primes p <= MAX_PRIME for the fekete/shifted families and
    exponents k in 2..MAX_K for galois.  The shifted family takes either a fixed
    shift r or a target ratio R (then r = round(R * p), so r/p -> R).  The
    arguments are checked by `convergence_error` first, and ValueError with
    its reason is raised before any polynomial is built.  Rows are computed
    and returned in input order.
    """
    sizes = list(sizes)
    reason = convergence_error(family, q, sizes, shift, shift_ratio)
    if reason:
        raise ValueError(reason)
    if family == "fekete":
        limit = fekete_limit_recursive(q)
    elif family == "galois":
        limit = galois_limit_recursive(q)
    elif shift_ratio is not None:
        limit = shifted_fekete_limit(q, shift_ratio)
    rows = []
    for s in sizes:
        # the polynomial is not bound to a name, so it is freed before the next
        if family == "fekete":
            n, norm = s, norm_2q_exact(_fekete_signs(s), q)
        elif family == "galois":
            n, norm = (1 << s) - 1, norm_2q_exact(_galois_signs(s), q)
        else:
            if shift_ratio is None:
                r, limit = shift, shifted_fekete_limit(q, Fraction(shift, s))
            else:
                r = floor(Fraction(shift_ratio) * s + HALF)  # round half up
            n, norm = s, norm_2q_exact(_shifted_signs(s, r), q)
        ratio = Fraction(norm, n**q)
        err = ratio - limit
        rows.append(ConvergenceRow(
            family, q, n, norm, ratio, limit, abs(float(err)), abs(float(err / limit))
        ))
    return rows
