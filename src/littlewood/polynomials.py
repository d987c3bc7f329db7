"""Fekete and shifted Fekete polynomials and exact norms on the unit circle.

A coefficient vector is a tuple of integers, constant term first.  For a
real-coefficient polynomial f and even exponent 2q, the 2q-th power of the
L^2q norm equals the sum of squared coefficients of f^q (orthonormality of
the monomials), so it is an exact integer.  `littlewood.intconv` computes it
by Kronecker substitution with the C `decimal` module.  A trigonometric
quadrature with enough sample points serves as an independent floating-point
oracle; it is the one function here that needs numpy, and imports it itself.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from littlewood.gf2k import galois
from littlewood.intconv import power_square_sum
from littlewood.limits import (
    fekete_limit_recursive,
    galois_limit_recursive,
    shifted_fekete_limit,
)

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
    if not is_odd_prime(p):
        raise ValueError(f"primality check failed: {p} is not an odd prime")
    squares = bytearray(p)
    for j in range(1, (p + 1) // 2):  # j and p - j have the same square
        squares[j * j % p] = 1
    signs = squares.translate(_LEGENDRE)
    signs[0] = 0
    return tuple(memoryview(signs).cast("b"))


def shifted_fekete(p: int, r: int) -> tuple[int, ...]:
    """Cyclic shift of the Fekete coefficients: coefficient j is ((j+r)/p).

    Exactly one of the p coefficients is zero (at j with j + r = 0 mod p);
    it is kept as 0 to match the definition.
    """
    base = fekete(p)
    return base[r % p :] + base[: r % p]


def norm_2q_exact(f, q: int) -> int:
    """Exact integer value of the 2q-th power of the L^2q norm of f."""
    if q < 1:
        raise ValueError("q must be >= 1")
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


def convergence_table(
    family: str,
    q: int,
    sizes,
    shift: int | None = None,
    shift_ratio=None,
) -> list[ConvergenceRow]:
    """Exact norm ratios against the theoretical limit, one row per size.

    `sizes` are odd primes for the fekete/shifted families and exponents k
    for galois.  The shifted family takes either a fixed shift r or a target
    ratio R (then r = round(R * p), so r/p -> R).  Rows are computed and
    returned in input order.
    """
    if family == "fekete":
        limit = fekete_limit_recursive(q)

        def row(p: int) -> ConvergenceRow:
            norm = norm_2q_exact(fekete(p), q)
            return _make_row(family, q, p, norm, Fraction(norm, p**q), limit)

    elif family == "shifted":
        if (shift is None) == (shift_ratio is None):
            raise ValueError("shifted family needs exactly one of shift / shift_ratio")
        if shift_ratio is not None:
            ratio = Fraction(shift_ratio)
            limit = shifted_fekete_limit(q, ratio)
        else:
            limit = None  # fixed r, ratio r/p varies with p

        def row(p: int) -> ConvergenceRow:
            if shift_ratio is not None:
                r = _round_half_up(Fraction(shift_ratio) * p)
                lim = limit
            else:
                r = shift
                lim = shifted_fekete_limit(q, Fraction(r, p))
            norm = norm_2q_exact(shifted_fekete(p, r), q)
            return _make_row(family, q, p, norm, Fraction(norm, p**q), lim)

    elif family == "galois":
        limit = galois_limit_recursive(q)

        def row(k: int) -> ConvergenceRow:
            n = (1 << k) - 1
            norm = norm_2q_exact(galois(k), q)
            return _make_row(family, q, n, norm, Fraction(norm, n**q), limit)

    else:
        raise ValueError(f"unknown family {family!r}")

    return [row(s) for s in sizes]


def _round_half_up(x: Fraction) -> int:
    from math import floor

    return floor(x + Fraction(1, 2))


def _make_row(family, q, n, norm, ratio, limit) -> ConvergenceRow:
    err = ratio - limit
    return ConvergenceRow(
        family=family,
        q=q,
        n=n,
        exact_norm=norm,
        ratio=ratio,
        limit=limit,
        abs_err=abs(float(err)),
        rel_err=abs(float(err / limit)),
    )
