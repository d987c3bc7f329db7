"""Fekete and shifted Fekete polynomials and exact norms on the unit circle.

Their size rule, `_check_prime`, shared by `legendre`: p is an int in
3..MAX_PRIME (`littlewood._check_int`), then a prime by the one trial division,
`special_numbers._prime_factors`.  A vector of coefficients is a tuple of
integers, constant term first, as the public builders return it.  One private
builder per character gives the same coefficients as signed bytes (a
memoryview of format "b") for the norm engine: `_fekete_signs(p, r)`, the
Legendre symbol shifted by r (r = 0 is Fekete), and `gf2k._galois_signs(k,
beta)`, the additive characters.
For a real-coefficient polynomial f and even exponent 2q, the 2q-th power of
the L^2q norm equals the sum of squared coefficients of f^q (orthonormality
of the monomials), so it is an exact integer.  `norm_2q_exact`, imported
from `littlewood.intconv`, computes it by Kronecker substitution with the C
`decimal` module.  A trigonometric quadrature with enough sample points
serves as an independent floating-point oracle; it is the one function here
that needs numpy, and imports it itself.

`convergence_table` compares exact norms of actual polynomials with their
limits.  Its whole admission rule is `check_convergence`: the q range, the
sizes (primes up to MAX_PRIME, Galois exponents by `gf2k._check_exponent`),
the norm engine's `power_layout` for each size and the shift rule
`check_shift`.  Each raises ValueError before any work starts, and the
`empirical` command prints it as its error record.  The family decides each
size's length and zero count: a Galois exponent k gives 2^k - 1 signs, none
zero, and a prime p gives p signs, one zero.  What the rule admits it
returns as the run: per size, the sign builder and its arguments and the
limit's shift ratio, so `convergence_table` only runs it.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import NamedTuple

from littlewood import _check_int, _check_rational
from littlewood.gf2k import MAX_K, _check_exponent, _galois_signs
from littlewood.intconv import norm_2q_exact, power_layout
from littlewood.limits import (
    HALF,
    SHIFTED_QMAX,
    _check_order,
    check_shift,
    fekete_limit_recursive,
    galois_limit_recursive,
    shifted_fekete_limit,
)
from littlewood.special_numbers import _prime_factors

# Largest prime size of the fekete and shifted families; it matches the
# length 2^MAX_K - 1 of the largest Galois polynomial.
MAX_PRIME = 1 << MAX_K

# a byte of the square marks (1 for a nonzero square mod p, else 0) -> the
# Legendre symbol as a signed byte (1 or -1 as 255)
_LEGENDRE = bytes.maketrans(b"\x00\x01", b"\xff\x01")


def is_odd_prime(p: int) -> bool:
    """Whether the int p is an odd prime, by trial division; ValueError above MAX_PRIME
    and for anything but an int."""
    if isinstance(p, int) and p < 3:
        return False
    _check_int("p", p, 3, MAX_PRIME)
    return _prime_factors(p) == [p]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a / p) via Euler's criterion."""
    _check_int("a", a)
    _check_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def fekete(p: int) -> tuple[int, ...]:
    """Fekete polynomial of degree p-1: coefficient j is the Legendre symbol (j/p)."""
    return tuple(_fekete_signs(p))


def shifted_fekete(p: int, r: int) -> tuple[int, ...]:
    """Cyclic shift of the Fekete coefficients: coefficient j is ((j+r)/p).

    Exactly one of the p coefficients is zero (at j with j + r = 0 mod p);
    it is kept as 0 to match the definition.
    """
    return tuple(_fekete_signs(p, r))


def _check_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime of at most MAX_PRIME."""
    _check_int("p", p, 3, MAX_PRIME)
    if not is_odd_prime(p):
        raise ValueError(f"primality check failed: {p} is not an odd prime")


def _fekete_signs(p: int, r: int = 0) -> memoryview:
    """`shifted_fekete(p, r)`, r = 0 being `fekete(p)`, as signed bytes;
    ValueError unless r is an int and p an odd prime <= MAX_PRIME, before any allocation."""
    _check_int("r", r)
    _check_prime(p)
    squares = bytearray(p)
    for j in range(1, (p + 1) // 2):  # j and p - j have the same square
        squares[j * j % p] = 1
    signs = squares.translate(_LEGENDRE)
    signs[0] = 0
    r %= p  # r = 0 rotates by nothing
    return memoryview(signs[r:] + signs[:r]).cast("b")


def norm_2q_quadrature(f, q: int) -> float:
    """Floating-point oracle for `norm_2q_exact`.

    |f|^2q on the unit circle is a trigonometric polynomial of degree
    q*deg(f), so averaging over M = 2*q*deg(f) + 1 equally spaced points is
    mathematically exact; accuracy is limited only by double precision.
    """
    _check_int("q", q, 1)
    import numpy as np

    coeffs = np.asarray(list(f), dtype=float)
    # the zero polynomial (deg -1) takes one point, where it is 0
    M = 2 * q * max(len(coeffs) - 1, 0) + 1
    values = np.abs(np.fft.fft(coeffs, M)) ** 2
    return float(np.mean(values**q))


class ConvergenceRow(NamedTuple):
    """One size's result: n, the exact norm, norm / n^q, its limit and both errors."""

    n: int
    exact_norm: int
    ratio: Fraction
    limit: Fraction
    abs_err: float
    rel_err: float


def check_convergence(family: str, q: int, sizes, shift: int | None = None,
                      shift_ratio=None) -> list[tuple]:
    """Raise ValueError unless `convergence_table` admits these arguments, and
    return the run it admits: one entry (n, build, args, R) per size, in input
    order.  build(*args) is the size's vector of n signs, `_fekete_signs(p, r)`
    or `_galois_signs(k)` as the family says, and R is the shift ratio of its
    limit, None for the family's one limit."""
    sizes = list(sizes)
    if family == "shifted":
        _check_int("q", q, 1, SHIFTED_QMAX)
    else:
        _check_order(family, "q", q)
    if shift is not None:
        _check_int("shift", shift)
    if shift_ratio is not None:
        shift_ratio = _check_rational("shift_ratio", shift_ratio)
    galois = family == "galois"
    for s in sizes:
        (_check_exponent if galois else _check_prime)(s)
    for s in sizes:
        # 2^k - 1 signs, none zero, for Galois; p signs, one zero, for Fekete
        n = (1 << s) - 1 if galois else s
        power_layout(n, q, n if galois else n - 1)
    if family != "shifted" and (shift is not None or shift_ratio is not None):
        raise ValueError("--shift/--shift-ratio apply to the shifted family only")
    if family == "shifted" and shift is None and shift_ratio is None:
        raise ValueError("shifted family needs --shift or --shift-ratio")
    if shift is not None and shift_ratio is not None:
        raise ValueError("shifted family takes one of --shift and --shift-ratio, not both")
    # each size's shift ratio; None, for the family's one limit, outside the shifted family
    ratios = [shift_ratio if shift is None else Fraction(shift, p) for p in sizes]
    for R in dict.fromkeys(ratios):
        if R is not None:
            check_shift(q, R)
    if galois:
        return [((1 << k) - 1, _galois_signs, (k,), None) for k in sizes]
    # r = R p rounded half up: the shift itself when R = shift/p, and r/p -> R
    return [(p, _fekete_signs, (p, 0 if R is None else floor(R * p + HALF)), R)
            for p, R in zip(sizes, ratios)]


def convergence_table(family: str, q: int, sizes, shift: int | None = None,
                      shift_ratio=None) -> list[ConvergenceRow]:
    """Exact norm ratios against the theoretical limit, one row per size.

    `sizes` are odd primes p <= MAX_PRIME for the fekete/shifted families and
    exponents k in 2..MAX_K for galois.  The shifted family takes either a fixed
    shift r or a target ratio R (then r = round(R * p), so r/p -> R).  The run
    is `check_convergence`'s, so ValueError is raised before any polynomial is
    built.  Each distinct limit is evaluated once, and rows are computed and
    returned in input order.
    """
    run = check_convergence(family, q, sizes, shift, shift_ratio)
    recursion = {"fekete": fekete_limit_recursive, "galois": galois_limit_recursive}.get(family)
    limits = {R: recursion(q) if R is None else shifted_fekete_limit(q, R)
              for R in dict.fromkeys(R for *_, R in run)}
    rows = []
    for n, build, args, R in run:
        # the polynomial is not bound to a name, so it is freed before the next
        norm = norm_2q_exact(build(*args), q)
        ratio, limit = Fraction(norm, n**q), limits[R]
        err = ratio - limit
        rows.append(ConvergenceRow(n, norm, ratio, limit,
                                   abs(float(err)), abs(float(err / limit))))
    return rows
