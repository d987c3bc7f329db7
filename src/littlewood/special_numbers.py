"""Exact special numbers and counting primitives.

Signed tangent numbers T(k) and Carlitz numbers C(k), defined only here, by
one recurrence with a binomial per family; Eulerian numbers at rational
arguments and Eulerian polynomials; restricted-composition counts; and
`_prime_factors`, the one trial division in the package.  All are exact and
pure, and nothing is kept between calls.  The Eulerian polynomials and the
shifted evaluator's scaled Eulerian values come from one integer recurrence,
`_spline_rows`; the alternating binomial sum is its oracle.
`littlewood._check_int` checks each order.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import comb, floor

from littlewood import _check_int, _check_rational


def _tangent_binomial(k: int, j: int) -> int:
    return comb(2 * k - 1, 2 * j - 1)


def _carlitz_binomial(k: int, j: int) -> int:
    return comb(k, j) * comb(k - 1, j - 1)


def _binomial_recurrence(kmax: int, b) -> tuple[int, ...]:
    """x(1..kmax) by x(k) = 1 - sum_{j<k} b(k, j) x(j), the rule of T(k) and C(k)."""
    _check_int("kmax", kmax, 1)
    xs: list[int] = []
    for k in range(1, kmax + 1):
        xs.append(1 - sum(b(k, j) * x for j, x in enumerate(xs, 1)))
    return tuple(xs)


def tangent_numbers(kmax: int) -> tuple[int, ...]:
    """Signed tangent numbers T(1..kmax), by T(k) = 1 - sum_{j<k} C(2k-1, 2j-1) T(j).

    Defined by log cosh(z) = sum_{k>=1} T(k) z^{2k} / (2k)!.  The unsigned
    values |T(k)| = (-1)^{k+1} T(k) are the classical tangent (zag) numbers
    1, 2, 16, 272, 7936, ...

    >>> tangent_numbers(4)
    (1, -2, 16, -272)
    """
    return _binomial_recurrence(kmax, _tangent_binomial)


def carlitz_numbers(kmax: int) -> tuple[int, ...]:
    """Signed Carlitz numbers C(1..kmax), by C(k) = 1 - sum_{j<k} C(k, j) C(k-1, j-1) C(j).

    Defined by log J_0(2 sqrt(z)) = sum_{k>=1} (-1)^k C(k) z^k / (k!)^2 with
    J_0 the zeroth Bessel function of the first kind.  The unsigned values
    |C(k)| = (-1)^{k+1} C(k) are 1, 1, 4, 33, 456, ...

    >>> carlitz_numbers(4)
    (1, -1, 4, -33)
    """
    return _binomial_recurrence(kmax, _carlitz_binomial)


def eulerian_general(n: int, x: Fraction | int) -> Fraction:
    """Eulerian number of order n at a rational argument x.

    Computed as sum_{j=0}^{floor(x+1)} (-1)^j C(n+1, j) (x+1-j)^n, with the
    empty sum equal to 0.  The value vanishes outside x in (-1, n); at
    integer x it is a classical Eulerian number.

    >>> eulerian_general(3, 1)
    Fraction(4, 1)
    >>> eulerian_general(1, Fraction(1, 2))
    Fraction(1, 2)
    """
    _check_int("n", n, 1)
    x = _check_rational("x", x)
    total = Fraction(0)
    # C(n+1, j) vanishes for j > n+1, so the sum may be capped there; below
    # x = -1 the range is empty and the sum is 0.
    for j in range(min(floor(x + 1), n + 1) + 1):
        term = comb(n + 1, j) * (x + 1 - j) ** n
        total += -term if j % 2 else term
    return total


def _spline_rows(ts, d: int):
    """Yield W_1, W_3, W_5, ...: W_n[m K + s] = d^n E(n, ts[s]/d + m - 1), m = 0..n,
    for the K = len(ts) offsets 0 <= t < d, by the integer recurrence W_0 = [1] K,
    W_n[m] = (t + m d) W_(n-1)[m] + ((n+1-m) d - t) W_(n-1)[m-1], keeping only
    the row being extended.  At ts = (0,), d = 1, W_n[m] = E(n, m-1).

    >>> rows = _spline_rows((0,), 1)
    >>> next(rows), next(rows)
    ([0, 1], [0, 1, 4, 1])
    >>> next(_spline_rows((1, 2), 3))  # 3 E(1, x) at x = -2/3, -1/3, 1/3, 2/3
    [1, 2, 2, 1]
    """
    row, pad, ramp = [1] * len(ts), [0] * len(ts), list(ts)
    for n in count(1):
        ramp += [t + n * d for t in ts]
        nd = (n + 1) * d
        row = [a * w + (nd - a) * v for a, w, v in zip(ramp, row + pad, pad + row)]
        if n % 2:
            yield row


def eulerian_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of A_N(x) = sum_a E(2N-1, a-1) x^a.

    A_N has degree 2N-1, zero constant term, and nonnegative integer
    coefficients given by row 2N-1 of the Eulerian-number triangle, the row
    W_(2N-1) of `_spline_rows` at ts = (0,), d = 1.

    >>> eulerian_polynomial(2)
    (0, 1, 4, 1)
    """
    _check_int("N", N, 1)
    return tuple(next(islice(_spline_rows((0,), 1), N - 1, None)))


def composition_count(N: int, n: int, m: int) -> int:
    """Number of tuples (j_1, ..., j_N) in [0, n)^N with j_1 + ... + j_N = m.

    Evaluated by inclusion-exclusion:
    sum_{j=0}^{min(N, m // n)} (-1)^j C(N, j) C(N + m - n*j - 1, N - 1),
    2 (min(N, m // n) + 1) binomials at m >= 0.  The terms past m // n are
    0, as there N + m - n*j - 1 < N - 1, so they are left out; a negative m
    gives the empty sum.

    >>> composition_count(3, 2, 2)
    3
    """
    _check_int("N", N, 1)
    _check_int("n", n, 1)
    _check_int("m", m)
    total = 0
    for j in range(min(N, m // n) + 1):
        term = comb(N, j) * comb(N + m - n * j - 1, N - 1)
        total += -term if j % 2 else term
    return total


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1 in increasing order, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
