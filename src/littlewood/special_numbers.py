"""Exact special numbers and counting primitives.

Signed tangent numbers, signed Carlitz numbers, Eulerian numbers at
rational arguments, Eulerian polynomials, and restricted-composition
counts.  Everything is exact: integers are unbounded and non-integer
values are `fractions.Fraction`.  Eulerian polynomials come from the
integer recurrence E(n, m) = (m+1) E(n-1, m) + (n-m) E(n-1, m-1); the
alternating binomial sum serves rational arguments only.  All functions
are pure; several memoize with `functools.lru_cache`.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def _binom(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 for b < 0 or a < b (including a < 0)."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


@lru_cache(maxsize=None)
def _tangent(k: int) -> int:
    # T(k) = 1 - sum_{j=1}^{k-1} C(2k-1, 2j-1) T(j)
    return 1 - sum(math.comb(2 * k - 1, 2 * j - 1) * _tangent(j) for j in range(1, k))


def tangent_numbers(kmax: int) -> tuple[int, ...]:
    """Signed tangent numbers T(1..kmax).

    Defined by log cosh(z) = sum_{k>=1} T(k) z^{2k} / (2k)!.  The unsigned
    values |T(k)| = (-1)^{k+1} T(k) are the classical tangent (zag) numbers
    1, 2, 16, 272, 7936, ...

    >>> tangent_numbers(4)
    (1, -2, 16, -272)
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return tuple(_tangent(k) for k in range(1, kmax + 1))


@lru_cache(maxsize=None)
def _carlitz(k: int) -> int:
    # C(k) = 1 - sum_{j=1}^{k-1} C(k, j) C(k-1, j-1) C(j)
    return 1 - sum(
        math.comb(k, j) * math.comb(k - 1, j - 1) * _carlitz(j) for j in range(1, k)
    )


def carlitz_numbers(kmax: int) -> tuple[int, ...]:
    """Signed Carlitz numbers C(1..kmax).

    Defined by log J_0(2 sqrt(z)) = sum_{k>=1} (-1)^k C(k) z^k / (k!)^2 with
    J_0 the zeroth Bessel function of the first kind.  The unsigned values
    |C(k)| = (-1)^{k+1} C(k) are 1, 1, 4, 33, 456, ...

    >>> carlitz_numbers(4)
    (1, -1, 4, -33)
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return tuple(_carlitz(k) for k in range(1, kmax + 1))


@lru_cache(maxsize=None)
def _eulerian_general(n: int, x: Fraction) -> Fraction:
    top = math.floor(x + 1)
    if top < 0:
        return Fraction(0)
    total = Fraction(0)
    # C(n+1, j) vanishes for j > n+1, so the sum may be capped there.
    for j in range(0, min(top, n + 1) + 1):
        term = math.comb(n + 1, j) * (x + 1 - j) ** n
        total += -term if j % 2 else term
    return total


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
    if n < 1:
        raise ValueError("n must be >= 1")
    return _eulerian_general(n, Fraction(x))


# The newest row E(n, 0..n-1) of the Eulerian triangle built so far (n = its
# length).  The limit recursions ask for rows in increasing order, so each
# row is built once.  Only the newest is kept: the odd rows up to n = 999
# together hold about 165 MB.  It saves work only, as any row is a correct
# start; the entry is only ever replaced by a longer one.
_eulerian_row: list[tuple[int, ...]] = [(1,)]


@lru_cache(maxsize=None)
def eulerian_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of A_N(x) = sum_a E(2N-1, a-1) x^a.

    A_N has degree 2N-1, zero constant term, and nonnegative integer
    coefficients given by row 2N-1 of the Eulerian-number triangle.  The
    rows come from the integer recurrence, in a loop that extends the newest
    row built so far (from row 1 only when an earlier row is asked for).

    >>> eulerian_polynomial(2)
    (0, 1, 4, 1)
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    row = _eulerian_row[0]
    if len(row) >= 2 * N:
        row = (1,)  # E(1, 0)
    for n in range(len(row) + 1, 2 * N):
        # E(n, m) = (m+1) E(n-1, m) + (n-m) E(n-1, m-1), zero outside 0..n-2
        prev = (0,) + row + (0,)
        row = tuple((m + 1) * prev[m + 1] + (n - m) * prev[m] for m in range(n))
    _eulerian_row[0] = max(row, _eulerian_row[0], key=len)
    return (0,) + row


def composition_count(N: int, n: int, m: int) -> int:
    """Number of tuples (j_1, ..., j_N) in [0, n)^N with j_1 + ... + j_N = m.

    Evaluated by inclusion-exclusion:
    sum_{j=0}^{N} (-1)^j C(N, j) C(N + m - n*j - 1, N - 1).
    """
    if N < 1 or n < 1:
        raise ValueError("N and n must be >= 1")
    total = 0
    for j in range(N + 1):
        term = math.comb(N, j) * _binom(N + m - n * j - 1, N - 1)
        total += -term if j % 2 else term
    return total
