"""Limiting L^2q norm ratios for Fekete, shifted Fekete, and Galois polynomials.

Two independent routes compute each family's limits: a polynomial recursion
(cheap, used for the published tables and the triangular arrays) and a direct
partition-profile sum (used as a cross-check).  The shift
dependence is captured both pointwise (exact rational evaluation at any shift
ratio) and symbolically as an exact piecewise polynomial on [0, 1/2], whose
minima are certified with Sturm-based enclosures.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, factorial, floor

from littlewood.partitions import even_block_profiles, even_size_profiles, galois_size_profiles
from littlewood.piecewise import (
    ZERO,
    MinimizeResult,
    PiecewisePoly,
    eulerian_spline,
    pw_add,
    pw_affine,
    pw_minimize,
    pw_mul,
    pw_restrict,
    pw_scale,
)
from littlewood.ratpoly import poly_add, poly_mul, poly_scale
from littlewood.special_numbers import (
    _carlitz,
    _tangent,
    eulerian_general,
    eulerian_polynomial,
)

HALF = Fraction(1, 2)

FAMILIES = ("fekete", "galois")


@dataclass(frozen=True)
class TriangleRow:
    """Row k of a family's triangular integer array: 2k-1 palindromic values."""

    k: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class LimitTable:
    family: str
    entries: dict[int, Fraction]


@dataclass(frozen=True)
class PhiMinResult:
    argmin: tuple[Fraction, Fraction]
    value: tuple[Fraction, Fraction]
    alt_flag: bool


def _scaled_weight(k: int, j: int) -> int:
    # (2k-1)! / ((2j-1)! (2k-2j-1)!), an exact integer (multinomial); the
    # denominator's second factorial is 0! in the j = k term.
    num = factorial(2 * k - 1)
    den = factorial(2 * j - 1) * factorial(max(2 * (k - j) - 1, 0))
    if num % den:
        raise ArithmeticError(f"triangle scaling (k={k}, j={j}) is not integral")
    return num // den


@lru_cache(maxsize=None)
def _fekete_int_poly(k: int) -> tuple[int, ...]:
    # (2k-1)! times the recursion polynomial, so coefficients stay integers:
    # F_0 = 1;  F_{2k}(x) = sum_j C(2k-1, 2j-1) T(j)/(2j-1)! A_j(x) F_{2k-2j}(x)
    if k == 0:
        return (1,)
    total: tuple = ()
    for j in range(1, k + 1):
        scale = comb(2 * k - 1, 2 * j - 1) * _tangent(j) * _scaled_weight(k, j)
        term = poly_mul(eulerian_polynomial(j), _fekete_int_poly(k - j))
        total = poly_add(total, poly_scale(term, scale))
    return total


@lru_cache(maxsize=None)
def _galois_int_poly(k: int) -> tuple[int, ...]:
    # G_0 = 1;  G_k(x) = sum_j C(k,j) C(k-1,j-1) C(j)/(2j-1)! A_j(x) G_{k-j}(x)
    if k == 0:
        return (1,)
    total: tuple = ()
    for j in range(1, k + 1):
        scale = (
            comb(k, j) * comb(k - 1, j - 1) * _carlitz(j) * _scaled_weight(k, j)
        )
        term = poly_mul(eulerian_polynomial(j), _galois_int_poly(k - j))
        total = poly_add(total, poly_scale(term, scale))
    return total


def _coefficient(poly: tuple, m: int) -> Fraction:
    return Fraction(poly[m]) if 0 <= m < len(poly) else Fraction(0)


def fekete_limit_recursive(q: int) -> Fraction:
    """Limit of the normalized 2q-th power norm of Fekete polynomials, F(q, q)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return _coefficient(_fekete_int_poly(q), q) / factorial(2 * q - 1)


def galois_limit_recursive(q: int) -> Fraction:
    """Limit of the normalized 2q-th power norm of Galois polynomials, G(q, q)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return _coefficient(_galois_int_poly(q), q) / factorial(2 * q - 1)


def _triangle_row(k: int, poly: tuple) -> TriangleRow:
    values = []
    for m in range(1, 2 * k):
        v = poly[m] if m < len(poly) else 0
        values.append(int(v))
    return TriangleRow(k, tuple(values))


def fekete_triangle_row(k: int) -> TriangleRow:
    """Integers (2k-1)! F(k, m) for m = 1..2k-1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _triangle_row(k, _fekete_int_poly(k))


def galois_triangle_row(k: int) -> TriangleRow:
    """Integers (2k-1)! G(k, m) for m = 1..2k-1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _triangle_row(k, _galois_int_poly(k))


def limit_table(family: str, qmax: int) -> LimitTable:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    fn = fekete_limit_recursive if family == "fekete" else galois_limit_recursive
    return LimitTable(family, {q: fn(q) for q in range(1, qmax + 1)})


def fekete_limit_direct(q: int) -> Fraction:
    """Direct partition-sum form of the Fekete limit, via even size profiles.

    Per profile, the composition sum factors as the x^q coefficient of the
    product of the blocks' Eulerian polynomials.
    """
    if not 1 <= q <= 10:
        raise ValueError("direct evaluation supports 1 <= q <= 10")
    total = Fraction(0)
    for prof in even_size_profiles(q):
        weight = Fraction(prof.count)
        gen: tuple = (Fraction(1),)
        for size in prof.sizes:
            N = size // 2
            weight *= Fraction(_tangent(N), factorial(2 * N - 1))
            gen = poly_mul(gen, eulerian_polynomial(N))
        total += weight * _coefficient(gen, q)
    return total


def galois_limit_direct(q: int) -> Fraction:
    """Direct partition-sum form of the Galois limit, via size profiles,
    including the multinomial factor q!/prod(N_i!) applied per partition."""
    if not 1 <= q <= 10:
        raise ValueError("direct evaluation supports 1 <= q <= 10")
    total = Fraction(0)
    for prof in galois_size_profiles(q):
        weight = Fraction(prof.count * factorial(q))
        gen: tuple = (Fraction(1),)
        for N in prof.sizes:
            weight *= Fraction(_carlitz(N), factorial(N) * factorial(2 * N - 1))
            gen = poly_mul(gen, eulerian_polynomial(N))
        total += weight * _coefficient(gen, q)
    return total


def shifted_fekete_limit(q: int, R) -> Fraction:
    """Limit of the normalized 2q-th power norm of shifted Fekete polynomials
    whose shift ratio tends to R; exact for any rational R.

    Per even block profile, each block contributes Eulerian values at
    arguments 2R(N-P) + a - 1 over the finite range of integers a where the
    value can be nonzero; the composition sum is a sparse convolution over
    the a-exponents, read off at total exponent q.
    """
    if not 1 <= q <= 8:
        raise ValueError("pointwise shifted evaluation supports 1 <= q <= 8")
    R = Fraction(R)
    total = Fraction(0)
    for prof in even_block_profiles(q):
        weight = Fraction(prof.count)
        conv: dict[int, Fraction] = {0: Fraction(1)}
        for N, P in prof.entries:
            weight *= Fraction(_tangent(N), factorial(2 * N - 1))
            shift = 2 * R * (N - P)
            # nonzero requires shift + a - 1 in (-1, 2N-1)
            a_min = floor(-shift) + 1
            a_max = ceil(2 * N - shift) - 1
            block = {}
            for a in range(a_min, a_max + 1):
                v = eulerian_general(2 * N - 1, shift + a - 1)
                if v:
                    block[a] = v
            if not block:
                conv = {}
                break
            nxt: dict[int, Fraction] = {}
            for e, c in conv.items():
                for a, v in block.items():
                    key = e + a
                    nxt[key] = nxt.get(key, Fraction(0)) + c * v
            conv = nxt
        if conv:
            total += weight * conv.get(q, Fraction(0))
    return total


def _compositions(ranges: list[list[int]], target: int):
    """Integer tuples, one from each ascending list, summing to target."""
    suffix_min = [0] * (len(ranges) + 1)
    suffix_max = [0] * (len(ranges) + 1)
    for i in range(len(ranges) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + ranges[i][0]
        suffix_max[i] = suffix_max[i + 1] + ranges[i][-1]
    chosen = [0] * len(ranges)

    def rec(i: int, remaining: int):
        if i == len(ranges):
            yield tuple(chosen)
            return
        for a in ranges[i]:
            rest = remaining - a
            if suffix_min[i + 1] <= rest <= suffix_max[i + 1]:
                chosen[i] = a
                yield from rec(i + 1, rest)

    yield from rec(0, target)


@lru_cache(maxsize=None)
def _block_spline(N: int, P: int, a: int) -> PiecewisePoly:
    """R -> E(2N-1, 2(N-P) R + a - 1) on [0, 1/2], zero elsewhere."""
    alpha, beta = 2 * (N - P), a - 1
    spline = eulerian_spline(2 * N - 1)
    if alpha:
        # only the pieces between beta and beta + alpha/2 reach [0, 1/2]
        ends = sorted((beta, beta + alpha * HALF))
        spline = pw_restrict(spline, *ends)
    return pw_restrict(pw_affine(spline, alpha, beta), 0, HALF)


@lru_cache(maxsize=None)
def phi_piecewise(q: int) -> PiecewisePoly:
    """The shift-ratio limit function of order q on [0, 1/2], exactly.

    Assembled from Eulerian splines: every block of every even block profile
    contributes the spline of order 2N-1 composed with the affine map
    R -> 2(N-P) R + (a-1); blocks multiply, compositions and profiles sum.
    Each block spline is built once per (N, P, a) and cached already
    restricted to [0, 1/2], so products run over [0, 1/2] only.
    Composition indices range over the a in [1-N, 3N-1] whose block spline
    does not vanish there.  Evaluation at any rational in [0, 1/2] equals
    `shifted_fekete_limit(q, R)`.
    """
    if not 1 <= q <= 6:
        raise ValueError("symbolic construction supports 1 <= q <= 6")
    total = ZERO
    for prof in even_block_profiles(q):
        weight = Fraction(prof.count)
        for N, _ in prof.entries:
            weight *= Fraction(_tangent(N), factorial(2 * N - 1))
        ranges = [
            [a for a in range(1 - N, 3 * N) if _block_spline(N, P, a) != ZERO]
            for N, P in prof.entries
        ]
        profile_sum = ZERO
        for a_tuple in _compositions(ranges, q):
            term = None
            for (N, P), a in zip(prof.entries, a_tuple):
                g = _block_spline(N, P, a)
                term = g if term is None else pw_mul(term, g)
                if term == ZERO:
                    break
            profile_sum = pw_add(profile_sum, term)
        total = pw_add(total, pw_scale(profile_sum, weight))
    return total


def phi_min(q: int, eps) -> PhiMinResult:
    """Certified minimum of the order-q shift-limit function on [0, 1/2].

    alt_flag reports whether any other critical point's value enclosure
    overlaps the minimum enclosure (uniqueness of the minimizer is evidence,
    never an assumption).
    """
    if not 2 <= q <= 6:
        raise ValueError("phi_min supports 2 <= q <= 6 (order 1 is constant)")
    res: MinimizeResult = pw_minimize(phi_piecewise(q), 0, HALF, eps)
    return PhiMinResult(res.argmin, res.value, bool(res.competitors))
