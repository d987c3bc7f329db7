"""Limiting L^2q norm ratios for Fekete, shifted Fekete, and Galois polynomials.

Each quantity has one production route.  The Fekete and Galois limits and
their triangular arrays come from a polynomial recursion, run in y = x + 1/x
on the palindromic polynomials x^k pi_k(y) at half the degree.  The shifted
limit phi_q(R) at a rational shift ratio R comes from the exponential formula
over even block profiles, run as an integer power-series recurrence.  phi_q
on [0, 1/2] is also built as an exact piecewise polynomial, by interpolating
that evaluator between candidate breakpoints in [0, 1/4] and mirroring by
phi_q(R) = phi_q(1/2 - R), and its minimum is certified with Sturm-based
enclosures.  The direct partition-profile sums `fekete_limit_direct` and
`galois_limit_direct` are kept as cross-checks.

The piecewise, partition-profile and Sturm modules are imported by the
functions that use them, so the recursions and `shifted_fekete_limit` run
without loading them.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, factorial
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from littlewood.special_numbers import _carlitz, _tangent, eulerian_polynomial

if TYPE_CHECKING:
    from littlewood.piecewise import PiecewisePoly

HALF = Fraction(1, 2)

FAMILIES = ("fekete", "galois")

# Admission rule of `shifted_fekete_limit`: q <= SHIFTED_QMAX and
# q * (decimal digits of R's denominator) <= SHIFTED_DIGITS.  Its cost grows
# with q and with the size of its integers, about 2q times the digits of the
# denominator; the printed value has about that many digits too, well below
# Python's 4300-digit limit on int-to-str conversion.
SHIFTED_QMAX = 16
SHIFTED_DIGITS = 1000

# Largest order of the symbolic phi constructions, `phi_piecewise` and
# `phi_min`, and of the `phi --pieces` and `phi --min` commands.
PHI_PIECES_QMAX = 6


class TriangleRow(NamedTuple):
    """Row k of a family's triangular integer array: 2k-1 palindromic values."""

    k: int
    values: tuple[int, ...]


class LimitTable(NamedTuple):
    family: str
    entries: dict[int, Fraction]


class PhiMinResult(NamedTuple):
    argmin: tuple[Fraction, Fraction]
    value: tuple[Fraction, Fraction]
    alt_flag: bool


def _y_form(half) -> tuple[int, ...]:
    """pi with sum_i pi_i (x + 1/x)^i = half[0] + sum_m half[m] (x^m + x^-m).

    As (x + 1/x)^i = sum_t C(i, t) x^(i-2t), half[m] = sum_t pi_(m+2t) C(m+2t, t)
    (`_x_form`); this solves for pi from the top degree down.
    """
    pi = list(half)
    for i in range(len(pi) - 3, -1, -1):
        pi[i] -= sum(pi[m] * comb(m, (m - i) // 2) for m in range(i + 2, len(pi), 2))
    return tuple(pi)


def _x_form(pi) -> tuple[int, ...]:
    return tuple(
        sum(pi[m] * comb(m, (m - i) // 2) for m in range(i, len(pi), 2))
        for i in range(len(pi))
    )


@lru_cache(maxsize=None)
def _eulerian_y(j: int) -> tuple[int, ...]:
    # A_j(x) = x^j alpha_j(x + 1/x) with deg alpha_j = j - 1
    return _y_form(eulerian_polynomial(j)[j:])


@lru_cache(maxsize=None)
def _recursion_y(family: str, k: int) -> tuple[int, ...]:
    """pi_k, where (2k-1)! times the recursion polynomial is x^k pi_k(x + 1/x).

    F_0 = G_0 = 1;  F_2k = sum_j C(2k-1, 2j-1) T(j)/(2j-1)! A_j F_(2k-2j)  and
    G_k = sum_j C(k, j) C(k-1, j-1) C(j)/(2j-1)! A_j G_(k-j).  Scaled by (2k-1)!,
    the weight of A_j times (2k-2j-1)! F_(2k-2j) gains the integer factor
    (2k-1)!/((2j-1)! (2k-2j-1)!) = C(2k-1, 2j-1) max(2k-2j, 1), and in
    y = x + 1/x each term is alpha_j pi_(k-j): degree k-1 instead of 2k-1.
    """
    if k == 0:
        return (1,)
    acc = [0] * k
    for j in range(1, k + 1):
        s = comb(2 * k - 1, 2 * j - 1) * max(2 * (k - j), 1)
        if family == "fekete":
            s *= comb(2 * k - 1, 2 * j - 1) * _tangent(j)
        else:
            s *= comb(k, j) * comb(k - 1, j - 1) * _carlitz(j)
        a, p = sorted((_eulerian_y(j), _recursion_y(family, k - j)), key=len)
        for i, av in enumerate(a):
            acc[i:i + len(p)] = map(add, acc[i:i + len(p)], map(mul, repeat(s * av), p))
    return tuple(acc)


def _coefficient(poly: tuple, m: int) -> Fraction:
    return Fraction(poly[m]) if 0 <= m < len(poly) else Fraction(0)


def _limit(family: str, q: int) -> Fraction:
    if q < 1:
        raise ValueError("q must be >= 1")
    # F(q, q) and G(q, q) are the x^0 term of pi_q(x + 1/x) over (2q-1)!
    pi = _recursion_y(family, q)
    centre = sum(pi[m] * comb(m, m // 2) for m in range(0, q, 2))
    return Fraction(centre, factorial(2 * q - 1))


def fekete_limit_recursive(q: int) -> Fraction:
    """Limit of the normalized 2q-th power norm of Fekete polynomials, F(q, q)."""
    return _limit("fekete", q)


def galois_limit_recursive(q: int) -> Fraction:
    """Limit of the normalized 2q-th power norm of Galois polynomials, G(q, q)."""
    return _limit("galois", q)


def _triangle_row(family: str, k: int) -> TriangleRow:
    if k < 1:
        raise ValueError("k must be >= 1")
    half = _x_form(_recursion_y(family, k))
    return TriangleRow(k, half[:0:-1] + half)


def fekete_triangle_row(k: int) -> TriangleRow:
    """Integers (2k-1)! F(k, m) for m = 1..2k-1."""
    return _triangle_row("fekete", k)


def galois_triangle_row(k: int) -> TriangleRow:
    """Integers (2k-1)! G(k, m) for m = 1..2k-1."""
    return _triangle_row("galois", k)


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
    from littlewood.partitions import even_size_profiles
    from littlewood.ratpoly import poly_mul

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
    from littlewood.partitions import galois_size_profiles
    from littlewood.ratpoly import poly_mul

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


def shifted_limit_error(q: int, R) -> str | None:
    """Why `shifted_fekete_limit(q, R)` is refused, or None if it is admitted."""
    if not 1 <= q <= SHIFTED_QMAX:
        return f"shifted limits support 1 <= q <= {SHIFTED_QMAX}"
    digits = SHIFTED_DIGITS // q
    if Fraction(R).denominator >= 10**digits:
        return (
            f"shift ratio denominator exceeds {digits} digits at q={q} "
            f"(q * digits must be at most {SHIFTED_DIGITS})"
        )
    return None


def _factorial_valuation(n: int, p: int) -> int:
    v = 0
    while n:
        n //= p
        v += n
    return v


@lru_cache(maxsize=None)
def _block_scale(q: int) -> int:
    """Least c such that (2N-1)! (2N)! divides c^N for every N <= q.

    Then c^N / ((2N-1)! (2N-P)! P!) is an integer for every block (N, P).
    """
    c = 1
    for p in range(2, 2 * q + 1):
        if all(p % f for f in range(2, p)):
            c *= p ** max(
                -(-(_factorial_valuation(2 * N - 1, p) + _factorial_valuation(2 * N, p)) // N)
                for N in range(1, q + 1)
            )
    return c


def _shifted_blocks(q: int, r: int, d: int, c: int) -> list[dict]:
    """Blocks of the exponential formula at R = r/d, scaled by c^N d^(2N).

    blocks[N][P] = (e, coeffs): coeffs[i] is the coefficient of x^(e+i) in
    c^N d^(2N) T(N) / ((2N-1)! (2N-P)! P!) * sum_a E(2N-1, 2RD + a - 1) x^(a+N),
    with D = N - P.  Write 2RD = f + t/d with 0 <= t < d.  The scaled values
    W_n[m] = d^n E(n, t/d + m - 1), m = 0..n, follow the integer recurrence
    W_n[m] = (t + m d) W_{n-1}[m] + ((n+1-m) d - t) W_{n-1}[m-1], W_0 = [1],
    and the value at a sits at m = f + a.
    """
    blocks: list[dict] = [{} for _ in range(q + 1)]
    # a block has 2N elements, P of them above q and 2N - P at most q, so
    # |D| <= min(N, q - N)
    for D in range(-(q // 2), q // 2 + 1):
        f, t = divmod(2 * r * D, d)
        row = [1]
        for n in range(1, 2 * q):
            row.append(0)
            row = [t * row[0]] + [
                (t + m * d) * row[m] + ((n + 1 - m) * d - t) * row[m - 1]
                for m in range(1, n + 1)
            ]
            N, odd = divmod(n + 1, 2)
            P = N - D
            if odd or abs(D) > N or not 0 <= P <= q or 2 * N - P > q:
                continue
            scale = d * _tangent(N) * (
                c**N // (factorial(2 * N - 1) * factorial(2 * N - P) * factorial(P))
            )
            lo, hi = 0, len(row)
            while row[hi - 1] == 0:
                hi -= 1
            while row[lo] == 0:
                lo += 1
            blocks[N][P] = (lo - f + N, [scale * v for v in row[lo:hi]])
    return blocks


def shifted_fekete_limit(q: int, R) -> Fraction:
    """Limit of the normalized 2q-th power norm of shifted Fekete polynomials
    whose shift ratio tends to R; exact for any rational R admitted by
    `shifted_limit_error` (q <= 16, q * digits of R's denominator <= 1000).

    The profile sum over even block profiles is an exponential-formula
    coefficient: phi_q(R) = q!^2 [t^q u^q x^(2q)] exp(G), with
    G = sum_{N <= q, P} T(N) / ((2N-1)! (2N-P)! P!) t^N u^P
        * sum_a E(2N-1, 2R(N-P) + a - 1) x^(a+N),
    where a block of 2N elements has P of them above q.  R is first reduced
    into [0, 1/2) by the period.  With R = r/d, scaling each block by
    c^N d^(2N) (`_block_scale`) makes it integral, and F_n = n! [t^n] exp(G),
    scaled by c^n d^(2n), follows the integer recurrence
    F_n = sum_k k (n-1)!/(n-k)! G_k F_{n-k}.  Each F_n keeps only the u- and
    x-exponents that can still reach u^q x^(2q), and the last step computes
    that one coefficient.  The cost is polynomial in q, about q^6 products of
    integers with about 2q times as many digits as d.
    """
    reason = shifted_limit_error(q, R)
    if reason:
        raise ValueError(reason)
    R = Fraction(R) % HALF
    r, d = R.numerator, R.denominator
    c = _block_scale(q)
    X = 2 * q
    blocks = _shifted_blocks(q, r, d, c)
    # a product of t-degree m has x-exponents in [xmin[m], xmax[m]]
    xmin, xmax = [0] * (q + 1), [0] * (q + 1)
    for m in range(1, q + 1):
        spans = [
            (e + xmin[m - k], e + len(g) - 1 + xmax[m - k])
            for k in range(1, m + 1)
            for e, g in blocks[k].values()
        ]
        xmin[m] = min(lo for lo, _ in spans)
        xmax[m] = max(hi for _, hi in spans)

    # series[n] = {u-exponent p: (lowest x-exponent, coefficients)} of F_n
    series: list[dict] = [{0: (0, [1])}]
    for n in range(1, q):
        p_lo, p_hi = max(0, 2 * n - q), min(2 * n, q)
        xlo = max(xmin[n], X - xmax[q - n])
        width = min(xmax[n], X - xmin[q - n]) - xlo + 1
        acc: dict[int, list] = {}
        for k in range(1, n + 1):
            w = k * factorial(n - 1) // factorial(n - k)
            for P, (ge, g) in blocks[k].items():
                for p0, (fe, f) in series[n - k].items():
                    if not p_lo <= p0 + P <= p_hi:
                        continue
                    h = acc.setdefault(p0 + P, [0] * width)
                    for i, gv in enumerate(g, start=ge + fe - xlo):
                        j0, j1 = max(0, -i), min(len(f), width - i)
                        if j0 < j1 and gv:
                            h[i + j0:i + j1] = map(
                                add, h[i + j0:i + j1], map(mul, repeat(w * gv), f[j0:j1])
                            )
        series.append({p: (xlo, h) for p, h in acc.items()})

    total = 0
    for k in range(1, q + 1):
        part = 0
        for P, (ge, g) in blocks[k].items():
            if q - P in series[q - k]:
                fe, f = series[q - k][q - P]
                for i, gv in enumerate(g, start=ge + fe):
                    if 0 <= X - i < len(f):
                        part += gv * f[X - i]
        total += k * factorial(q - 1) // factorial(q - k) * part
    return Fraction(factorial(q) * total, c**q * d ** (2 * q))


@lru_cache(maxsize=None)
def phi_piecewise(q: int) -> PiecewisePoly:
    """The shift-ratio limit function of order q on [0, 1/2], exactly.

    Every block of every even block profile contributes an Eulerian value at
    2(N-P) R + a - 1, a polynomial in R of degree 2N-1 between the points
    where its argument is an integer; so phi_q is a polynomial of degree at
    most 2q-1 between breakpoints R = j/(2D), 1 <= D <= q/2 (`_shifted_blocks`
    bounds |D| = |N-P| by min(N, q-N)).  These and 1/4 are mirrored by
    R -> 1/2 - R, under which phi_q is invariant.  On each interval [a, b]
    between candidates in [0, 1/4], 2q exact values of `shifted_fekete_limit`
    at interior rationals x give the piece there and, at the nodes 1/2 - x,
    the piece on [1/2 - b, 1/2 - a]; both are checked against one more value,
    and a mismatch raises ArithmeticError.  Equal neighbours then merge, so
    only true breakpoints remain.
    """
    from littlewood.piecewise import PiecewisePoly
    from littlewood.ratpoly import poly_eval, poly_interpolate

    if not 1 <= q <= PHI_PIECES_QMAX:
        raise ValueError(f"symbolic construction supports 1 <= q <= {PHI_PIECES_QMAX}")
    breaks = sorted({Fraction(0), HALF / 2, HALF} | {
        Fraction(j, 2 * D) for D in range(1, q // 2 + 1) for j in range(D + 1)
    })
    left, right = [], []
    for a, b in zip(breaks, breaks[1:breaks.index(HALF / 2) + 1]):
        # 2q interpolation nodes and the check node last, all interior
        xs = [a + (b - a) * k / (2 * q + 2) for k in range(1, 2 * q + 2)]
        ys = [shifted_fekete_limit(q, x) for x in xs]
        for nodes, out in ((xs, left), ([HALF - x for x in xs], right)):
            piece = poly_interpolate(nodes[:-1], ys[:-1])
            if poly_eval(piece, nodes[-1]) != ys[-1]:
                raise ArithmeticError(f"phi_{q} near {nodes[-1]} is not of degree < {2 * q}")
            out.append(piece)
    return PiecewisePoly(tuple(breaks), tuple(left + right[::-1]))


def phi_min(q: int, eps) -> PhiMinResult:
    """Certified minimum of the order-q shift-limit function on [0, 1/2].

    alt_flag reports whether any other critical point's value enclosure
    overlaps the minimum enclosure (uniqueness of the minimizer is evidence,
    never an assumption).
    """
    from littlewood.piecewise import pw_minimize

    if not 2 <= q <= PHI_PIECES_QMAX:
        raise ValueError(
            f"phi_min supports 2 <= q <= {PHI_PIECES_QMAX} (order 1 is constant)"
        )
    res = pw_minimize(phi_piecewise(q), 0, HALF, eps)
    return PhiMinResult(res.argmin, res.value, bool(res.competitors))
