"""Limiting L^2q norm ratios for Fekete, shifted Fekete, and Galois polynomials.

Each quantity has one production route.  The Fekete and Galois limits and
their triangular arrays come from a polynomial recursion in y = x + 1/x on
the palindromic polynomials x^k pi_k(y).  It is linear in products of
polynomials, so it runs as a scalar recurrence at each integer node
y = 0, 1, -1, 2, ..., and pi_k is interpolated from k node values for a
limit or a triangle row.  The shifted limit phi_q(R) at a rational shift
ratio R comes from the exponential formula over even block profiles, run as
an integer power-series recurrence.  phi_q on [0, 1/2] is also built as an
exact piecewise polynomial, by interpolating that evaluator between
candidate breakpoints in [0, 1/4], where one pass of the recurrence serves
all 2q+1 nodes of an interval and their 2q-th divided difference must
vanish, and mirroring by the substitution R -> 1/2 - R, under which phi_q
is invariant; its minimum is certified on [0, 1/4] with enclosures from
Descartes root isolation.  The direct partition-profile sums
`fekete_limit_direct` and `galois_limit_direct` are cross-checks.

Each public function raises ValueError before any work for input outside its
rule (MAX_Q, `shifted_limit_error`, PHI_PIECES_QMAX); the command line prints
that message as its error record.

The piecewise, rational-polynomial, partition-profile and root modules are
imported by the functions that use them, so the recursions and
`shifted_fekete_limit` run without loading them.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, cycle, repeat
from math import comb, factorial, lcm
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from littlewood.special_numbers import _carlitz, _tangent, eulerian_polynomial

if TYPE_CHECKING:
    from littlewood.piecewise import PiecewisePoly

HALF = Fraction(1, 2)

FAMILIES = ("fekete", "galois")

# Largest order of the Fekete and Galois recursion: the q of their limits and
# of `limit_table`, the k of their triangle rows and of `triangle_table`, and
# the fekete/galois q of `convergence_table`.  `limit_table(family, 128)` and
# `triangle_table(family, 128)` each take 3-4 s and about 25 MB on a 2-vCPU
# machine; the work grows about as q^3 products of integers whose size grows
# with q.
MAX_Q = 128

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


def _x_form(pi) -> tuple[int, ...]:
    # half with sum_i pi_i (x + 1/x)^i = half[0] + sum_m half[m] (x^m + x^-m)
    return tuple(
        sum(pi[m] * comb(m, (m - i) // 2) for m in range(i, len(pi), 2))
        for i in range(len(pi))
    )


def _node(i: int) -> int:
    return (i + 1) // 2 if i % 2 else -(i // 2)  # y = 0, 1, -1, 2, -2, ...


@lru_cache(maxsize=None)
def _recursion_weights(family: str, k: int) -> tuple[int, ...]:
    # s_(k,j), j = 1..k: the weight of alpha_j pi_(k-j) in pi_k (`_recursion_y`)
    return tuple(
        comb(2 * k - 1, 2 * j - 1) * max(2 * (k - j), 1) * (
            comb(2 * k - 1, 2 * j - 1) * _tangent(j) if family == "fekete"
            else comb(k, j) * comb(k - 1, j - 1) * _carlitz(j)
        )
        for j in range(1, k + 1)
    )


# (family, i) -> (V_0, V_1, ...), (alpha_1, alpha_2, ...) and (pi_0, pi_1, ...)
# at y_i.  An entry is only ever replaced by a longer one.
_node_values: dict[tuple[str, int], tuple[tuple[int, ...], ...]] = {}


def _values(family: str, i: int, k: int) -> tuple[int, ...]:
    """pi_0(y_i), ..., pi_k(y_i) at least, by the scalar recurrence
    pi_n(y) = sum_j s_(n,j) alpha_j(y) pi_(n-j)(y).

    A_j(x) = x^j alpha_j(x + 1/x) gives alpha_j(y) = sum_m e_m V_m(y) - e_0
    over the upper half e of A_j's coefficients, with V_m(x + 1/x) =
    x^m + x^-m, so V_0 = 2, V_1 = y and V_(m+1) = y V_m - V_(m-1).
    """
    y = _node(i)
    lucas, alphas, vals = _node_values.get((family, i), ((2, y), (), (1,)))
    if len(vals) <= k:
        lucas, alphas, vals = list(lucas), list(alphas), list(vals)
        while len(lucas) < k:
            lucas.append(y * lucas[-1] - lucas[-2])
        for n in range(len(vals), k + 1):
            e = eulerian_polynomial(n)[n:]
            alphas.append(sum(map(mul, e, lucas)) - e[0])
            vals.append(sum(map(mul, _recursion_weights(family, n), map(mul, alphas, vals[::-1]))))
        _node_values[family, i] = tuple(lucas), tuple(alphas), tuple(vals)
    return vals


def _recursion_y(family: str, k: int) -> tuple[int, ...]:
    """pi_k, where (2k-1)! times the recursion polynomial is x^k pi_k(x + 1/x).

    F_0 = G_0 = 1;  F_2k = sum_j C(2k-1, 2j-1) T(j)/(2j-1)! A_j F_(2k-2j)  and
    G_k = sum_j C(k, j) C(k-1, j-1) C(j)/(2j-1)! A_j G_(k-j).  Scaled by (2k-1)!,
    the weight of A_j times (2k-2j-1)! F_(2k-2j) gains the integer factor
    (2k-1)!/((2j-1)! (2k-2j-1)!) = C(2k-1, 2j-1) max(2k-2j, 1), and in
    y = x + 1/x each term is alpha_j pi_(k-j).  That is linear in products of
    polynomials, so it runs at each integer node y_i (`_values`); pi_k is
    interpolated from the nodes y_0..y_(k-1) by Newton divided differences
    (`_newton`), integers because pi_k has integer coefficients and the
    nodes are integers.
    """
    if k == 0:
        return (1,)
    return _newton([_node(i) for i in range(k)], [_values(family, i, k)[k] for i in range(k)])


def _newton(xs, ys) -> tuple[int, ...]:
    """Coefficients of the polynomial of degree < len(xs) through the points
    (xs[i], ys[i]), all integers, by Newton divided differences and Horner.

    Each divided difference is divided with exact //, so the caller
    guarantees they are integers: integer coefficients at integer nodes, or
    values scaled by (m-1)! s^(m-1) at m nodes s apart.  The top coefficient
    is the highest divided difference, even when it is zero.
    """
    dd = list(ys)
    for level in range(1, len(xs)):
        dd[level:] = [
            (b - a) // (xb - xa)
            for a, b, xa, xb in zip(dd[level - 1:], dd[level:], xs, xs[level:])
        ]
    poly = [dd[-1]]
    for x, c in zip(xs[-2::-1], dd[-2::-1]):
        # poly <- poly * (X - x) + c
        poly = [c - x * poly[0]] + [a - x * b for a, b in zip(poly, poly[1:])] + [poly[-1]]
    return tuple(poly)


def _check_order(name: str, q: int) -> None:
    if not 1 <= q <= MAX_Q:
        raise ValueError(f"{name} {q} out of range 1..{MAX_Q}")


def _coefficient(poly: tuple, m: int) -> Fraction:
    return Fraction(poly[m]) if 0 <= m < len(poly) else Fraction(0)


def _limit(family: str, q: int) -> Fraction:
    _check_order("q", q)
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
    _check_order("k", k)
    half = _x_form(_recursion_y(family, k))
    return TriangleRow(k, half[:0:-1] + half)


def fekete_triangle_row(k: int) -> TriangleRow:
    """Integers (2k-1)! F(k, m) for m = 1..2k-1."""
    return _triangle_row("fekete", k)


def galois_triangle_row(k: int) -> TriangleRow:
    """Integers (2k-1)! G(k, m) for m = 1..2k-1."""
    return _triangle_row("galois", k)


def limit_table(family: str, qmax: int) -> LimitTable:
    """The family's limits for q = 1..qmax."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    _check_order("qmax", qmax)
    fn = fekete_limit_recursive if family == "fekete" else galois_limit_recursive
    return LimitTable(family, {q: fn(q) for q in range(1, qmax + 1)})


def triangle_table(family: str, rows: int) -> list[TriangleRow]:
    """Rows k = 1..rows of the family's triangular array."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    _check_order("rows", rows)
    fn = fekete_triangle_row if family == "fekete" else galois_triangle_row
    return [fn(k) for k in range(1, rows + 1)]


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


def _shifted_blocks(q: int, numerators, d: int, c: int) -> list[dict]:
    """Blocks of the exponential formula at the nodes R = r/d, r in numerators.

    blocks[N][P] = (e, coeffs): coeffs[i][s] is the coefficient of x^(e+i) in
    N c^N d^(2N) T(N) / ((2N-1)! (2N-P)! P!) * sum_a E(2N-1, 2RD + a - 1) x^(a+N)
    at R = numerators[s]/d, with D = N - P.  Write 2RD = f + t/d with
    0 <= t < d.  The scaled values W_n[m] = d^n E(n, t/d + m - 1), m = 0..n,
    follow the integer recurrence W_0 = [1],
    W_n[m] = (t + m d) W_{n-1}[m] + ((n+1-m) d - t) W_{n-1}[m-1], and the
    value at a sits at m = f + a.  Only W_n[0] can vanish, when t = 0, so the
    nodes share e and len(coeffs) if they share f and whether t = 0 for every
    D; otherwise they straddle a breakpoint and ValueError is raised.
    """
    K = len(numerators)
    blocks: list[dict] = [{} for _ in range(q + 1)]
    # a block has 2N elements, P of them above q and 2N - P at most q, so
    # |D| <= min(N, q - N)
    for D in range(-(q // 2), q // 2 + 1):
        fs, ts = zip(*[divmod(2 * r * D, d) for r in numerators])
        f = fs[0]
        if fs.count(f) < K or 0 < ts.count(0) < K:
            raise ValueError("the nodes straddle a breakpoint")
        # row[m K + s] = W_n[m] at node s, and ramp[m K + s] = t + m d there
        ramp = [t + m * d for m in range(2 * q) for t in ts]
        row, pad = [1] * K, [0] * K
        for n in range(1, 2 * q):
            nd = (n + 1) * d
            row = [a * w + (nd - a) * v for a, w, v in zip(ramp, row + pad, pad + row)]
            N, odd = divmod(n + 1, 2)
            P = N - D
            if odd or abs(D) > N or not 0 <= P <= q or 2 * N - P > q:
                continue
            scale = N * d * _tangent(N) * (
                c**N // (factorial(2 * N - 1) * factorial(2 * N - P) * factorial(P))
            )
            lo, hi = 0, n + 1
            while row[(hi - 1) * K] == 0:
                hi -= 1
            while row[lo * K] == 0:
                lo += 1
            # one tuple of K node values per power of x
            values = map(mul, repeat(scale), row[lo * K:hi * K])
            blocks[N][P] = (lo - f + N, list(zip(*[values] * K)))
    return blocks


def _shifted_values(q: int, numerators, d: int) -> list[Fraction]:
    """phi_q(r/d) for every r in numerators, nodes in [0, 1/2) that share one
    open interval between breakpoints (`_shifted_blocks`), in one pass.

    With the blocks k G_k (`_shifted_blocks`), S_n = q!/n! F_n is an integer
    series with S_0 = q! and n S_n = sum_k (k G_k) S_(n-k), so each step ends
    in one exact division, and phi_q = q! [u^q x^(2q)] S_q over c^q d^(2q).
    Each coefficient is a vector over the K nodes, stored node-interleaved
    (entry x K + s belongs to node s), so each update is one slice operation
    for all of them.
    """
    K = len(numerators)
    c = _block_scale(q)
    X = 2 * q
    blocks = _shifted_blocks(q, numerators, d, c)
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

    # series[n] = {u-exponent p: (lowest x-exponent, coefficients)} of S_n
    series: list[dict] = [{0: (0, [factorial(q)] * K)}]
    for n in range(1, q + 1):
        p_lo, p_hi = max(0, 2 * n - q), min(2 * n, q)
        xlo = max(xmin[n], X - xmax[q - n])
        width = (min(xmax[n], X - xmin[q - n]) - xlo + 1) * K
        acc: dict[int, list] = {}
        for k in range(1, n + 1):
            for P, (ge, g) in blocks[k].items():
                for p0, (fe, f) in series[n - k].items():
                    if not p_lo <= p0 + P <= p_hi:
                        continue
                    h = acc.setdefault(p0 + P, [0] * width)
                    # o: the offset in h of the product of g's x-power gv and f[0]
                    for o, gv in zip(count((ge + fe - xlo) * K, K), g):
                        j0, j1 = max(0, -o), min(len(f), width - o)
                        if j0 < j1:
                            h[o + j0:o + j1] = map(
                                add, h[o + j0:o + j1], map(mul, cycle(gv), f[j0:j1])
                            )
        series.append({p: (xlo, [v // n for v in h]) for p, h in acc.items()})

    # at n = q the windows are exactly u^q and x^(2q), and phi_q = q! S_q
    scale, den = factorial(q), c**q * d ** (2 * q)
    return [Fraction(scale * t, den) for t in series[q][q][1]]


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
    scaled by c^n d^(2n), follows F_n = sum_k k (n-1)!/(n-k)! G_k F_{n-k}
    (`_shifted_values`, at the one node R).  Each F_n keeps only the u- and
    x-exponents that can still reach u^q x^(2q).  The cost is polynomial in q,
    about q^6 products of integers with about 2q times as many digits as d.
    """
    reason = shifted_limit_error(q, R)
    if reason:
        raise ValueError(reason)
    R = Fraction(R) % HALF
    return _shifted_values(q, [R.numerator], R.denominator)[0]


@lru_cache(maxsize=None)
def phi_piecewise(q: int) -> PiecewisePoly:
    """The shift-ratio limit function of order q on [0, 1/2], exactly.

    Every block of every even block profile contributes an Eulerian value at
    2(N-P) R + a - 1, a polynomial in R of degree 2N-1 between the points
    where its argument is an integer; so phi_q is a polynomial of degree at
    most 2q-1 between breakpoints R = j/(2D), 1 <= D <= q/2 (`_shifted_blocks`
    bounds |D| = |N-P| by min(N, q-N)).  These and 1/4 are mirrored by
    R -> 1/2 - R, under which phi_q is invariant.  On each interval [a, b]
    between candidates in [0, 1/4], 2q+1 exact values at equally spaced
    interior rationals r/d, s apart, come from one pass of `_shifted_values`
    over the common denominator d.  Scaled by the lcm L of their denominators
    times (2q)! s^(2q), they are interpolated in r by integer divided
    differences (`_newton`); the 2q-th divided difference must vanish, or
    ArithmeticError is raised, and the rest, with r = R d, give the piece p
    there.  The piece on [1/2 - b, 1/2 - a] is p(1/2 - R): p shifted by 1/2,
    odd coefficients negated.  Equal neighbours then merge, so only true
    breakpoints remain.
    """
    from littlewood.piecewise import PiecewisePoly
    from littlewood.ratpoly import poly_shift

    if not 1 <= q <= PHI_PIECES_QMAX:
        raise ValueError(f"symbolic construction supports 1 <= q <= {PHI_PIECES_QMAX}")
    breaks = sorted({Fraction(0), HALF / 2, HALF} | {
        Fraction(j, 2 * D) for D in range(1, q // 2 + 1) for j in range(D + 1)
    })
    left, right = [], []
    for a, b in zip(breaks, breaks[1:breaks.index(HALF / 2) + 1]):
        # 2q+1 equally spaced interior nodes r/d, s apart
        xs = [a + (b - a) * k / (2 * q + 2) for k in range(1, 2 * q + 2)]
        d = lcm(*(x.denominator for x in xs))
        rs = [x.numerator * (d // x.denominator) for x in xs]
        ys = _shifted_values(q, rs, d)
        # scaled so that every divided difference of order <= 2q is an integer
        s = rs[1] - rs[0]
        scale = lcm(*(y.denominator for y in ys)) * factorial(2 * q) * s ** (2 * q)
        coeffs = _newton(rs, [y.numerator * (scale // y.denominator) for y in ys])
        if coeffs[-1]:
            raise ArithmeticError(f"phi_{q} near {xs[-1]} is not of degree < {2 * q}")
        # scale * phi_q(R) = sum_i coeffs[i] (R d)^i
        piece = tuple(Fraction(c * d**i, scale) for i, c in enumerate(coeffs[:-1]))
        left.append(piece)
        right.append(tuple(c * (-1) ** i for i, c in enumerate(poly_shift(piece, HALF))))
    return PiecewisePoly(tuple(breaks), tuple(left + right[::-1]))


def phi_min(q: int, eps) -> PhiMinResult:
    """Certified minimum of the order-q shift-limit function on [0, 1/2].

    It is taken over [0, 1/4], as phi_q(R) = phi_q(1/2 - R); the mirror of the
    argmin is a minimizer too.  alt_flag reports whether another candidate in
    [0, 1/4] has a value enclosure overlapping the minimum's (uniqueness of
    the minimizer is evidence, never an assumption).
    """
    from littlewood.piecewise import pw_minimize

    if not 2 <= q <= PHI_PIECES_QMAX:
        raise ValueError(
            f"phi_min supports 2 <= q <= {PHI_PIECES_QMAX} (order 1 is constant)"
        )
    if eps <= 0:
        raise ValueError("eps must be positive")
    res = pw_minimize(phi_piecewise(q), 0, HALF / 2, eps)
    return PhiMinResult(res.argmin, res.value, bool(res.competitors))
