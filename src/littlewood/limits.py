"""Limiting L^2q norm ratios for Fekete, shifted Fekete, and Galois polynomials.

Each quantity has one production route.  The Fekete and Galois limits and
their triangular arrays come from a polynomial recursion in y = x + 1/x on
the palindromic polynomials x^k pi_k(y).  It is linear in products of
polynomials, so one pass per call runs it as a scalar recurrence at the
integer nodes y = 0, 1, -1, 2, ..., and each pi_k is interpolated from k
node values of that table.  The six public functions of these two families
read the rows of one builder, `_rows`: a triangle row is pi_k expanded back
to powers of x, and a limit is its row's middle (x^0) entry over (2q-1)!.
Results are plain values: a row is a tuple of integers, `limit_table` a
dict {q: limit}, and `phi_min` the `MinimizeResult` of `pw_minimize`.
A call keeps nothing, so its cost depends only on its arguments.  The
shifted limit phi_q(R) at a rational shift ratio R comes from the
exponential formula over even block profiles, run as an integer
power-series recurrence.  phi_q on [0, 1/2] is also built as an exact
piecewise polynomial, by interpolating that evaluator between candidate
breakpoints in [0, 1/4], where one pass of the recurrence serves all 2q
nodes of an interval and their (2q-1)-th divided difference must vanish, and
mirroring by the substitution R -> 1/2 - R, under which phi_q is invariant;
its minimum is certified on [0, 1/4] with enclosures from Descartes root
isolation.  The direct partition-profile sums `fekete_limit_direct` and
`galois_limit_direct`, the recursion's cross-checks, are one sum
(`_direct_sum`) over a profile stream of `partitions`, whose one enumerator
counts each multiset of block sizes by one formula, with a weight per block.
T(k), C(k) with their binomials, the Eulerian rows and the primes of
`_block_scale` come from `special_numbers`.

Each public function raises ValueError before any work for input outside its
rule (`_check_order`, `check_shift`, `phi_min`'s eps, the *_QMAX bounds; each
order by `littlewood._check_int`, each shift ratio by
`littlewood._check_rational`, eps by `piecewise._check_eps`, each bound on a
printed value by `littlewood._check_digits`); the command line prints that
message as its error record.

The piecewise, rational-polynomial and partition-profile modules are
imported by the functions that use them, and `sturm` is loaded only through
`piecewise`, so the recursions and `shifted_fekete_limit` run without
loading any of them.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count, cycle, repeat
from math import ceil, comb, factorial, floor, lcm
from operator import add, mul
from typing import TYPE_CHECKING

from littlewood import _check_digits, _check_int, _check_rational
from littlewood.special_numbers import (_carlitz_binomial, _prime_factors, _spline_rows,
                                        _tangent_binomial, carlitz_numbers, eulerian_polynomial,
                                        tangent_numbers)

if TYPE_CHECKING:
    from littlewood.piecewise import MinimizeResult, PiecewisePoly

HALF = Fraction(1, 2)

FAMILIES = ("fekete", "galois")

# Largest order of the Fekete and Galois recursion: the q of their limits and
# of `limit_table`, the k of their triangle rows and of `triangle_table`, and
# the fekete/galois q of `convergence_table`.  `limit_table(family, 128)` and
# `triangle_table(family, 128)` each take 3-4 s and about 20 MB on a 2-vCPU
# machine; the work grows about as q^3 products of integers whose size grows
# with q.
MAX_Q = 128

# Largest order of `check_shift`, the admission rule of `shifted_fekete_limit`.
SHIFTED_QMAX = 16

DIRECT_QMAX = 10  # largest order of the direct sums, the recursion's oracles

# Largest order of the symbolic phi constructions, `phi_piecewise` and
# `phi_min`, and of the `phi --pieces` and `phi --min` commands.
PHI_PIECES_QMAX = 6


def _x_form(pi) -> tuple[int, ...]:
    # half with sum_i pi_i (x + 1/x)^i = half[0] + sum_m half[m] (x^m + x^-m)
    return tuple(
        sum(pi[m] * comb(m, (m - i) // 2) for m in range(i, len(pi), 2))
        for i in range(len(pi))
    )


def _node(i: int) -> int:
    return (i + 1) // 2 if i % 2 else -(i // 2)  # y = 0, 1, -1, 2, -2, ...


def _alphas(k: int) -> list[list[int]]:
    """alpha_1(y_i), ..., alpha_k(y_i) at each node y_i, i = 0..k-1.

    A_j(x) = x^j alpha_j(x + 1/x) gives alpha_j(y) = sum_m e_m V_m(y) - e_0
    over the upper half e of A_j's coefficients, with V_m(x + 1/x) =
    x^m + x^-m, so V_0 = 2, V_1 = y and V_(m+1) = y V_m - V_(m-1).
    """
    lucas = [[2, _node(i)] for i in range(k)]
    for v in lucas:
        while len(v) < k:
            v.append(v[1] * v[-1] - v[-2])
    alphas: list[list[int]] = [[] for _ in lucas]
    for j, A in zip(range(1, k + 1), _spline_rows((0,), 1)):
        e = A[j:]
        for v, a in zip(lucas, alphas):
            a.append(sum(map(mul, e, v)) - e[0])
    return alphas


def _node_table(family: str, k: int) -> list[list[int]]:
    """pi_0(y_i), ..., pi_k(y_i) at each node y_i, i = 0..k-1, in one pass of
    the scalar recurrence pi_n(y) = sum_j s_(n,j) alpha_j(y) pi_(n-j)(y), each
    order's weights s_(n,j) computed once for all nodes."""
    numbers, b = ((tangent_numbers(k), _tangent_binomial) if family == "fekete"
                  else (carlitz_numbers(k), _carlitz_binomial))
    alphas = _alphas(k)
    table = [[1] for _ in alphas]
    for n in range(1, k + 1):
        # s_(n,j), j = 1..n: the weight of alpha_j pi_(n-j) in pi_n (`_rows`)
        weights = [comb(2 * n - 1, 2 * j - 1) * max(2 * (n - j), 1) * b(n, j) * t
                   for j, t in enumerate(numbers[:n], 1)]
        for a, vals in zip(alphas, table):
            vals.append(sum(map(mul, weights, map(mul, a, reversed(vals)))))
    return table


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


def _check_order(family: str, name: str, n: int) -> None:
    # the rule of the recursion and its tables: family in FAMILIES, 1 <= n <= MAX_Q
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    _check_int(name, n, 1, MAX_Q)


def _rows(family: str, name: str, k: int, first: int = 1) -> list[tuple[int, ...]]:
    """Rows first..k of the family's triangular array, as tuples, from one node
    table of order k (`_node_table`), after the order rule (`_check_order`, k
    named name).

    Row n holds the x-coefficients of x^n pi_n(x + 1/x), (2n-1)! times the
    recursion polynomial of order n:  F_0 = G_0 = 1;
    F_2n = sum_j C(2n-1, 2j-1) T(j)/(2j-1)! A_j F_(2n-2j)  and
    G_n = sum_j C(n, j) C(n-1, j-1) C(j)/(2j-1)! A_j G_(n-j).  Scaled by (2n-1)!,
    the weight of A_j times (2n-2j-1)! F_(2n-2j) gains the integer factor
    (2n-1)!/((2j-1)! (2n-2j-1)!) = C(2n-1, 2j-1) max(2n-2j, 1), and in
    y = x + 1/x each term is alpha_j pi_(n-j).  That is linear in products of
    polynomials, so it runs at each integer node y_i; pi_n is interpolated
    from the nodes y_0..y_(n-1) by Newton divided differences (`_newton`),
    integers because pi_n has integer coefficients and the nodes are integers,
    then expanded back to powers of x (`_x_form`) and mirrored.  The row's
    middle (x^0) entry over (2n-1)! is the limit of order n (`_limit`).
    """
    _check_order(family, name, k)
    table = _node_table(family, k)
    rows = []
    for n in range(first, k + 1):
        half = _x_form(_newton([_node(i) for i in range(n)], [vals[n] for vals in table[:n]]))
        rows.append(half[:0:-1] + half)
    return rows


def _limit(row: tuple[int, ...]) -> Fraction:
    # F(q, q) and G(q, q) are the middle (x^0) entry of row q, of 2q-1 values, over (2q-1)!
    return Fraction(row[len(row) // 2], factorial(len(row)))


def fekete_limit_recursive(q: int) -> Fraction:
    """Limit of the normalized 2q-th power norm of Fekete polynomials, F(q, q)."""
    return _limit(_rows("fekete", "q", q, q)[0])


def galois_limit_recursive(q: int) -> Fraction:
    """Limit of the normalized 2q-th power norm of Galois polynomials, G(q, q)."""
    return _limit(_rows("galois", "q", q, q)[0])


def fekete_triangle_row(k: int) -> tuple[int, ...]:
    """The integers (2k-1)! F(k, m) for m = 1..2k-1, a palindromic tuple."""
    return _rows("fekete", "k", k, k)[0]


def galois_triangle_row(k: int) -> tuple[int, ...]:
    """The integers (2k-1)! G(k, m) for m = 1..2k-1, a palindromic tuple."""
    return _rows("galois", "k", k, k)[0]


def limit_table(family: str, qmax: int) -> dict[int, Fraction]:
    """{q: limit} for the family's limits at q = 1..qmax, from one node table."""
    return {q: _limit(row) for q, row in enumerate(_rows(family, "qmax", qmax), 1)}


def triangle_table(family: str, rows: int) -> list[tuple[int, ...]]:
    """Rows k = 1..rows of the family's triangular array, from one node table, as
    tuples: row k, at index k - 1, is the k-th `fekete_triangle_row` or
    `galois_triangle_row`."""
    return _rows(family, "rows", rows)


def _direct_sum(q: int, profiles, unit: int, weights) -> Fraction:
    """The sum over the (sizes, count) pairs of a profile stream of
    count * prod weights[N-1] * [x^q] prod E_N(x),
    with one factor per block of size unit * N and E_N the Eulerian polynomial
    (`eulerian_polynomial`).  count is the one formula of `partitions._profiles`;
    per profile, the composition sum factors as that x^q coefficient of the
    product, whose degree 2q - (number of blocks) is at least q.
    """
    from littlewood.ratpoly import poly_mul

    total = Fraction(0)
    for sizes, count in profiles:
        term, gen = Fraction(count), (1,)
        for size in sizes:
            N = size // unit
            term *= weights[N - 1]
            gen = poly_mul(gen, eulerian_polynomial(N))
        total += term * gen[q]
    return total


def fekete_limit_direct(q: int) -> Fraction:
    """Direct partition-sum form of the Fekete limit, over the even size
    profiles of a 2q-set, with weight T(N)/(2N-1)! per block of size 2N."""
    from littlewood.partitions import even_size_profiles

    _check_int("q", q, 1, DIRECT_QMAX)
    weights = [Fraction(t, factorial(2 * N - 1)) for N, t in enumerate(tangent_numbers(q), 1)]
    return _direct_sum(q, even_size_profiles(q), 2, weights)


def galois_limit_direct(q: int) -> Fraction:
    """Direct partition-sum form of the Galois limit, over the size profiles
    of a q-set, with weight C(N)/(N! (2N-1)!) per block of size N and the
    multinomial factor q!/prod(N_i!) of each partition: its q! is taken out
    of the sum and its 1/N! is in the weights."""
    from littlewood.partitions import galois_size_profiles

    _check_int("q", q, 1, DIRECT_QMAX)
    weights = [Fraction(c, factorial(N) * factorial(2 * N - 1))
               for N, c in enumerate(carlitz_numbers(q), 1)]
    return factorial(q) * _direct_sum(q, galois_size_profiles(q), 1, weights)


def check_shift(q: int, R) -> None:
    """Raise ValueError unless `shifted_fekete_limit(q, R)` is admitted:
    1 <= q <= SHIFTED_QMAX, R a rational by `littlewood._check_rational`, and,
    with R reduced to r/d in [0, 1/2), (2q)!/q! c^q d^(2q) admitted by
    `littlewood._check_digits`, with d^(2q) as its lower bound.  That product
    bounds both printed integers: the value's denominator divides c^q d^(2q)
    (`_shifted_values`), and phi_q(R) < (2q)!/q! as the 2q-th moment of a
    Rademacher sum with complex weights of square sum 1, whose real and
    imaginary parts Khintchine's inequality bounds by (2q-1)!! each.  The
    slowest admitted input, q = 16 at the largest d (128 digits), took
    6.8-9.6 s and 18-22 MB (2-vCPU x86-64, Python 3.11.7).
    """
    _check_int("q", q, 1, SHIFTED_QMAX)
    d = (_check_rational("R", R) % HALF).denominator
    _check_digits(f"phi_{q} at this shift ratio", 2 * q * (d.bit_length() - 1),
                  lambda: factorial(2 * q) // factorial(q) * _block_scale(q) ** q * d ** (2 * q))


def _factorial_valuation(n: int, p: int) -> int:
    v = 0
    while n:
        n //= p
        v += n
    return v


def _block_scale(q: int) -> int:
    """Least c such that (2N-1)! (2N)! divides c^N for every N <= q.

    Then c^N / ((2N-1)! (2N-P)! P!) is an integer for every block (N, P).
    """
    c = 1
    for p in range(2, 2 * q + 1):
        if _prime_factors(p) == [p]:
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
    come from the recurrence of `_spline_rows`, run for all nodes at once, and
    the value at a sits at m = f + a.  Only W_n[0] can vanish, when t = 0, so the
    nodes share e and len(coeffs) if they share f and whether t = 0 for every
    D.  Sharing f at every D is enough: where t = 0 at some nodes only, f
    differs at -D.  Otherwise the nodes straddle a breakpoint, and ValueError
    is raised.
    """
    K = len(numerators)
    tangents = tangent_numbers(q)
    blocks: list[dict] = [{} for _ in range(q + 1)]
    # a block has 2N elements, P of them above q and 2N - P at most q, so
    # |D| <= min(N, q - N)
    for D in range(-(q // 2), q // 2 + 1):
        fs, ts = zip(*[divmod(2 * r * D, d) for r in numerators])
        f = fs[0]
        if fs.count(f) < K:
            raise ValueError("the nodes straddle a breakpoint")
        for N, row in zip(range(1, q + 1), _spline_rows(ts, d)):
            P = N - D
            if not max(0, 2 * N - q) <= P <= min(2 * N, q):
                continue
            scale = N * d * tangents[N - 1] * (
                c**N // (factorial(2 * N - 1) * factorial(2 * N - P) * factorial(P))
            )
            # W_n[n] = (d - t) W_(n-1)[n-1] > 0 and W_n[0] = t^n; one tuple
            # of K node values per power of x
            lo = 0 if ts[0] else 1
            values = map(mul, repeat(scale), row[lo * K:])
            blocks[N][P] = (lo - f + N, list(zip(*[values] * K)))
    return blocks


def _shifted_values(q: int, numerators, d: int) -> tuple[list[int], int]:
    """(values, den) with phi_q(r_i/d) = values[i] / den for the r_i in
    numerators, nodes in [0, 1/2) that share one open interval between
    breakpoints (`_shifted_blocks`), in one pass: values are the integers
    q! [u^q x^(2q)] S_q, and den = c^q d^(2q) (`_block_scale`) is their one
    denominator, with no fraction reduced.

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
    return [factorial(q) * t for t in series[q][q][1]], c**q * d ** (2 * q)


def shifted_fekete_limit(q: int, R) -> Fraction:
    """Limit of the normalized 2q-th power norm of shifted Fekete polynomials
    whose shift ratio tends to R; exact for any rational R admitted by
    `check_shift` (q <= 16, and a value that prints within the int/str limit).

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
    check_shift(q, R)
    R = Fraction(R) % HALF
    (value,), den = _shifted_values(q, [R.numerator], R.denominator)
    return Fraction(value, den)


def _phi_quarter(q: int) -> PiecewisePoly:
    """phi_q on [0, 1/4], exactly, for an admitted q.

    Every block of every even block profile contributes an Eulerian value at
    2D R + a - 1, D = N-P, a polynomial in R of degree 2N-1 between the points
    where its argument is an integer, and a constant when D = 0.  The D of a
    profile's blocks sum to 0, so none or at least two are nonzero, and each
    term has degree at most 2q-2; so phi_q is a polynomial of degree at most
    2q-2 between breakpoints R = j/(2D), 1 <= D <= q/2 (`_shifted_blocks`
    bounds |D| by min(N, q-N)).  On each interval [a, b] between these
    candidates in [0, 1/4], 2q exact values at equally spaced interior
    rationals r/d, s apart, come from one pass of `_shifted_values` over the
    common denominator d, as integers over its one denominator den.  Times
    m = (2q-1)! s^(2q-1), they are interpolated in r by integer divided
    differences (`_newton`); the (2q-1)-th divided difference must vanish, or
    ArithmeticError is raised, and the rest, with r = R d, give the piece
    there, coefficient i being coeffs[i] d^i / (den m).  Equal neighbours then
    merge, so only true breakpoints remain.
    """
    from littlewood.piecewise import PiecewisePoly

    breaks = sorted({Fraction(0), HALF / 2} | {
        Fraction(j, 2 * D) for D in range(1, q // 2 + 1) for j in range(D // 2 + 1)
    })
    pieces = []
    for a, b in zip(breaks, breaks[1:]):
        # 2q equally spaced interior nodes r/d, s apart
        xs = [a + (b - a) * k / (2 * q + 1) for k in range(1, 2 * q + 1)]
        d = lcm(*(x.denominator for x in xs))
        rs = [x.numerator * (d // x.denominator) for x in xs]
        ys, den = _shifted_values(q, rs, d)
        # times m, every divided difference of order <= 2q-1 is an integer
        m = factorial(2 * q - 1) * (rs[1] - rs[0]) ** (2 * q - 1)
        coeffs = _newton(rs, [y * m for y in ys])
        if coeffs[-1]:
            raise ArithmeticError(f"phi_{q} near {xs[-1]} is not of degree < {2 * q - 1}")
        # den m phi_q(R) = sum_i coeffs[i] (R d)^i
        pieces.append(tuple(Fraction(c * d**i, den * m) for i, c in enumerate(coeffs[:-1])))
    return PiecewisePoly(breaks, pieces)


def phi_piecewise(q: int) -> PiecewisePoly:
    """The shift-ratio limit function of order q on [0, 1/2], exactly.

    It is `_phi_quarter(q)` on [0, 1/4], mirrored by R -> 1/2 - R, under which
    phi_q is invariant: the piece on [1/2 - b, 1/2 - a] is p(1/2 - R) for the
    piece p on [a, b], that is p shifted by 1/2 with odd coefficients negated.
    Equal neighbours then merge, so only true breakpoints remain.
    """
    from littlewood.piecewise import PiecewisePoly
    from littlewood.ratpoly import poly_shift

    _check_int("q", q, 1, PHI_PIECES_QMAX)
    f = _phi_quarter(q)
    mirror = [tuple(c * (-1) ** i for i, c in enumerate(poly_shift(p, HALF))) for p in f.pieces]
    return PiecewisePoly(f.breakpoints + tuple(HALF - b for b in f.breakpoints[-2::-1]),
                         f.pieces + tuple(mirror[::-1]))


def phi_min(q: int, eps) -> MinimizeResult:
    """Certified minimum of the order-q shift-limit function on [0, 1/2], as
    `pw_minimize`'s result on [0, 1/4] (`_phi_quarter`) with its value rounded
    outward.

    [0, 1/4] suffices, as phi_q(R) = phi_q(1/2 - R); the mirror of the argmin
    is a minimizer too.  competitors lists the other candidates in [0, 1/4]
    whose value enclosures overlap the minimum's (uniqueness of the minimizer
    is evidence, never an assumption); the command line prints
    bool(competitors) as alt_flag.  A value enclosure wider than a point is
    rounded outward to multiples of 2^-k, k = 2 ceil(log2(1/eps)) + 32: still
    a certificate, at most eps^2 2^-31 wider.  As phi_q < (2q)!/q! (see
    `check_shift`), its ends then have numerators and denominators below
    2^k (2q)!/q!, and eps is refused before any work unless
    `littlewood._check_digits` admits that bound, so every admitted result
    prints.
    """
    from littlewood.piecewise import _check_eps, pw_minimize

    _check_int("q", q, 2, PHI_PIECES_QMAX)  # phi_1 is constant
    eps = _check_eps(eps)
    k = 2 * (ceil(1 / eps) - 1).bit_length() + 32
    _check_digits(f"phi_{q} minimum at this eps", k,
                  lambda: 2**k * factorial(2 * q) // factorial(q))
    res = pw_minimize(_phi_quarter(q), eps)
    lower, upper = res.value
    if lower < upper:
        lower, upper = Fraction(floor(lower * 2**k), 2**k), Fraction(ceil(upper * 2**k), 2**k)
    return res._replace(value=(lower, upper))
