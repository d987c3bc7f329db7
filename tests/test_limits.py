"""Tests for the limit recursions, direct partition sums, triangles, and phi."""
import math
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littlewood.partitions import enumerate_set_partitions, even_block_profiles
from littlewood.limits import (
    SHIFTED_DIGITS,
    SHIFTED_QMAX,
    fekete_limit_direct,
    fekete_limit_recursive,
    fekete_triangle_row,
    galois_limit_direct,
    galois_limit_recursive,
    galois_triangle_row,
    limit_table,
    phi_min,
    phi_piecewise,
    shifted_fekete_limit,
    shifted_limit_error,
    triangle_table,
)
from littlewood import limits
from littlewood.ratpoly import poly_eval
from littlewood.special_numbers import (
    _carlitz,
    _tangent,
    carlitz_numbers,
    eulerian_general,
    eulerian_polynomial,
    tangent_numbers,
)

FEKETE_LIMITS = [
    Fraction(1),
    Fraction(5, 3),
    Fraction(19, 5),
    Fraction(3469, 315),
    Fraction(21565, 567),
    Fraction(7760593, 51975),
    Fraction(12478099, 19305),
    Fraction(643983856759, 212837625),
]

GALOIS_LIMITS = [
    Fraction(1),
    Fraction(4, 3),
    Fraction(11, 5),
    Fraction(92, 21),
    Fraction(15481, 1512),
    Fraction(411913, 15120),
    Fraction(2482927, 30888),
    Fraction(4181926481, 16216200),
]

PHI_QUARTER = [
    Fraction(1),
    Fraction(7, 6),
    Fraction(31, 20),
    Fraction(653, 280),
    Fraction(71735, 18144),
    Fraction(24880549, 3326400),
    Fraction(72207143, 4633200),
    Fraction(960901090937, 27243216000),
]

FEKETE_ROWS = {
    1: (1,),
    2: (-2, 10, -2),
    3: (16, -184, 456, -184, 16),
    4: (-272, 5776, -30736, 55504, -30736, 5776, -272),
}

GALOIS_ROWS = {
    1: (1,),
    2: (-1, 8, -1),
    3: (4, -76, 264, -76, 4),
    4: (-33, 1248, -9735, 22080, -9735, 1248, -33),
}


def test_published_fekete_limits():
    assert [fekete_limit_recursive(q) for q in range(1, 9)] == FEKETE_LIMITS


def test_published_galois_limits():
    assert [galois_limit_recursive(q) for q in range(1, 9)] == GALOIS_LIMITS


def test_triangle_rows_published():
    for k, row in FEKETE_ROWS.items():
        assert fekete_triangle_row(k).values == row
    for k, row in GALOIS_ROWS.items():
        assert galois_triangle_row(k).values == row
    for family, rows in (("fekete", FEKETE_ROWS), ("galois", GALOIS_ROWS)):
        assert triangle_table(family, len(rows)) == [(k, rows[k]) for k in sorted(rows)]


def test_triangle_invariants():
    tangents = tangent_numbers(8)
    carlitzs = carlitz_numbers(8)
    for k in range(1, 9):
        fr = fekete_triangle_row(k).values
        gr = galois_triangle_row(k).values
        assert fr == fr[::-1]
        assert gr == gr[::-1]
        assert fr[0] == tangents[k - 1]
        assert gr[0] == carlitzs[k - 1]
        fact = math.factorial(2 * k - 1)
        assert Fraction(fr[k - 1], fact) == fekete_limit_recursive(k)
        assert Fraction(gr[k - 1], fact) == galois_limit_recursive(k)


# ---------------------------------------------------------------------------
# the recursion in coefficient form (oracle only): products of polynomials
# in y = x + 1/x, where production evaluates them at integer nodes


def _y_form(half):
    """pi with sum_i pi_i (x + 1/x)^i = half[0] + sum_m half[m] (x^m + x^-m).

    As (x + 1/x)^i = sum_t C(i, t) x^(i-2t), half[m] = sum_t pi_(m+2t) C(m+2t, t)
    (`limits._x_form`); this solves for pi from the top degree down.
    """
    pi = list(half)
    for i in range(len(pi) - 3, -1, -1):
        pi[i] -= sum(pi[m] * math.comb(m, (m - i) // 2) for m in range(i + 2, len(pi), 2))
    return tuple(pi)


@lru_cache(maxsize=None)
def _eulerian_y(j):
    # A_j(x) = x^j alpha_j(x + 1/x) with deg alpha_j = j - 1
    return _y_form(eulerian_polynomial(j)[j:])


@lru_cache(maxsize=None)
def _coefficient_recursion(family, k):
    # pi_k = sum_j s_(k,j) alpha_j pi_(k-j), expanded as polynomial products;
    # called in increasing k, so the cache keeps the stack shallow
    if k == 0:
        return (1,)
    acc = [0] * k
    for j in range(1, k + 1):
        s = math.comb(2 * k - 1, 2 * j - 1) * max(2 * (k - j), 1)
        if family == "fekete":
            s *= math.comb(2 * k - 1, 2 * j - 1) * _tangent(j)
        else:
            s *= math.comb(k, j) * math.comb(k - 1, j - 1) * _carlitz(j)
        a, p = sorted((_eulerian_y(j), _coefficient_recursion(family, k - j)), key=len)
        for i, av in enumerate(a):
            acc[i:i + len(p)] = map(add, acc[i:i + len(p)], map(mul, repeat(s * av), p))
    return tuple(acc)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=30))
@example([0])
@example([5, -2, 0, 7])
def test_y_form_round_trip(half):
    # a palindromic x-coefficient vector, written in y = x + 1/x and back
    full = half[:0:-1] + half
    centre = full[len(full) // 2:]
    pi = _y_form(centre)
    assert len(pi) == len(centre)
    assert limits._x_form(pi) == tuple(centre)
    # sum_i pi_i (x + 1/x)^i at x = 2, times 2^d, against the x-form at x = 2
    d = len(half) - 1
    lhs = sum(c * 5**i * 2 ** (d - i) for i, c in enumerate(pi))
    rhs = sum(c * 2**m for m, c in enumerate(full))
    assert lhs == rhs


def test_eulerian_y_form_expands_back():
    for j in range(1, 49):
        alpha = _eulerian_y(j)
        assert len(alpha) == j
        assert limits._x_form(alpha) == eulerian_polynomial(j)[j:], j
        # production evaluates alpha_j at the nodes without its y-form
        for i in range(j):
            y = limits._node(i)
            limits._values("galois", i, j)
            alphas = limits._node_values["galois", i][1]
            assert alphas[j - 1] == sum(c * y**m for m, c in enumerate(alpha)), (i, j)


def test_value_route_matches_coefficient_recursion():
    for family in ("fekete", "galois"):
        for q in range(1, 73):
            pi = _coefficient_recursion(family, q)
            centre = sum(pi[m] * math.comb(m, m // 2) for m in range(0, q, 2))
            assert limits._limit(family, q) == Fraction(centre, math.factorial(2 * q - 1))
            half = limits._x_form(pi)
            assert limits._triangle_row(family, q).values == half[:0:-1] + half, (family, q)


def test_recursions_need_no_deep_stack():
    # the recursion runs as loops, so its stack depth does not grow with q
    script = (
        "import sys\n"
        "from littlewood.limits import fekete_limit_recursive, galois_triangle_row\n"
        "sys.setrecursionlimit(80)\n"
        "fekete_limit_recursive(70)\n"
        "galois_triangle_row(70)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_triangle_rows_palindromic():
    for k in range(1, 17):
        for row in (fekete_triangle_row(k), galois_triangle_row(k)):
            assert row.k == k and len(row.values) == 2 * k - 1
            assert row.values == row.values[::-1], k


def test_direct_equals_recursive():
    for q in range(1, 7):
        assert fekete_limit_direct(q) == fekete_limit_recursive(q)
        assert galois_limit_direct(q) == galois_limit_recursive(q)


def test_direct_hand_values():
    assert fekete_limit_direct(2) == 3 + Fraction(-2, 6) * 4
    assert galois_limit_direct(2) == 2 + Fraction(-1, 6) * 4


# ---------------------------------------------------------------------------
# brute partition-first evaluators (oracle only, q <= 4): walk the raw set
# partitions instead of the multiplicity-weighted profiles


def _coeff(poly, m):
    return poly[m] if 0 <= m < len(poly) else Fraction(0)


def _brute_fekete_limit(q):
    from littlewood.ratpoly import poly_mul
    from littlewood.special_numbers import eulerian_polynomial, tangent_numbers

    tangents = tangent_numbers(q)
    total = Fraction(0)
    for part in enumerate_set_partitions(2 * q):
        if any(len(b) % 2 for b in part):
            continue
        weight = Fraction(1)
        gen = (Fraction(1),)
        for block in part:
            N = len(block) // 2
            weight *= Fraction(tangents[N - 1], math.factorial(2 * N - 1))
            gen = poly_mul(gen, eulerian_polynomial(N))
        total += weight * _coeff(gen, q)
    return total


def _brute_galois_limit(q):
    from littlewood.ratpoly import poly_mul
    from littlewood.special_numbers import carlitz_numbers, eulerian_polynomial

    carlitzs = carlitz_numbers(q)
    total = Fraction(0)
    for part in enumerate_set_partitions(q):
        weight = Fraction(math.factorial(q))
        gen = (Fraction(1),)
        for block in part:
            N = len(block)
            weight *= Fraction(
                carlitzs[N - 1], math.factorial(N) * math.factorial(2 * N - 1)
            )
            gen = poly_mul(gen, eulerian_polynomial(N))
        total += weight * _coeff(gen, q)
    return total


def _brute_shifted_limit(q, R):
    from littlewood.special_numbers import eulerian_general, tangent_numbers

    tangents = tangent_numbers(q)
    total = Fraction(0)
    for part in enumerate_set_partitions(2 * q):
        if any(len(b) % 2 for b in part):
            continue
        weight = Fraction(1)
        conv = {0: Fraction(1)}
        for block in part:
            N = len(block) // 2
            P = sum(1 for e in block if e > q)
            weight *= Fraction(tangents[N - 1], math.factorial(2 * N - 1))
            shift = 2 * Fraction(R) * (N - P)
            nxt = {}
            for a in range(math.floor(-shift) + 1, math.ceil(2 * N - shift)):
                v = eulerian_general(2 * N - 1, shift + a - 1)
                if v:
                    for e, c in conv.items():
                        nxt[e + a] = nxt.get(e + a, Fraction(0)) + c * v
            conv = nxt
        total += weight * conv.get(q, Fraction(0))
    return total


def test_partition_first_oracles():
    for q in range(1, 5):
        assert _brute_fekete_limit(q) == fekete_limit_direct(q)
        assert _brute_galois_limit(q) == galois_limit_direct(q)
    for q in (1, 2, 3):
        for R in (Fraction(0), Fraction(1, 4), Fraction(3, 16), Fraction(-2, 7)):
            assert _brute_shifted_limit(q, R) == shifted_fekete_limit(q, R), (q, R)


def test_limit_table():
    table = limit_table("fekete", 3)
    assert table.entries == {1: Fraction(1), 2: Fraction(5, 3), 3: Fraction(19, 5)}
    assert limit_table("galois", 1).entries[1] == 1
    with pytest.raises(ValueError):
        limit_table("both", 2)


def test_monotone_growth():
    for limits in (FEKETE_LIMITS, GALOIS_LIMITS):
        assert all(a < b for a, b in zip(limits, limits[1:]))


# ---------------------------------------------------------------------------
# shifted limits


def _profile_shifted_limit(q, R):
    # the former production route: per even block profile, each block
    # contributes Eulerian values at 2R(N-P) + a - 1 over the a where they can
    # be nonzero, and the composition sum is a sparse convolution over the
    # a-exponents, read off at total exponent q
    R = Fraction(R)
    tangent = tangent_numbers(q)
    total = Fraction(0)
    for prof in even_block_profiles(q):
        weight = Fraction(prof.count)
        conv = {0: Fraction(1)}
        for N, P in prof.entries:
            weight *= Fraction(tangent[N - 1], math.factorial(2 * N - 1))
            shift = 2 * R * (N - P)
            nxt = {}
            for a in range(math.floor(-shift) + 1, math.ceil(2 * N - shift)):
                v = eulerian_general(2 * N - 1, shift + a - 1)
                if v:
                    for e, c in conv.items():
                        nxt[e + a] = nxt.get(e + a, Fraction(0)) + c * v
            conv = nxt
        total += weight * conv.get(q, Fraction(0))
    return total


ORACLE_RATIOS = [
    Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(2, 7), Fraction(1, 2),
    Fraction(5, 4), Fraction(-3, 10), Fraction(-9, 7), Fraction(13, 6),
    Fraction(7, 1000003), Fraction(10**40 + 1, 3 * 10**40),
]


def test_shifted_matches_profile_oracle():
    for q in range(1, 9):
        for R in ORACLE_RATIOS:
            assert shifted_fekete_limit(q, R) == _profile_shifted_limit(q, R), (q, R)


def test_shifted_matches_profile_oracle_q9_q10():
    for q, R in ((9, Fraction(1, 4)), (9, Fraction(-2, 5)), (10, Fraction(3, 7))):
        assert shifted_fekete_limit(q, R) == _profile_shifted_limit(q, R), (q, R)


def test_shifted_reduces_to_fekete_at_zero():
    for q in range(1, SHIFTED_QMAX + 1):
        assert shifted_fekete_limit(q, 0) == fekete_limit_recursive(q), q


def test_shifted_quarter_values():
    assert [shifted_fekete_limit(q, Fraction(1, 4)) for q in range(1, 9)] == PHI_QUARTER


def test_shifted_symmetries():
    for q in range(1, 6):
        for num in range(8):
            R = Fraction(num, 16)
            v = shifted_fekete_limit(q, R)
            assert shifted_fekete_limit(q, R + Fraction(1, 2)) == v
            assert shifted_fekete_limit(q, -R) == v


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(1, 12),
    R=st.fractions(max_denominator=10**12).filter(lambda r: abs(r) < 100),
)
@example(q=12, R=Fraction(1, 4))
@example(q=7, R=Fraction(-7, 2))
def test_shifted_symmetries_property(q, R):
    v = shifted_fekete_limit(q, R)
    assert shifted_fekete_limit(q, -R) == v
    assert shifted_fekete_limit(q, R + Fraction(1, 2)) == v


def test_shifted_preconditions():
    for q in (0, SHIFTED_QMAX + 1):
        with pytest.raises(ValueError, match="1 <= q <= 16"):
            shifted_fekete_limit(q, 0)
    # q * (digits of the denominator) <= SHIFTED_DIGITS
    for q in (1, 8, SHIFTED_QMAX):
        digits = SHIFTED_DIGITS // q
        assert shifted_limit_error(q, Fraction(1, 10**digits - 1)) is None
        with pytest.raises(ValueError, match=f"exceeds {digits} digits"):
            shifted_fekete_limit(q, Fraction(-3, 10**digits))


def test_shifted_large_denominators():
    # the largest denominator the rule admits at q = 8: the period and the
    # reflection reach R through different reductions into [0, 1/2)
    d = 10 ** (SHIFTED_DIGITS // 8) - 1
    R = Fraction(d // 3 - 1, d)
    v = shifted_fekete_limit(8, R)
    assert shifted_fekete_limit(8, -R) == v
    assert shifted_fekete_limit(8, R + 3) == v
    R = Fraction(1, 10**124 + 7)
    assert shifted_fekete_limit(5, R) == _profile_shifted_limit(5, R)


# ---------------------------------------------------------------------------
# phi as an exact piecewise polynomial

# independent expansion helpers (kept local so the expected values do not
# flow through the code under test)


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += Fraction(ca) * Fraction(cb)
    return out


def _add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += Fraction(c)
    for i, c in enumerate(b):
        out[i] += Fraction(c)
    return out


def _scale(a, s):
    return [Fraction(c) * Fraction(s) for c in a]


def _compose_half_minus_x(a):
    # p(1/2 - x) expanded
    acc = [Fraction(0)]
    lin = [Fraction(1, 2), Fraction(-1)]
    for c in reversed(a):
        acc = _add(_mul(acc, lin), [Fraction(c)])
    return acc


SQUARE_4X_MINUS_1 = [1, -8, 16]  # (4x-1)^2


def _phi2_closed_form():
    return _add([Fraction(7, 6)], _scale(SQUARE_4X_MINUS_1, Fraction(1, 2)))


def _phi3_closed_form():
    inner = _mul(SQUARE_4X_MINUS_1, [3, -8, 16])
    return _add([Fraction(31, 20)], _scale(inner, Fraction(3, 4)))


def _phi4_closed_form():
    quartic = [625, -4216, 20208, -52736, 60416]
    inner = _mul(SQUARE_4X_MINUS_1, quartic)
    left = _add([Fraction(653, 280)], _scale(inner, Fraction(1, 72)))
    right = _compose_half_minus_x(left)
    return left, right


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def test_phi2_closed_form():
    f = phi_piecewise(2)
    assert f.breakpoints == (0, Fraction(1, 2))
    assert f.pieces == (_trim(_phi2_closed_form()),)


def test_phi3_closed_form():
    f = phi_piecewise(3)
    assert f.breakpoints == (0, Fraction(1, 2))
    assert f.pieces == (_trim(_phi3_closed_form()),)


def test_phi4_closed_form():
    f = phi_piecewise(4)
    left, right = _phi4_closed_form()
    assert f.breakpoints == (0, Fraction(1, 4), Fraction(1, 2))
    assert f.pieces == (_trim(left), _trim(right))


def test_phi_matches_pointwise_evaluation():
    rng = random.Random(20)
    for q in range(1, 7):
        f = phi_piecewise(q)
        for _ in range(20):
            r = Fraction(rng.randint(0, 2**16), 2**17)
            assert f.evaluate(r) == shifted_fekete_limit(q, r), (q, r)


def test_phi_pieces_match_profile_oracle():
    # 2q points strictly inside each piece determine it (degree <= 2q-1); the
    # 1009 in their denominators keeps them off the interpolation nodes,
    # whose denominators have only primes below 2q+3
    for q in range(1, 7):
        f = phi_piecewise(q)
        for i, piece in enumerate(f.pieces):
            lo, hi = f.breakpoints[i], f.breakpoints[i + 1]
            for k in range(1, 2 * q + 1):
                x = lo + (hi - lo) * (Fraction(2 * k - 1, 4 * q) + Fraction(1, 1009))
                assert lo < x < hi
                assert poly_eval(piece, x) == _profile_shifted_limit(q, x), (q, x)


def test_phi_piecewise_check_node_fires(monkeypatch):
    exact = limits._shifted_values
    calls = []

    def perturbed(q, rs, d):
        # one wrong interpolation value moves the piece off the check node
        calls.append(rs)
        ys = exact(q, rs, d)
        if len(calls) == 1:
            ys[2] += 1
        return ys

    phi_piecewise.cache_clear()
    monkeypatch.setattr(limits, "_shifted_values", perturbed)
    try:
        with pytest.raises(ArithmeticError):
            phi_piecewise(4)
    finally:
        phi_piecewise.cache_clear()


def _candidate_breakpoints(q):
    return sorted({Fraction(0), Fraction(1, 4), Fraction(1, 2)} | {
        Fraction(j, 2 * D) for D in range(1, q // 2 + 1) for j in range(D + 1)
    })


def _candidate_intervals_below_quarter(q):
    return len([b for b in _candidate_breakpoints(q) if 0 < b <= Fraction(1, 4)])


def test_phi_piecewise_evaluates_only_below_quarter(monkeypatch):
    exact = limits._shifted_values
    nodes = []

    def counted(q, rs, d):
        for r in rs:
            assert 0 < Fraction(r, d) < Fraction(1, 4)
        nodes.extend(Fraction(r, d) for r in rs)
        return exact(q, rs, d)

    monkeypatch.setattr(limits, "_shifted_values", counted)
    try:
        for q in range(1, 7):
            phi_piecewise.cache_clear()
            nodes.clear()
            phi_piecewise(q)
            assert len(nodes) == _candidate_intervals_below_quarter(q) * (2 * q + 1), q
        assert len(nodes) == 26
    finally:
        phi_piecewise.cache_clear()


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 5), data=st.data())
def test_shifted_values_match_pointwise(q, data):
    # random interior nodes of one interval between breakpoints, over one
    # common denominator
    breaks = _candidate_breakpoints(q)
    i = data.draw(st.integers(0, len(breaks) - 2), label="interval")
    a, b = breaks[i], breaks[i + 1]
    d = math.lcm(a.denominator, b.denominator) * data.draw(st.integers(2, 60), label="m")
    interior = range(int(a * d) + 1, int(b * d))
    rs = data.draw(st.lists(st.sampled_from(interior), min_size=1, max_size=7, unique=True))
    values = limits._shifted_values(q, rs, d)
    assert len(values) == len(rs)
    for r, v in zip(rs, values):
        R = Fraction(r, d)
        assert v == shifted_fekete_limit(q, R) == _profile_shifted_limit(q, R), (q, R)


def test_shifted_values_refuse_straddling_nodes():
    # 0 is a breakpoint for q >= 2 (D = 1), 1/4 for q >= 4 (D = 2)
    for q in range(2, 6):
        with pytest.raises(ValueError, match="straddle"):
            limits._shifted_values(q, [0, 1], 8)
    for q in (4, 5):
        for rs in ([1, 3], [2, 3], [1, 2]):
            with pytest.raises(ValueError, match="straddle"):
                limits._shifted_values(q, rs, 8)
    # at q = 1 no block moves with R, and at q = 3 only 0 and 1/2 are breakpoints
    assert limits._shifted_values(1, [0, 1], 8) == [1, 1]
    assert limits._shifted_values(3, [1, 2, 3], 8) == [
        shifted_fekete_limit(3, Fraction(r, 8)) for r in (1, 2, 3)
    ]


def test_phi_pieces_mirror():
    # phi_q(R) = phi_q(1/2 - R): the piece on [1/2 - b, 1/2 - a] is the one on
    # [a, b] at R -> 1/2 - R; 2q+1 points determine a polynomial of degree <= 2q
    half = Fraction(1, 2)
    for q in range(1, 7):
        f = phi_piecewise(q)
        bps, n = f.breakpoints, len(f.pieces)
        assert all(x + y == half for x, y in zip(bps, bps[::-1])), q
        for i, piece in enumerate(f.pieces):
            lo, hi = bps[i], bps[i + 1]
            for k in range(1, 2 * q + 2):
                x = lo + (hi - lo) * Fraction(k, 2 * q + 3)
                assert poly_eval(piece, x) == poly_eval(f.pieces[n - 1 - i], half - x), (q, x)


def test_phi1_constant():
    f = phi_piecewise(1)
    assert f.evaluate(0) == f.evaluate(Fraction(1, 3)) == 1


def test_phi_min():
    eps = Fraction(1, 1 << 20)
    for q in (2, 3, 4):
        res = phi_min(q, eps)
        assert res.argmin[0] <= Fraction(1, 4) <= res.argmin[1]
        assert res.argmin[1] - res.argmin[0] <= eps
        assert res.value == (PHI_QUARTER[q - 1], PHI_QUARTER[q - 1])
        assert res.alt_flag is False


def test_refusals_come_before_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a refused request reached the recursion or the pieces")

    monkeypatch.setattr(limits, "_values", never)
    monkeypatch.setattr(limits, "phi_piecewise", never)
    for call, reason in (
        (lambda: limit_table("fekete", 129), "qmax 129 out of range 1..128"),
        (lambda: fekete_limit_recursive(129), "q 129 out of range"),
        (lambda: galois_limit_recursive(0), "q 0 out of range"),
        (lambda: galois_triangle_row(129), "k 129 out of range"),
        (lambda: triangle_table("galois", 129), "rows 129 out of range"),
        (lambda: triangle_table("fekete", 0), "rows 0 out of range"),
        (lambda: triangle_table("both", 2), "unknown family"),
        (lambda: phi_min(3, 0), "eps must be positive"),
        (lambda: phi_min(3, Fraction(-1, 4)), "eps must be positive"),
    ):
        with pytest.raises(ValueError, match=reason):
            call()


def test_phi_min_preconditions():
    with pytest.raises(ValueError):
        phi_min(1, Fraction(1, 16))
    with pytest.raises(ValueError):
        phi_piecewise(7)
