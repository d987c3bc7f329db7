"""Tests for exact piecewise polynomials and their minimization."""
import hashlib
import sys
from bisect import bisect_right
from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from int_limit import int_max_str_digits
from littlewood import limits, piecewise, sturm
from littlewood.limits import _newton, phi_piecewise, shifted_fekete_limit
from littlewood.piecewise import PiecewisePoly, _segment_bounds, pw_minimize
from littlewood.ratpoly import poly_derivative, poly_eval, poly_mul, poly_shift
from littlewood.sturm import _isolate, squarefree_part

X = sympy.Symbol("x")


def _rational(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def _sympy_poly(p):
    return sympy.Poly([_rational(c) for c in reversed(p)], X)

# E(1, x) as a function of a real x: the hat x+1 on [-1, 0), 1-x on [0, 1)
HAT = PiecewisePoly((-1, 0, 1), ((1, 1), (1, -1)))


def test_canonicalization_idempotent():
    f = PiecewisePoly((0, Fraction(1, 4), Fraction(1, 2)), ((1, 2, 0), (3, -1)))
    assert f.pieces == ((1, 2), (3, -1))
    assert PiecewisePoly(f.breakpoints, f.pieces) == f
    assert PiecewisePoly(HAT.breakpoints, HAT.pieces) == HAT
    # adjacent equal pieces merge; zero pieces stay
    messy = PiecewisePoly((0, 1, 2, 3, 4), ((), (1, 2), (1, 2), ()))
    assert messy.breakpoints == (0, 1, 3, 4)
    assert messy.pieces == ((), (1, 2), ())


def test_evaluate_edges():
    assert HAT.evaluate(Fraction(-1, 2)) == Fraction(1, 2)
    assert HAT.evaluate(0) == 1
    assert HAT.evaluate(1) == 0
    assert HAT.evaluate(Fraction(-3, 2)) == HAT.evaluate(2) == 0


def test_invalid_construction():
    with pytest.raises(ValueError):
        PiecewisePoly((0, 0), ((1,),))
    with pytest.raises(ValueError):
        PiecewisePoly((0, 1), ((1,), (2,)))


# few distinct pieces, so runs of equal neighbours are common; () and (0,), and
# (1, -2) and (1, -2, 0), are equal pieces written differently
_RUN_PIECES = st.sampled_from([(), (0,), (1, -2), (1, -2, 0), (Fraction(1, 3), 0, 2)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=30),
                min_size=2, max_size=12, unique=True), st.data())
def test_merge_keeps_run_starts_and_the_half_open_rule(points, data):
    bps = sorted(points)
    pieces = data.draw(st.lists(_RUN_PIECES, min_size=len(bps) - 1, max_size=len(bps) - 1))
    f = PiecewisePoly(bps, pieces)
    assert all(a != b for a, b in zip(f.pieces, f.pieces[1:]))
    assert set(f.breakpoints) <= set(bps)
    for x in bps + [(a + b) / 2 for a, b in zip(bps, bps[1:])]:
        # the last input piece that starts at or before x; b_k takes the last piece
        i = max(j for j in range(len(pieces)) if bps[j] <= x)
        assert f.evaluate(x) == poly_eval(pieces[i], x), x
    assert f.evaluate(bps[0] - 1) == f.evaluate(bps[-1] + 1) == 0


def test_newton_recovers_integer_polynomial():
    # the recursion's nodes 0, 1, -1, 2, -2, 3 are not monotone
    p = (-3, 0, 5, 7, 0, -2)
    xs = [0, 1, -1, 2, -2, 3]
    assert _newton(xs, [poly_eval(p, x) for x in xs]) == p
    # extra nodes on a lower-degree polynomial give zero top coefficients
    assert _newton(xs, [poly_eval(p[:3], x) for x in xs]) == p[:3] + (0, 0, 0)
    assert _newton(xs, [0] * len(xs)) == (0,) * len(xs)
    assert _newton([4], [9]) == (9,)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-50, 50),
    st.integers(-7, 7).filter(bool),
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9),
)
def test_newton_scaled_equally_spaced_data(x0, s, data):
    # any integer data at m nodes s apart, scaled by (m-1)! s^(m-1), has
    # integer divided differences, so it is reproduced exactly
    m = len(data)
    xs = [x0 + s * i for i in range(m)]
    scale = factorial(m - 1) * s ** (m - 1)
    ys = [scale * y for y in data]
    coeffs = _newton(xs, ys)
    assert len(coeffs) == m
    assert [poly_eval(coeffs, x) for x in xs] == ys


_small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=30)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-100, 100), _small_fractions), max_size=10),
    st.integers(-50, 50),
    _small_fractions,
    _small_fractions,
)
def test_poly_shift_matches_evaluation(a, n, c, x):
    for shift in (n, c):
        shifted = poly_shift(a, shift)
        assert len(shifted) == len(a)
        assert poly_eval(shifted, x) == poly_eval(a, x + shift)
    # the integer map to [0, 1], on [c, x] or [x, c] and on the point c
    for lo, hi in ((min(c, x), max(c, x)), (c, c)):
        s, coeffs = sturm._on_unit(a, lo, hi)
        assert s > 0 and all(type(ci) is int for ci in coeffs)
        for t in (0, Fraction(1, 2), 1):
            assert poly_eval(coeffs, t) / s == poly_eval(a, lo + (hi - lo) * t)


def test_minimize_perfect_square():
    f = PiecewisePoly((0, Fraction(1, 2)), ((1, -8, 16),))  # (4x-1)^2
    res = pw_minimize(f, Fraction(1, 1024))
    assert res.argmin == (Fraction(1, 4), Fraction(1, 4))
    assert res.value == (0, 0)
    assert res.competitors == ()


def test_minimize_irrational_critical_point():
    # x^3 - 2x on [0, 2]: minimum at sqrt(2/3), irrational
    f = PiecewisePoly((0, 2), ((0, -2, 0, 1),))
    eps = Fraction(1, 1 << 16)
    res = pw_minimize(f, eps)
    u, v = res.argmin
    assert v - u <= eps
    # sympy's root count: the derivative has exactly one root in the enclosure
    deriv = (-2, 0, 3)
    assert _sympy_poly(deriv).count_roots(_rational(u), _rational(v)) == 1
    # sign change of the derivative across the enclosure
    assert poly_eval(deriv, u) < 0 < poly_eval(deriv, v)
    lo, hi = res.value
    assert lo <= hi
    # true minimum value is -(4/3) sqrt(2/3)
    true_min = -(4 / 3) * (2 / 3) ** 0.5
    assert float(lo) - 1e-9 <= true_min <= float(hi) + 1e-9


def test_minimize_bounds_sound():
    # E(2, x) E(2, 1-x), with E(2, .) the Eulerian spline (x+1)^2, 1+2x-2x^2,
    # (x-2)^2 on [-1, 0), [0, 1), [1, 2): competing shapes across pieces, with
    # the minimum 0 at both ends of the domain
    f = PiecewisePoly((-1, 0, 1, 2), (
        (1, 4, 6, 4, 1),         # (x+1)^4
        (1, 4, 0, -8, 4),        # (1+2x-2x^2)^2
        (16, -32, 24, -8, 1),    # (x-2)^4
    ))
    lo, hi = Fraction(-1), Fraction(2)
    eps = Fraction(1, 1 << 12)
    res = pw_minimize(f, eps)
    assert res.argmin == (lo, lo) and res.value == (0, 0) and res.competitors == ((hi, hi),)
    mid = (res.argmin[0] + res.argmin[1]) / 2
    val = f.evaluate(mid)
    # Lipschitz bound on [-1, 2] for this small product is comfortably < 64
    slack = eps * 64
    assert res.value[0] - slack <= val <= res.value[1] + slack
    step = Fraction(1, 4096)
    x = lo
    while x <= hi:
        assert f.evaluate(x) >= res.value[0], x
        x += step


def test_minimize_empty_domain_errors():
    # a PiecewisePoly has no empty domain, so eps is pw_minimize's one rule
    with pytest.raises(ValueError):
        PiecewisePoly((5, 5), ((1,),))
    for eps in (0, Fraction(-1, 16)):
        with pytest.raises(ValueError, match="^eps must be positive$"):
            pw_minimize(HAT, eps)


def test_minimize_takes_the_value_of_the_piece_starting_there(monkeypatch):
    # 2 - 2x on [0, 1) and 1 on [1, 2]: at 1 the value is 1, from the piece
    # that starts there, as `evaluate` gives it, not the left piece's limit 0;
    # pw_minimize reads it from the piece, not through `evaluate`
    f = PiecewisePoly((0, 1, 2), ((2, -2), (1,)))
    assert f.evaluate(1) == 1
    monkeypatch.delattr(PiecewisePoly, "evaluate")
    res = pw_minimize(f, Fraction(1, 16))
    assert res == ((1, 1), (1, 1), ((2, 2),))
    # a zero piece is a constant like any other
    res = pw_minimize(PiecewisePoly((0, 1, 2), ((1,), ())), Fraction(1, 16))
    assert res == ((1, 1), (0, 0), ((2, 2),))


@st.composite
def _root_problems(draw):
    """A polynomial of degree <= 8 and an interval: repeated rational roots,
    roots at the ends and at dyadic midpoints, and irrational pairs."""
    lo = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 4)))
    hi = lo + Fraction(draw(st.integers(1, 16)), draw(st.integers(1, 4)))
    eps = Fraction(1, 2 ** draw(st.integers(1, 20)))
    p = (draw(st.sampled_from([-3, -1, 1, 2])),)
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["end", "dyadic", "rational", "pair"]))
        if kind == "pair":
            # (x - c)^2 - d with d a prime over a square: roots c +- sqrt(d)
            c = Fraction(draw(st.integers(-16, 16)), draw(st.integers(1, 4)))
            d = Fraction(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 8)) ** 2)
            factor = (c * c - d, -2 * c, 1)
        else:
            if kind == "end":
                r = draw(st.sampled_from([lo, hi]))
            elif kind == "dyadic":
                k = draw(st.integers(1, 4))
                r = lo + (hi - lo) * Fraction(draw(st.integers(1, 2**k - 1)), 2**k)
            else:
                r = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 6)))
            factor = (-r, 1)
        for _ in range(draw(st.integers(1, 3))):
            if len(p) + len(factor) - 2 <= 8:
                p = poly_mul(p, factor)
    return p, lo, hi, eps


def _sign_bisection(p, a, b, width):
    """Test oracle: bisect (a, b), where p changes sign once, by Fraction
    evaluation down to width <= `width`; the point (x, x) when a midpoint x
    hits the root, else the final open interval."""
    fa = poly_eval(p, a)
    while b - a > width:
        mid = (a + b) / 2
        fm = poly_eval(p, mid)
        if fm == 0:
            return (mid, mid)
        if (fa > 0) != (fm > 0):
            b = mid
        else:
            a, fa = mid, fm
    return (a, b)


@settings(max_examples=80, deadline=None)
@given(_root_problems())
def test_isolate_refines_like_sign_bisection(problem):
    # the integer halving down to eps gives what sign bisection of the
    # squarefree part gives on the coarsest isolating intervals
    p, lo, hi, eps = problem
    p = squarefree_part(p)
    refined = [(a, b) if a == b else _sign_bisection(p, a, b, eps)
               for a, b in _isolate(p, lo, hi, hi - lo)]
    assert _isolate(p, lo, hi, eps) == sorted(refined)


# f' = (5x - 27)^3 (4x^2 - 4x - 11)^2 on [1/4, 9/4]: f decreases, and the
# double root of f' near 2.232 has no sign change for a sign bisection to follow
_DOUBLE_ROOT = poly_mul(poly_mul(poly_mul((-27, 5), (-27, 5)), (-27, 5)),
                        poly_mul((-11, -4, 4), (-11, -4, 4)))


@settings(max_examples=80, deadline=None)
@given(_root_problems())
@example((_DOUBLE_ROOT, Fraction(1, 4), Fraction(9, 4), Fraction(1, 32)))
# the zero polynomial and a nonzero constant have no roots to report
@example(((), Fraction(0), Fraction(1), Fraction(1, 4)))
@example(((3,), Fraction(-1, 2), Fraction(5, 2), Fraction(1, 8)))
def test_isolate_and_minimize_match_sympy(problem):
    p, lo, hi, eps = problem
    P = _sympy_poly(p)
    # _isolate reports only the roots inside (lo, hi); _root_problems also
    # draws roots at the ends, which must not be reported
    roots = [r for r in dict.fromkeys(sympy.real_roots(P)) if lo < r < hi]
    # squarefree part: integers, and a rational multiple of sympy's
    squarefree = squarefree_part(p)
    assert all(type(c) is int for c in squarefree)
    assert _sympy_poly(squarefree).monic() == P.sqf_part().monic()
    found = _isolate(squarefree, lo, hi, eps)
    assert found == sorted(found) and len(found) == len(roots)
    exact = [a for a, b in found if a == b]
    intervals = [(a, b) for a, b in found if a < b]
    assert {_rational(x) for x in exact} <= set(roots)
    assert all(lo < x < hi for x in exact)
    # f' = p: the minimum of f over [lo, hi] is at an end or at a root of p,
    # and over an isolating interval (a, b) at a, b or its one root, where
    # _segment_bounds must enclose it
    f = PiecewisePoly((lo, hi), ((0,) + tuple(Fraction(c, i + 1) for i, c in enumerate(p)),))
    F = _sympy_poly(f.pieces[0])
    for a, b in intervals:
        assert lo <= a < b <= hi and b - a <= eps
        assert P.eval(_rational(a)) != 0 != P.eval(_rational(b))
        r, = [r for r in roots if _rational(a) < r < _rational(b)]
        candidates = [F.eval(_rational(a)), F.eval(_rational(b)), F.eval(r)]
        lower, upper = _segment_bounds(f.pieces[0], a, b)
        assert _rational(lower) <= min(candidates, key=lambda v: sympy.N(v, 60)) <= _rational(upper)
    assert not [x for x in exact for a, b in intervals if a < x < b]

    values = {x: F.eval(x) for x in [_rational(lo), _rational(hi), *roots]}
    true_min = min(values.values(), key=lambda v: sympy.N(v, 60))
    res = pw_minimize(f, eps)
    assert _rational(res.value[0]) <= true_min <= _rational(res.value[1])
    minimizers = [x for x, v in values.items() if abs(sympy.N(v - true_min, 60)) < 1e-40]
    assert any(_rational(u) <= x <= _rational(v)
               for u, v in (res.argmin, *res.competitors) for x in minimizers)
    # every enclosure that is not a point holds a critical point
    for u, v in (res.argmin, *res.competitors):
        assert u == v or P.count_roots(_rational(u), _rational(v)) >= 1, (u, v)


@pytest.mark.parametrize("lo, hi, delta, eps", [
    (-2, 3, Fraction(1, 1000), Fraction(1, 4)),
    (-3, 2, Fraction(-1, 1000), Fraction(1, 4)),
    (-2, 2, Fraction(0), Fraction(1, 4)),
    (-2, 3, Fraction(0), Fraction(1, 4)),
    (-3, 2, Fraction(0), Fraction(1, 4)),
    # isolated at width 1, above eps: 21 halvings to the floor 2^-21
    (-2, 2, Fraction(0), Fraction(8)),
])
def test_minimize_near_twin_minima_match_sympy(lo, hi, delta, eps):
    # f = (x^2 - 2)^2 + delta x has its minima near -sqrt(2) and sqrt(2), with
    # values about 2 sqrt(2) |delta| apart, equal at delta = 0.  At eps = 1/4 the
    # two enclosures' value ranges overlap on the first pass, and for delta != 0
    # the one with the lower upper bound holds the larger minimum; only
    # refining both separates them
    f = PiecewisePoly((lo, hi), ((4, delta, -4, 0, 1),))
    F = _sympy_poly(f.pieces[0])
    points = [_rational(lo), _rational(hi), *dict.fromkeys(sympy.real_roots(F.diff(X)))]
    values = {x: F.eval(x) for x in points}
    true_min = min(values.values(), key=lambda v: sympy.N(v, 60))
    res = pw_minimize(f, eps)
    lower, upper = map(_rational, res.value)
    assert lower <= true_min <= upper
    u, v = map(_rational, res.argmin)
    assert any(u <= x <= v and abs(sympy.N(y - true_min, 60)) < 1e-40 for x, y in values.items())
    # competitors is empty exactly when every critical point and end outside
    # the argmin is certified above the minimum
    others = [y for x, y in values.items() if not u <= x <= v]
    assert (not res.competitors) == all(sympy.N(y - upper, 60) > 0 for y in others)
    assert bool(res.competitors) == (delta == 0)
    # the argmin has the least upper bound of the enclosures returned, and
    # equal minima, never separated, are halved to the floor eps / 2^24 and
    # no further
    bounds = [_segment_bounds(f.pieces[0], a, b) for a, b in (res.argmin, *res.competitors)]
    assert res.value[1] == bounds[0][1] == min(b for _, b in bounds)
    if delta == 0:
        for a, b in (res.argmin, *res.competitors):
            assert eps / 2**25 < b - a <= eps / 2**24, (a, b)


def test_phi8_twin_irrational_minima(monkeypatch):
    # phi_8 has its minimum off 1/4, at an irrational R near 0.24113 and at
    # its mirror 1/2 - R
    monkeypatch.setattr(limits, "PHI_PIECES_QMAX", 8)
    f = phi_piecewise(8)
    eps = Fraction(1, 1 << 20)
    res = pw_minimize(f, eps)
    u, v = res.argmin
    assert 0 < v - u <= eps and Fraction(24, 100) < u < v < Fraction(26, 100)
    i = bisect_right(f.breakpoints, u) - 1
    assert v <= f.breakpoints[i + 1]
    deriv = _sympy_poly(poly_derivative(f.pieces[i]))
    assert deriv.count_roots(_rational(u), _rational(v)) == 1
    assert max(f.evaluate(u), f.evaluate(v)) < shifted_fekete_limit(8, Fraction(1, 4))
    (c0, c1), = res.competitors
    assert (c0, c1) == (Fraction(1, 2) - v, Fraction(1, 2) - u)


def test_minimize_takes_one_squarefree_part_per_piece(monkeypatch):
    # the overlap halvings of the q = 8 twin minima reuse each piece's
    # squarefree derivative instead of recomputing it
    monkeypatch.setattr(limits, "PHI_PIECES_QMAX", 8)
    f = phi_piecewise(8)
    calls = []

    def counted(p):
        calls.append(p)
        return squarefree_part(p)

    monkeypatch.setattr(piecewise, "squarefree_part", counted)
    monkeypatch.setattr(sturm, "squarefree_part", counted)
    res = pw_minimize(f, Fraction(1, 2**20))
    assert res.competitors
    assert len(calls) == len(f.pieces) == 6


def test_phi8_pieces_match_evaluator_off_nodes(monkeypatch):
    # one rational per piece that is none of its interpolation nodes
    # a + (b - a) k / 18, checked against the pointwise evaluator
    monkeypatch.setattr(limits, "PHI_PIECES_QMAX", 8)
    f = phi_piecewise(8)
    for lo, hi, piece in zip(f.breakpoints, f.breakpoints[1:], f.pieces):
        x = lo + (hi - lo) * Fraction(500, 1009)
        assert poly_eval(piece, x) == shifted_fekete_limit(8, x), x


def test_phi8_min_on_quarter_is_tight(monkeypatch):
    # on [0, 1/4] the mirror twin is out of range, so no competitor remains, and
    # the centred bound pins the value once the argmin enclosure is eps wide
    monkeypatch.setattr(limits, "PHI_PIECES_QMAX", 8)
    eps = Fraction(1, 1 << 20)
    res = limits.phi_min(8, eps)
    assert res.competitors == ()
    u, v = res.argmin
    assert Fraction(2411, 10000) < u < v < Fraction(2412, 10000) and v - u <= eps
    lower, upper = res.value
    assert 0 <= upper - lower < Fraction(1, 10**6)
    assert upper < shifted_fekete_limit(8, Fraction(1, 4))


def test_phi_min_value_prints_and_contains_the_exact_enclosure(monkeypatch):
    # at eps = 2^-1200 the centred bound is evaluated at 1200-bit ends, and
    # pw_minimize's exact value enclosure has numerators past 4300 digits;
    # phi_min's, rounded outward to multiples of 2^-(2e + 32), prints
    monkeypatch.setattr(limits, "PHI_PIECES_QMAX", 8)
    f = limits._phi_quarter(8)
    with int_max_str_digits(sys.int_info.default_max_str_digits):
        for e in (20, 200, 1200):
            eps = Fraction(1, 2**e)
            res = limits.phi_min(8, eps)
            exact = pw_minimize(f, eps)
            repr(res)
            assert res.argmin == exact.argmin
            (lower, upper), (exact_lower, exact_upper) = res.value, exact.value
            assert lower <= exact_lower <= exact_upper <= upper
            assert (upper - lower) - (exact_upper - exact_lower) <= Fraction(1, 2 ** (2 * e))
            assert all(2 ** (2 * e + 32) % end.denominator == 0 for end in res.value)
        with pytest.raises(ValueError, match="Exceeds the limit"):
            repr(exact)


def test_phi_refinement_digests(monkeypatch):
    # sha256 of repr of results the CLI digests never reach: phi_min past the
    # cap at a coarse and a deep eps, as (argmin, value, alt_flag) with the
    # CLI's alt_flag = bool(competitors), and the q = 8 twin minimisation as
    # pw_minimize returns it; the q = 8 entries pin phi_min's outward-rounded
    # value enclosures
    monkeypatch.setattr(limits, "PHI_PIECES_QMAX", 8)
    results = {
        (q, e): limits.phi_min(q, Fraction(1, 2**e)) for q in (7, 8) for e in (20, 200)
    }
    contents = {key: (r.argmin, r.value, bool(r.competitors)) for key, r in results.items()}
    contents["twin"] = pw_minimize(phi_piecewise(8), Fraction(1, 2**20))
    digests = {key: hashlib.sha256(repr(r).encode()).hexdigest() for key, r in contents.items()}
    q7 = "f346201d2a00ecf260682e34322f1325117b41458ec588e67490689d40e3c869"
    assert digests == {
        (7, 20): q7,
        (7, 200): q7,
        (8, 20): "3918be240eb33ebc0dc8b82f5c8000fa34e0d917be562f2853e1f28c6e6fa73d",
        (8, 200): "927058e78aa56dacc3af5b3d04e3825f101464f2a7e725a7ca88483c3a813e40",
        "twin": "752673cf5f6dfc2187b0d1e041f20472d86a82094b32e15ea70cda8f6c1538e3",
    }
