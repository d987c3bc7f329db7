"""Tests for exact piecewise polynomials and their minimization."""
from bisect import bisect_right
from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from littlewood import limits
from littlewood.limits import _newton, phi_piecewise, shifted_fekete_limit
from littlewood.piecewise import PiecewisePoly, _segment_bounds, pw_minimize
from littlewood.ratpoly import poly_derivative, poly_eval, poly_mul, poly_shift
from littlewood.sturm import isolate_roots

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


def test_minimize_perfect_square():
    f = PiecewisePoly((0, Fraction(1, 2)), ((1, -8, 16),))  # (4x-1)^2
    res = pw_minimize(f, 0, Fraction(1, 2), Fraction(1, 1024))
    assert res.argmin == (Fraction(1, 4), Fraction(1, 4))
    assert res.value == (0, 0)
    assert res.competitors == ()


def test_minimize_irrational_critical_point():
    # x^3 - 2x on [0, 2]: minimum at sqrt(2/3), irrational
    f = PiecewisePoly((0, 2), ((0, -2, 0, 1),))
    eps = Fraction(1, 1 << 16)
    res = pw_minimize(f, 0, 2, eps)
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
    # (x-2)^2 on [-1, 0), [0, 1), [1, 2): an interior minimum and competing
    # shapes across pieces
    f = PiecewisePoly((-1, 0, 1, 2), (
        (1, 4, 6, 4, 1),         # (x+1)^4
        (1, 4, 0, -8, 4),        # (1+2x-2x^2)^2
        (16, -32, 24, -8, 1),    # (x-2)^4
    ))
    lo, hi = Fraction(0), Fraction(1)
    eps = Fraction(1, 1 << 12)
    res = pw_minimize(f, lo, hi, eps)
    mid = (res.argmin[0] + res.argmin[1]) / 2
    val = f.evaluate(mid)
    # Lipschitz bound on [0,1] for this small product is comfortably < 64
    slack = eps * 64
    assert res.value[0] - slack <= val <= res.value[1] + slack
    step = Fraction(1, 4096)
    x = lo
    while x <= hi:
        assert f.evaluate(x) >= res.value[0], x
        x += step


def test_minimize_empty_domain_errors():
    with pytest.raises(ValueError):
        pw_minimize(HAT, 5, 6, Fraction(1, 16))
    with pytest.raises(ValueError):
        pw_minimize(HAT, 0, 1, Fraction(0))


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


@settings(max_examples=80, deadline=None)
@given(_root_problems())
def test_isolate_and_minimize_match_sympy(problem):
    p, lo, hi, eps = problem
    P = _sympy_poly(p)
    roots = [r for r in dict.fromkeys(sympy.real_roots(P)) if lo <= r <= hi]
    exact, intervals = isolate_roots(p, lo, hi, eps)
    assert len(exact) + len(intervals) == len(roots)
    assert {_rational(x) for x in exact} <= set(roots)
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
    res = pw_minimize(f, lo, hi, eps)
    assert _rational(res.value[0]) <= true_min <= _rational(res.value[1])
    minimizers = [x for x, v in values.items() if abs(sympy.N(v - true_min, 60)) < 1e-40]
    assert any(_rational(u) <= x <= _rational(v)
               for u, v in (res.argmin, *res.competitors) for x in minimizers)


def test_phi8_twin_irrational_minima(monkeypatch):
    # phi_8 has its minimum off 1/4, at an irrational R near 0.24113 and at
    # its mirror 1/2 - R
    monkeypatch.setattr(limits, "PHI_PIECES_QMAX", 8)
    phi_piecewise.cache_clear()
    try:
        f = phi_piecewise(8)
    finally:
        phi_piecewise.cache_clear()
    eps = Fraction(1, 1 << 20)
    res = pw_minimize(f, 0, Fraction(1, 2), eps)
    u, v = res.argmin
    assert 0 < v - u <= eps and Fraction(24, 100) < u < v < Fraction(26, 100)
    i = bisect_right(f.breakpoints, u) - 1
    assert v <= f.breakpoints[i + 1]
    deriv = _sympy_poly(poly_derivative(f.pieces[i]))
    assert deriv.count_roots(_rational(u), _rational(v)) == 1
    assert max(f.evaluate(u), f.evaluate(v)) < shifted_fekete_limit(8, Fraction(1, 4))
    (c0, c1), = res.competitors
    assert (c0, c1) == (Fraction(1, 2) - v, Fraction(1, 2) - u)


def test_phi8_pieces_match_evaluator_off_nodes(monkeypatch):
    # one rational per piece that is none of its interpolation nodes
    # a + (b - a) k / 18, checked against the pointwise evaluator
    monkeypatch.setattr(limits, "PHI_PIECES_QMAX", 8)
    phi_piecewise.cache_clear()
    try:
        f = phi_piecewise(8)
    finally:
        phi_piecewise.cache_clear()
    for lo, hi, piece in zip(f.breakpoints, f.breakpoints[1:], f.pieces):
        x = lo + (hi - lo) * Fraction(500, 1009)
        assert poly_eval(piece, x) == shifted_fekete_limit(8, x), x


def test_phi8_min_on_quarter_is_tight(monkeypatch):
    # on [0, 1/4] the mirror twin is out of range, so alt_flag is clear, and
    # the centred bound pins the value once the argmin enclosure is eps wide
    monkeypatch.setattr(limits, "PHI_PIECES_QMAX", 8)
    phi_piecewise.cache_clear()
    eps = Fraction(1, 1 << 20)
    try:
        res = limits.phi_min(8, eps)
    finally:
        phi_piecewise.cache_clear()
    assert res.alt_flag is False
    u, v = res.argmin
    assert Fraction(2411, 10000) < u < v < Fraction(2412, 10000) and v - u <= eps
    lower, upper = res.value
    assert 0 <= upper - lower < Fraction(1, 10**6)
    assert upper < shifted_fekete_limit(8, Fraction(1, 4))
