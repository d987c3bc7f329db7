"""Tests for exact piecewise polynomials and their minimization."""
from fractions import Fraction

import pytest

from littlewood.piecewise import PiecewisePoly, pw_minimize
from littlewood.ratpoly import poly_eval, poly_interpolate
from littlewood.sturm import count_roots_open, sturm_sequence

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


def test_poly_interpolate_recovers_polynomial():
    p = (Fraction(-3, 7), 0, 5, Fraction(1, 2), 0, -2)
    xs = [Fraction(-2), Fraction(-1, 3), 0, Fraction(1, 5), 1, Fraction(7, 2)]
    assert poly_interpolate(xs, [poly_eval(p, x) for x in xs]) == p
    # extra nodes on a lower-degree polynomial give the same coefficients
    assert poly_interpolate(xs, [poly_eval(p[:3], x) for x in xs]) == p[:3]
    assert poly_interpolate(xs, [0] * len(xs)) == ()


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
    # Sturm-count oracle: derivative has exactly one root in the enclosure
    deriv = (-2, 0, 3)
    assert count_roots_open(sturm_sequence(deriv), u, v) == 1
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
