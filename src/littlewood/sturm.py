"""Sturm sequences and exact real-root isolation for rational polynomials.

Polynomials use the dense tuple representation from `ratpoly`.  Remainder
sequences are reduced to primitive integer form at every step (positive
scaling only, so signs are preserved) to keep coefficients small.
"""
from __future__ import annotations

import math
from fractions import Fraction

from littlewood.ratpoly import (
    poly_degree,
    poly_derivative,
    poly_eval,
    poly_neg,
    poly_trim,
)


def _primitive(p) -> tuple[int, ...]:
    """Integer polynomial equal to p up to a positive rational factor."""
    p = poly_trim(p)
    if not p:
        return ()
    coeffs = [Fraction(c) for c in p]
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    content = math.gcd(*ints)
    return tuple(c // content for c in ints)


def _poly_rem(a, b):
    """Remainder of a divided by b over the rationals."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        factor = a[-1] / lead
        shift = len(a) - 1 - db
        for i, cb in enumerate(b):
            a[shift + i] -= factor * cb
        a.pop()
    return poly_trim(a)


def poly_gcd(a, b) -> tuple[int, ...]:
    """Primitive gcd of two rational polynomials."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_poly_rem(a, b))
    return a


def poly_div_exact(a, b):
    """Quotient a / b assuming the division is exact."""
    a = list(Fraction(c) for c in a)
    db, lead = len(b) - 1, Fraction(b[-1])
    out = [Fraction(0)] * (len(a) - db)
    for i in range(len(out) - 1, -1, -1):
        out[i] = a[i + db] / lead
        for j, cb in enumerate(b):
            a[i + j] -= out[i] * cb
    if any(a[:db]):
        raise ArithmeticError("inexact polynomial division")
    return poly_trim(out)


def squarefree_part(p) -> tuple[int, ...]:
    """Primitive squarefree polynomial with the same real roots as p."""
    p = _primitive(p)
    if poly_degree(p) < 1:
        return p
    g = poly_gcd(p, poly_derivative(p))
    if poly_degree(g) < 1:
        return p
    return _primitive(poly_div_exact(p, g))


def sturm_sequence(p) -> list[tuple[int, ...]]:
    """Sturm chain of a squarefree polynomial, primitive at each step."""
    seq = [_primitive(p), _primitive(poly_derivative(p))]
    while seq[-1]:
        r = _poly_rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append(_primitive(poly_neg(r)))
    return [s for s in seq if s]


def sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_open(seq, a, b) -> int:
    """Number of distinct real roots in (a, b); requires p(a) != 0 != p(b)."""
    va = sign_variations([poly_eval(s, a) for s in seq])
    vb = sign_variations([poly_eval(s, b) for s in seq])
    return va - vb


def isolate_roots(p, lo, hi, eps: Fraction):
    """Locate all real roots of p in [lo, hi].

    Returns (exact, intervals): `exact` are rational roots found exactly,
    `intervals` are open intervals of width <= eps each containing exactly
    one (necessarily irrational) simple root.  Rational roots discovered at
    endpoints or bisection midpoints are deflated out and the isolation is
    restarted on the quotient.
    """
    lo, hi, eps = Fraction(lo), Fraction(hi), Fraction(eps)
    p = squarefree_part(p)
    exact: list[Fraction] = []
    while True:
        if poly_degree(p) < 1:
            return sorted(exact), []
        restart = False
        for r in (lo, hi):
            if poly_eval(p, r) == 0:
                exact.append(r)
                p = _primitive(poly_div_exact(p, (-r, 1)))
                restart = True
        if restart:
            continue
        seq = sturm_sequence(p)
        intervals: list[tuple[Fraction, Fraction]] = []
        todo = [(lo, hi, count_roots_open(seq, lo, hi))]
        while todo and not restart:
            a, b, cnt = todo.pop()
            if cnt == 0:
                continue
            if cnt == 1:
                root = _refine_sign_change(p, a, b, eps)
                if isinstance(root, Fraction):
                    exact.append(root)
                    p = _primitive(poly_div_exact(p, (-root, 1)))
                    restart = True
                else:
                    intervals.append(root)
                continue
            mid = (a + b) / 2
            if poly_eval(p, mid) == 0:
                exact.append(mid)
                p = _primitive(poly_div_exact(p, (-mid, 1)))
                restart = True
                continue
            c_left = count_roots_open(seq, a, mid)
            todo.append((a, mid, c_left))
            todo.append((mid, b, cnt - c_left))
        if not restart:
            return sorted(exact), sorted(intervals)


def _refine_sign_change(p, a, b, eps):
    """Shrink (a, b) holding one simple root to width <= eps by bisection.

    Returns the root as a Fraction when a midpoint hits it exactly,
    otherwise the final open interval.
    """
    fa = poly_eval(p, a)
    while b - a > eps:
        mid = (a + b) / 2
        fm = poly_eval(p, mid)
        if fm == 0:
            return mid
        if (fa > 0) != (fm > 0):
            b = mid
        else:
            a, fa = mid, fm
    return (a, b)
