"""Exact real-root isolation for rational polynomials by Descartes bisection.

Polynomials use the dense tuple representation from `ratpoly`.  Roots are
isolated by Descartes' rule of signs under bisection (Collins & Akritas,
1976) in integer arithmetic on the primitive squarefree part, and the same
halving refines each isolating interval to the requested width.  The module
kept its name from the Sturm chains it used to build, because the benchmark
tracer imports `littlewood.sturm`.
"""
from __future__ import annotations

import math
from fractions import Fraction

from littlewood.ratpoly import poly_derivative, poly_shift, poly_trim


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


def _divmod(a, b):
    """Quotient and remainder of a divided by b over the rationals."""
    rem = [Fraction(c) for c in a]
    db, lead = len(b) - 1, Fraction(b[-1])
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = rem[i + db] / lead
        for j, cb in enumerate(b):
            rem[i + j] -= quot[i] * cb
    return poly_trim(quot), poly_trim(rem[:db])


def squarefree_part(p) -> tuple[int, ...]:
    """Primitive squarefree polynomial with the same real roots as p."""
    p = _primitive(p)
    a, b = p, _primitive(poly_derivative(p))
    while b:
        a, b = b, _primitive(_divmod(a, b)[1])
    return _primitive(_divmod(p, a)[0]) if len(a) > 1 else p


def _isolate(p, lo, hi, eps):
    """Real roots of a primitive squarefree p in [lo, hi], for Fractions
    lo < hi and eps > 0, as one sorted list of enclosures: (x, x) for a
    rational root x met at lo, hi or a bisection point, and (a, b), an open
    interval of width <= eps with p(a), p(b) nonzero, for each other root.

    >>> _isolate((0, -2, 0, 1), Fraction(0), Fraction(2), Fraction(1, 4))   # x^3 - 2x
    [(Fraction(0, 1), Fraction(0, 1)), (Fraction(5, 4), Fraction(3, 2))]
    """
    d = len(p) - 1
    if d < 1:
        return []
    # q(t) = den^d p(lo + (hi - lo) t) in integers: its roots in (0, 1) are
    # those of p in (lo, hi), and q(0), q(1) have the signs of p(lo), p(hi)
    den = math.lcm(lo.denominator, hi.denominator)
    q = poly_shift([c * den ** (d - i) for i, c in enumerate(p)], int(lo * den))
    w = int((hi - lo) * den)
    q = [c * w**i for i, c in enumerate(q)]
    found = [(x, x) for x, v in ((lo, q[0]), (hi, sum(q))) if v == 0]
    todo = [(lo, hi, q)]
    while todo:
        a, b, q = todo.pop()
        # Descartes: the sign variations of (1 + s)^d q(1 / (1 + s)) bound the
        # roots of q in (0, 1), and are exact when 0 or 1
        signs = [c > 0 for c in poly_shift(q[::-1], 1) if c]
        bound = sum(x != y for x, y in zip(signs, signs[1:]))
        if bound == 0:
            continue
        # one root, none at the ends: final once eps wide, else halved again
        if bound == 1 and q[0] and sum(q) and b - a <= eps:
            found.append((a, b))
            continue
        # halves: 2^d q(t / 2) on (a, mid) and 2^d q((1 + t) / 2) on (mid, b)
        mid = (a + b) / 2
        left = [c << (d - i) for i, c in enumerate(q)]
        right = poly_shift(left, 1)
        if right[0] == 0:
            found.append((mid, mid))
        todo += [(mid, b, right), (a, mid, left)]
    return sorted(found)
