"""Exact real-root isolation for rational polynomials by Descartes bisection.

Polynomials use the dense tuple representation from `ratpoly`.  Polynomial
arithmetic is on integers: rational coefficients are scaled to integers once,
on input, and only the enclosure ends are Fractions.  `_on_unit` is the one
map of a polynomial on [lo, hi] to an integer polynomial on [0, 1], which
`_isolate` and `piecewise._segment_bounds` both read, and `squarefree_part`
takes its gcds by integer pseudo-division.  Roots are isolated by Descartes'
rule of signs under bisection (Collins & Akritas, 1976) on the primitive
squarefree part, and the same halving refines each isolating interval to the
requested width.  `_isolate` reports only the roots inside the open interval
it is given; a root at either end is for its caller to handle.  The module
kept its name from the Sturm chains it used to build, because the benchmark
tracer imports `littlewood.sturm`.
"""
from __future__ import annotations

import math
from fractions import Fraction  # the doctests' enclosure ends

from littlewood.ratpoly import poly_derivative, poly_shift, poly_trim


def _primitive(p) -> tuple[int, ...]:
    """Integer polynomial equal to p up to a positive rational factor; () for
    the zero polynomial."""
    p = poly_trim(p)
    den = math.lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    content = math.gcd(*ints)
    return tuple(c // content for c in ints)


def _divmod(a, b):
    """Integer pseudo-division: quot and rem with lead(b)^k a = quot b + rem,
    deg rem < deg b, and k = deg a - deg b + 1 (0 when deg a < deg b)."""
    rem, db, lead = list(a), len(b) - 1, b[-1]
    quot = [0] * (len(rem) - db)
    for i in range(len(quot) - 1, -1, -1):
        # both sides times lead, then the top term of rem moved into quot
        quot[i] = top = rem[i + db]
        rem = [lead * c for c in rem]
        for j, cb in enumerate(b):
            rem[i + j] -= top * cb
    # quot's term of degree i is multiplied by lead in each of the i later steps
    return poly_trim([c * lead**i for i, c in enumerate(quot)]), poly_trim(rem[:db])


def squarefree_part(p) -> tuple[int, ...]:
    """Primitive squarefree integer polynomial with the same real roots as p,
    by the Euclidean gcd of p and p' in integer pseudo-remainders, each made
    primitive; its sign is not normalised."""
    p = _primitive(p)
    a, b = p, _primitive(poly_derivative(p))
    while b:
        a, b = b, _primitive(_divmod(a, b)[1])
    return _primitive(_divmod(p, a)[0]) if len(a) > 1 else p


def _on_unit(p, lo, hi) -> tuple[int, tuple[int, ...]]:
    """Integers s > 0 and c_0..c_d with p(lo + (hi - lo) t) = sum c_i t^i / s,
    for p with int or Fraction coefficients and Fractions lo <= hi: the one map
    of a polynomial on [lo, hi] to one on [0, 1].  The zero polynomial gives
    c = (0,).

    >>> _on_unit((Fraction(1, 2), 0, 1), Fraction(1), Fraction(3))   # x^2 + 1/2 on [1, 3]
    (2, (3, 8, 8))
    """
    p = tuple(p) or (0,)
    d, den = len(p) - 1, math.lcm(lo.denominator, hi.denominator)
    scale = math.lcm(*(c.denominator for c in p))
    # den^d scale p((L + W t) / den) with L = lo den and W = (hi - lo) den
    q = poly_shift([c.numerator * (scale // c.denominator) * den ** (d - i)
                    for i, c in enumerate(p)], int(lo * den))
    w = int((hi - lo) * den)
    return scale * den**d, tuple(c * w**i for i, c in enumerate(q))


def _isolate(p, lo, hi, eps):
    """Real roots of a primitive squarefree p in the open interval (lo, hi),
    for Fractions lo < hi and eps > 0, as one sorted list of enclosures:
    (x, x) for a rational root x met at a bisection point, and (a, b), an
    open interval of width <= eps with p(a), p(b) nonzero, for each other
    root.  Roots at lo and hi are not reported.

    >>> _isolate((0, -2, 0, 1), Fraction(0), Fraction(2), Fraction(1, 4))   # x^3 - 2x
    [(Fraction(5, 4), Fraction(3, 2))]
    """
    d = len(p) - 1
    # q(t), a positive multiple of p(lo + (hi - lo) t): its roots in (0, 1)
    # are those of p in (lo, hi), and q(0), q(1) have the signs of p(lo), p(hi)
    q = _on_unit(p, lo, hi)[1]
    found = []
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
