"""Exact univariate piecewise polynomials over the rationals, and their
certified minimization.

A `PiecewisePoly` holds strictly increasing rational breakpoints b_0 < ... < b_k
and k coefficient tuples; piece i is valid on [b_{i-1}, b_i) and the value is 0
outside [b_0, b_k].  Values are canonical on construction: coefficients are
`Fraction`s, trailing zero coefficients are trimmed and identical adjacent
pieces are merged, so equality of two values is decidable field by field.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from littlewood.ratpoly import poly_derivative, poly_eval, poly_shift, poly_trim
from littlewood.sturm import isolate_roots, refine


class _Pieces(NamedTuple):
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, ...], ...]


class PiecewisePoly(_Pieces):
    # a NamedTuple class may not override __new__, so the canonical form is
    # built in this subclass
    __slots__ = ()

    def __new__(cls, breakpoints, pieces):
        bps = tuple(Fraction(b) for b in breakpoints)
        pieces = tuple(poly_trim(tuple(Fraction(c) for c in p)) for p in pieces)
        if len(bps) < 2 or len(pieces) != len(bps) - 1:
            raise ValueError("piece count must equal breakpoint count - 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        merged_b = [bps[0]]
        merged_p: list[tuple[Fraction, ...]] = []
        for i, p in enumerate(pieces):
            if merged_p and merged_p[-1] == p:
                merged_b[-1] = bps[i + 1]
            else:
                merged_p.append(p)
                merged_b.append(bps[i + 1])
        return super().__new__(cls, tuple(merged_b), tuple(merged_p))

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        bps = self.breakpoints
        if x < bps[0] or x > bps[-1]:
            return Fraction(0)
        if x == bps[-1]:
            # Right edge takes the limit of the last piece; phi_q is
            # continuous, so this agrees with the two-sided limit there.
            return poly_eval(self.pieces[-1], x)
        return poly_eval(self.pieces[bisect_right(bps, x) - 1], x)


class MinimizeResult(NamedTuple):
    """Result of `pw_minimize`.

    `argmin` encloses one global minimizer (degenerate when found exactly);
    `value` gives rational lower/upper bounds on the minimum; `competitors`
    lists other candidate enclosures whose value range still overlaps the
    minimum enclosure, so uniqueness of the minimizer is never assumed.
    """

    argmin: tuple[Fraction, Fraction]
    value: tuple[Fraction, Fraction]
    competitors: tuple[tuple[Fraction, Fraction], ...] = ()


def pw_minimize(f: PiecewisePoly, lo, hi, eps) -> MinimizeResult:
    """Minimize f over [lo, hi] with exact certificates.

    Per piece, the real roots of the derivative are isolated by Descartes
    bisection and refined by sign bisection to width <= eps; candidate values
    are compared using exact evaluation at rational points plus centred
    bounds on each root enclosure (`_segment_bounds`), with extra refinement
    until candidates separate or a width floor is hit.

    >>> cubic = PiecewisePoly((0, 2), ((0, -2, 0, 1),))   # x^3 - 2x
    >>> pw_minimize(cubic, 0, 2, Fraction(1, 8)).argmin   # holds sqrt(2/3)
    (Fraction(3, 4), Fraction(7, 8))
    >>> square = PiecewisePoly((0, 1), ((1, -8, 16),))    # (4x - 1)^2
    >>> pw_minimize(square, 0, 1, Fraction(1, 8))[:2]
    ((Fraction(1, 4), Fraction(1, 4)), (Fraction(0, 1), Fraction(0, 1)))
    """
    lo, hi, eps = Fraction(lo), Fraction(hi), Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not lo < hi:
        raise ValueError("empty minimization interval")
    bps = f.breakpoints
    lo, hi = max(lo, bps[0]), min(hi, bps[-1])
    if not lo < hi:
        raise ValueError("minimization interval misses the piece domains")

    exact_xs = set()
    # candidate records: [x_lo, x_hi, val_lo, val_hi, piece, derivative]
    cands: list[list] = []
    for i, piece in enumerate(f.pieces):
        u, v = max(lo, bps[i]), min(hi, bps[i + 1])
        if u >= v:
            continue
        exact_xs.update((u, v))
        deriv = poly_derivative(piece)
        roots, intervals = isolate_roots(deriv, u, v, eps)
        exact_xs.update(roots)
        for a, b in intervals:
            cands.append([a, b, *_segment_bounds(piece, a, b), piece, deriv])
    for x in sorted(exact_xs):
        val = f.evaluate(x)
        cands.append([x, x, val, val, None, None])

    width_floor = eps / 2**24
    while True:
        best_upper = min(c[3] for c in cands)
        overlapping = [c for c in cands if c[2] <= best_upper]
        movable = [c for c in overlapping if c[1] - c[0] > width_floor]
        if len(overlapping) <= 1 or not movable:
            break
        for c in movable:
            root = refine(c[5], c[0], c[1], (c[1] - c[0]) / 2)
            if isinstance(root, Fraction):
                val = poly_eval(c[4], root)
                c[:] = [root, root, val, val, None, None]
            else:
                c[:2] = root
                c[2], c[3] = _segment_bounds(c[4], *root)

    best = min(cands, key=lambda c: (c[3], c[0]))
    overlapping = [c for c in cands if c[2] <= best[3]]
    value_lo = min(c[2] for c in overlapping)
    return MinimizeResult(
        argmin=(best[0], best[1]),
        value=(value_lo, best[3]),
        competitors=tuple((c[0], c[1]) for c in overlapping if c is not best),
    )


def _segment_bounds(piece, a, b) -> tuple[Fraction, Fraction]:
    """Bounds on min of the piece over [a, b]: with p(a + t) = sum c_i t^i and
    t in [0, w], w = b - a, c_0 + sum_(i>=1) min(c_i w^i, 0) below, which
    tightens with w; the better attained endpoint value above."""
    c, w = poly_shift(piece, a), b - a
    lower = c[0] + sum(min(ci * w**i, 0) for i, ci in enumerate(c[1:], 1))
    return lower, min(c[0], poly_eval(piece, b))
