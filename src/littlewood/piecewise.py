"""Exact univariate piecewise polynomials over the rationals, and their
certified minimization.

A `PiecewisePoly` holds strictly increasing rational breakpoints b_0 < ... < b_k
and k coefficient tuples; piece i is valid on [b_{i-1}, b_i) and the value is 0
outside [b_0, b_k].  Values are canonical on construction: coefficients are
`Fraction`s, trailing zero coefficients are trimmed and identical adjacent
pieces are merged, so equality of two values is decidable field by field.
`pw_minimize` certifies the minimum over [b_0, b_k] by the same half-open
rule: the value at b_i is that of the piece starting there, and at b_k that
of the last piece.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from littlewood import _check_rational
from littlewood.ratpoly import poly_derivative, poly_eval, poly_trim
from littlewood.sturm import _isolate, _on_unit, squarefree_part


class _Pieces(NamedTuple):
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, ...], ...]


class PiecewisePoly(_Pieces):
    """Breakpoints, coefficients and `evaluate`'s x are read by the one
    rational rule, `littlewood._check_rational` (named "breakpoint",
    "coefficient" and "x"); the canonical form keeps each piece that differs
    from the one before it, with its starting breakpoint, then b_k."""

    # a NamedTuple class may not override __new__, so the canonical form is
    # built in this subclass
    __slots__ = ()

    def __new__(cls, breakpoints, pieces):
        bps = tuple(_check_rational("breakpoint", b) for b in breakpoints)
        pieces = tuple(poly_trim(tuple(_check_rational("coefficient", c) for c in p))
                       for p in pieces)
        if len(bps) < 2 or len(pieces) != len(bps) - 1:
            raise ValueError("piece count must equal breakpoint count - 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        starts, kept = zip(*[(b, p) for b, p, before in zip(bps, pieces, (None,) + pieces)
                             if p != before])
        return super().__new__(cls, starts + bps[-1:], kept)

    def evaluate(self, x) -> Fraction:
        x = _check_rational("x", x)
        bps = self.breakpoints
        if not bps[0] <= x <= bps[-1]:
            return Fraction(0)
        # Half-open [b_(i-1), b_i); the right edge takes the limit of the last
        # piece; phi_q is continuous, so this agrees with the two-sided limit there.
        return poly_eval(self.pieces[min(bisect_right(bps, x), len(self.pieces)) - 1], x)


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


def _check_eps(eps) -> Fraction:
    """eps as a Fraction, by the one tolerance rule: a rational by
    `littlewood._check_rational` (named "eps"), and positive."""
    eps = _check_rational("eps", eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps


def pw_minimize(f: PiecewisePoly, eps) -> MinimizeResult:
    """Minimize f over its domain [b_0, b_k] with exact certificates.

    Every candidate is an enclosure [a, b] with bounds on the minimum of its
    piece over it, read from the piece mapped to [0, 1] in integers
    (`_segment_bounds`, exact when a == b).  The points are each
    piece's left end and the domain's right end, which it adds itself, and the
    rational roots of f' met inside a piece; a point takes its value from the
    piece that starts there, as `evaluate` does.  The other real roots of f'
    inside a piece are isolated and refined to width <= eps by one integer
    Descartes bisection (`sturm._isolate`, which reports only the roots
    inside the open interval) on the squarefree part of each piece's
    derivative, computed once; enclosures
    whose bounds overlap the best are halved by the same bisection until the
    candidates separate or a width floor is hit.

    >>> cubic = PiecewisePoly((0, 2), ((0, -2, 0, 1),))   # x^3 - 2x
    >>> pw_minimize(cubic, Fraction(1, 8)).argmin          # holds sqrt(2/3)
    (Fraction(3, 4), Fraction(7, 8))
    >>> square = PiecewisePoly((0, 1), ((1, -8, 16),))    # (4x - 1)^2
    >>> pw_minimize(square, Fraction(1, 8))[:2]
    ((Fraction(1, 4), Fraction(1, 4)), (Fraction(0, 1), Fraction(0, 1)))
    """
    eps = _check_eps(eps)
    bps = f.breakpoints
    # candidate records [a, b, lower, upper, piece, squarefree f'], in order
    cands: list[list] = []
    for u, v, piece in zip(bps, bps[1:], f.pieces):
        deriv = squarefree_part(poly_derivative(piece))
        # the piece's left end u and the domain's right end are points of
        # their own, so a root of f' there needs no enclosure; _isolate reports
        # only the roots in (u, v)
        inside = _isolate(deriv, u, v, eps)
        for a, b in [(u, u), *inside] + ([(v, v)] if v == bps[-1] else []):
            cands.append([a, b, *_segment_bounds(piece, a, b), piece, deriv])

    width_floor = eps / 2**24
    while True:
        best_upper = min(c[3] for c in cands)
        overlapping = [c for c in cands if c[2] <= best_upper]
        movable = [c for c in overlapping if c[1] - c[0] > width_floor]
        if len(overlapping) <= 1 or not movable:
            break
        for c in movable:
            # one halving: the root met at the midpoint, or the half holding it
            (a, b), = _isolate(c[5], c[0], c[1], (c[1] - c[0]) / 2)
            c[:4] = a, b, *_segment_bounds(c[4], a, b)

    best = min(overlapping, key=lambda c: c[3])
    value_lo = min(c[2] for c in overlapping)
    return MinimizeResult(
        argmin=(best[0], best[1]),
        value=(value_lo, best[3]),
        competitors=tuple((c[0], c[1]) for c in overlapping if c is not best),
    )


def _segment_bounds(piece, a, b) -> tuple[Fraction, Fraction]:
    """Bounds on min of the piece over [a, b], from p(a + (b - a) t) =
    sum c_i t^i / s on t in [0, 1] (`sturm._on_unit`): (c_0 + sum_(i>=1)
    min(c_i, 0)) / s below, which tightens as b - a shrinks, and the better
    end value min(c_0, sum c_i) / s above; both are p(a) when a == b."""
    s, c = _on_unit(piece, a, b)
    return Fraction(c[0] + sum(min(ci, 0) for ci in c[1:]), s), Fraction(min(c[0], sum(c)), s)
