"""Dense univariate polynomials with exact rational coefficients.

A polynomial is a tuple of coefficients, constant term first; the zero
polynomial is the empty tuple.  Coefficients may be `int` or `Fraction`;
results stay exact.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Coeffs = tuple  # coefficient tuple, low degree first; () is the zero polynomial


def poly_trim(c: Sequence) -> Coeffs:
    """Drop trailing zero coefficients."""
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def poly_add(a: Sequence, b: Sequence) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, cb in enumerate(b):
        out[i] += cb
    return poly_trim(out)


def poly_mul(a: Sequence, b: Sequence) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def poly_eval(a: Sequence, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_derivative(a: Sequence) -> Coeffs:
    return tuple(i * c for i, c in enumerate(a))[1:]


def poly_interpolate(xs: Sequence, ys: Sequence) -> Coeffs:
    """The polynomial of degree < len(xs) through the points (xs[i], ys[i]).

    Newton divided differences, expanded from the Newton form by Horner; the
    xs must be distinct.
    """
    xs = [Fraction(x) for x in xs]
    dd = [Fraction(y) for y in ys]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    acc: Coeffs = ()
    for x, c in zip(reversed(xs), reversed(dd)):
        acc = poly_add(poly_mul(acc, (-x, 1)), (c,))
    return acc


def poly_range(a: Sequence, lo, hi) -> tuple[Fraction, Fraction]:
    """Rational bounds [A, B] enclosing the range of p on [lo, hi].

    Interval-arithmetic Horner; sound but not tight.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    alo = ahi = Fraction(0)
    for c in reversed(a):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi
