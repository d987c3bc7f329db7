"""Dense univariate polynomials with exact rational coefficients.

A polynomial is a tuple of coefficients, constant term first; the zero
polynomial is the empty tuple.  Coefficients may be `int` or `Fraction`;
results stay exact.  Interpolation is on integers, in `limits._newton`.
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


def poly_shift(a: Sequence, c) -> Coeffs:
    """Coefficients of a(x + c), as many as a has; c is an int or a Fraction.

    >>> poly_shift((0, 0, 1), 1)                   # (x + 1)^2
    (1, 2, 1)
    >>> poly_shift((1, 2, 1), Fraction(-1, 2))     # (x + 1/2)^2
    (Fraction(1, 4), Fraction(1, 1), 1)
    """
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += c * a[j + 1]
    return tuple(a)
