"""Exact sums of squared coefficients of integer polynomial powers.

`power_square_sum(a, q)` returns the sum of c_j^2 over the coefficients of
f^q = sum c_j x^j, where f has the integer coefficients `a`.  For q >= 2 it
uses Kronecker substitution in decimal: f is evaluated at X = 10^w, where w
digits hold 2B + 1 for the bound B = (sum |a|)^(q-1) * max |a| on |c_j|.
The C `decimal` module (libmpdec, which multiplies large numbers with
number-theoretic transforms) raises f(X) to the q-th power in a context that
traps any rounding, so a result is exact or an exception.  Adding
h = 5 * 10^(w-1) to every w-digit slot makes each slot c_j + h, in
[0, 10^w), so no carry crosses a slot; the slots are then read back from the
digit string a chunk at a time, which bounds the Python integers alive at
once.

A power longer than MAX_LEN coefficients, coefficients bounded only beyond
_MODULUS / 2, or q >= 2 without the C `decimal` module (its pure-Python
fallback multiplies in quadratic time) raise ValueError: there is no slower
fallback route.
"""
from __future__ import annotations

import struct
from array import array
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    Rounded,
    localcontext,
)
from operator import mul

try:
    import _decimal  # noqa: F401  (the C implementation behind `decimal`)
    C_DECIMAL = True
except ImportError:
    C_DECIMAL = False

# Cost budget: f^q may have at most MAX_LEN coefficients.  At the budget one
# job takes a few seconds and a few hundred MB (shifted Fekete at q = 8,
# p = 262139, has 2^21 - 47 coefficients of 39 digits).
MAX_LEN = 1 << 21
# |c_j| must stay below _MODULUS / 2, about 2^144.4, so a slot has at most 44
# digits.  The bound is the product of the five 30-bit primes of the earlier
# transform engine, kept so the inputs refused stay the same.
_MODULUS = 998244353 * 1004535809 * 469762049 * 167772161 * 754974721
# Slots decoded per step.
_CHUNK = 1 << 16
# A coefficient byte (1, 0 or -1 as 255) -> its digit in the packed positive
# or negative part.
_POS_DIGIT = bytes(48 + (b == 1) for b in range(256))
_NEG_DIGIT = bytes(48 + (b == 255) for b in range(256))
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def capacity_error(n: int, q: int, abs_sum: int, abs_max: int) -> str | None:
    """Why f^q is beyond this engine, or None if it is not, for f of length n
    with sum |a| = abs_sum and max |a| = abs_max."""
    if q < 2:
        return None
    if not C_DECIMAL:
        return ("exact norms at q >= 2 need the C decimal module (_decimal); "
                "its pure-Python fallback multiplies in quadratic time")
    out_len = q * (n - 1) + 1
    if out_len > MAX_LEN:
        return (f"f^{q} of a length-{n} polynomial has {out_len} coefficients, "
                f"beyond the exact-norm capacity {MAX_LEN}")
    if 2 * abs_sum ** (q - 1) * abs_max >= _MODULUS:
        return (f"the coefficients of f^{q} are bounded only by {abs_sum}^{q - 1}"
                f"*{abs_max}, beyond the exact-norm coefficient bound "
                f"{(_MODULUS + 1) // 2}")
    return None


def power_square_sum(a, q: int) -> int:
    """Exact sum of the squared coefficients of f^q for integer coefficients a."""
    a = tuple(a)
    nonzero = len(a) - a.count(0)
    unit = set(a) <= {-1, 0, 1}
    if q == 1 or not nonzero:
        return nonzero if unit else sum(map(mul, a, a))
    abs_sum, abs_max = (nonzero, 1) if unit else (sum(map(abs, a)), max(map(abs, a)))
    reason = capacity_error(len(a), q, abs_sum, abs_max)
    if reason:
        raise ValueError(reason)
    w = len(str(2 * abs_sum ** (q - 1) * abs_max + 1))
    out_len = q * (len(a) - 1) + 1
    with localcontext(_EXACT):
        power = _pack(a, w, unit) ** q
        # the leading 1 fixes the length of the digit string
        digits = str(power + Decimal("1" + ("5" + "0" * (w - 1)) * out_len))
    del power
    return _centred_square_sum(digits, w, out_len)


def _pack(a: tuple[int, ...], w: int, unit: bool) -> Decimal:
    """f(10^w) for the coefficients a, exactly, in the current context."""
    if unit:
        coeffs = array("b", reversed(a)).tobytes()
        slots = bytearray(b"0") * (len(a) * w)
        slots[w - 1 :: w] = coeffs.translate(_POS_DIGIT)
        pos = slots.decode()
        slots[w - 1 :: w] = coeffs.translate(_NEG_DIGIT)
        neg = slots.decode()
    else:
        pos = "".join(str(max(c, 0)).zfill(w) for c in reversed(a))
        neg = "".join(str(max(-c, 0)).zfill(w) for c in reversed(a))
    return Decimal(pos) - Decimal(neg)


def _centred_square_sum(digits: str, w: int, count: int) -> int:
    """Sum of (s - h)^2 over the `count` w-digit slots s that follow the
    leading digit of `digits`, for h = 5 * 10^(w-1).

    It is computed as sum s^2 - 2h sum s + count h^2, one chunk of slots at
    a time.
    """
    squares = total = 0
    step = _CHUNK * w
    for start in range(1, len(digits), step):
        chunk = digits[start : start + step].encode()
        slots = list(map(int, struct.unpack(f"{w}s" * (len(chunk) // w), chunk)))
        squares += sum(map(mul, slots, slots))
        total += sum(slots)
    h = 5 * 10 ** (w - 1)
    return squares - 2 * h * total + count * h * h
