"""Exact sums of squared coefficients of integer polynomial powers.

`power_square_sum(a, q)` returns the sum of c_j^2 over the coefficients of
f^q = sum c_j x^j, where f has the integer coefficients `a`.  Vectors reach
the engine as signed bytes: a memoryview of format "b" (what the private
builders in `littlewood.polynomials` and `littlewood.gf2k` make; the public
builders still return tuples) is copied once with `tobytes`, and any other
sequence is packed once into an `array("b")`.  When every byte is 0, 1 or
-1 the counts and the packing work on those bytes; other coefficients take
the integer route.

For q >= 2 it uses Kronecker substitution in decimal: f is evaluated at
X = 10^w, where w digits hold 2B + 1 for the bound
B = (sum |a|)^(q-1) * max |a| on |c_j|.  The C `decimal` module (libmpdec,
which multiplies large numbers with number-theoretic transforms) raises
f(X) to the q-th power in a context that traps any rounding, so a result is
exact or an exception.  Adding h = 5 * 10^(w-1) to every w-digit slot makes
each slot c_j + h, in [0, 10^w), so no carry crosses a slot; the slots are
then read back from the digit string _CHUNK slots at a time, so the chunk
size bounds the decoder's live Python objects.

q < 1, a power longer than MAX_LEN coefficients, a bound B with 2B + 1 of
more than MAX_DIGITS digits, or q >= 2 without the C `decimal` module (its
pure-Python fallback multiplies in quadratic time) raise ValueError before
any big number is built: there is no slower fallback route.
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
# Digits of a slot: 2B + 1 must stay below 10^MAX_DIGITS.
MAX_DIGITS = 44
# 2^_BOUND_BITS > 10^MAX_DIGITS
_BOUND_BITS = (10**MAX_DIGITS).bit_length()
# Slots decoded per step.
_CHUNK = 1 << 12
# The bytes of the coefficients 0, 1 and -1.
_UNIT_BYTES = b"\x00\x01\xff"
# A coefficient byte (1, 0 or -1 as 255) -> its digit in the packed positive
# or negative part.
_POS_DIGIT = bytes(48 + (b == 1) for b in range(256))
_NEG_DIGIT = bytes(48 + (b == 255) for b in range(256))
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def capacity_error(n: int, q: int, abs_sum: int, abs_max: int) -> str | None:
    """Why f^q is beyond this engine, or None if it is not, for f of length n
    with sum |a| = abs_sum and max |a| = abs_max."""
    if q < 1:
        return "q must be >= 1"
    if q < 2 or not abs_sum:
        return None
    if not C_DECIMAL:
        return ("exact norms at q >= 2 need the C decimal module (_decimal); "
                "its pure-Python fallback multiplies in quadratic time")
    out_len = q * (n - 1) + 1
    if out_len > MAX_LEN:
        return (f"f^{q} of a length-{n} polynomial has {out_len} coefficients, "
                f"beyond the exact-norm capacity {MAX_LEN}")
    # B >= 2^low, so bit lengths alone refuse a large B; when they do not,
    # B has at most a few hundred bits (or abs_sum is 1) and is cheap to build
    low = (q - 1) * (abs_sum.bit_length() - 1) + abs_max.bit_length() - 1
    if low >= _BOUND_BITS or 2 * abs_sum ** (q - 1) * abs_max + 1 >= 10**MAX_DIGITS:
        return (f"the coefficients of f^{q} are bounded only by {abs_sum}^{q - 1}"
                f"*{abs_max}, beyond the exact-norm coefficient bound: twice it "
                f"plus one must have at most {MAX_DIGITS} digits")
    return None


def power_square_sum(a, q: int) -> int:
    """Exact sum of the squared coefficients of f^q for integer coefficients a."""
    if not (isinstance(a, memoryview) and a.format == "b"):
        a = tuple(a)
    signs = _signs(a)
    if signs is None:
        abs_sum, abs_max = sum(map(abs, a)), max(map(abs, a))
    else:
        abs_sum, abs_max = len(signs) - signs.count(0), 1
    reason = capacity_error(len(a), q, abs_sum, abs_max)
    if reason:
        raise ValueError(reason)
    if q == 1:
        return abs_sum if signs is not None else sum(map(mul, a, a))
    if not abs_sum:
        return 0
    w = len(str(2 * abs_sum ** (q - 1) * abs_max + 1))
    out_len = q * (len(a) - 1) + 1
    with localcontext(_EXACT):
        power = (_pack_ints(a, w) if signs is None else _pack_signs(signs, w)) ** q
        # the leading 1 fixes the length of the digit string
        digits = str(power + Decimal("1" + ("5" + "0" * (w - 1)) * out_len))
    del power
    return _centred_square_sum(digits, w, out_len)


def _signs(a) -> bytes | None:
    """The coefficients a as signed bytes, or None unless each is 0, 1 or -1."""
    try:
        raw = a.tobytes() if isinstance(a, memoryview) else array("b", a).tobytes()
    except OverflowError:
        return None
    return None if raw.translate(None, _UNIT_BYTES) else raw


def _pack_signs(signs: bytes, w: int) -> Decimal:
    """f(10^w) for coefficients given as signed bytes 0, 1 and -1 (255)."""
    coeffs = signs[::-1]
    slots = bytearray(b"0") * (len(signs) * w)
    slots[w - 1 :: w] = coeffs.translate(_POS_DIGIT)
    pos = slots.decode()
    slots[w - 1 :: w] = coeffs.translate(_NEG_DIGIT)
    neg = slots.decode()
    del slots
    return Decimal(pos) - Decimal(neg)


def _pack_ints(a, w: int) -> Decimal:
    """f(10^w) for any integer coefficients a."""
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
