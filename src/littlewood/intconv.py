"""Exact sums of squared coefficients of integer polynomial powers.

`norm_2q_exact(a, q)`, the exact-norm engine, returns the 2q-th power of the
L^2q norm on the unit circle of f with the integer coefficients `a`: the sum
of c_j^2 over the coefficients of f^q = sum c_j x^j.  Vectors reach the
engine as signed bytes: a memoryview of format "b", as the private builders
in `littlewood.polynomials` and `littlewood.gf2k` make, is copied once with
`tobytes`, and any other sequence is packed once into an `array("b")`.  When
every byte is 0, 1 or -1 the counts and the packing work on those bytes;
other coefficients take the integer route.

For q >= 2 it uses Kronecker substitution in decimal: f is evaluated at
X = 10^w, where w digits hold 2B + 1 for the bound
B = (sum |a|)^(q-1) * max |a| on |c_j|.  The C `decimal` module (libmpdec,
which multiplies large numbers with number-theoretic transforms) raises
f(X) to the q-th power in a context that traps any rounding, so a result is
exact or an exception.  Adding h = 5 * 10^(w-1) to every w-digit slot makes
each slot c_j + h, in [0, 10^w), so no carry crosses a slot; the slots are
then read back from the digit string _CHUNK slots at a time, so the chunk
size bounds the decoder's live Python objects.

One rule, `power_layout`, admits a power: f^q packs into q(n - 1) + 1 slots
of w digits, and slots * w may be at most MAX_POWER_DIGITS, at 0.10-0.26 us
and 2.9-4.0 bytes of peak RSS per digit (2-vCPU x86-64, Python 3.11.7; at the
budget the worst took 25.5 s and 352 MB).  int() parses each slot, so w may
be at most L (`littlewood._digit_limit`).  These, q < 1, and q >= 2 without
the C `decimal` module (its pure-Python fallback is quadratic) raise
ValueError before any big number is built.
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

from littlewood import _digit_limit

try:
    import _decimal  # noqa: F401  (the C implementation behind `decimal`)
    C_DECIMAL = True
except ImportError:
    C_DECIMAL = False

# Cost budget in digits of the packed power, slots * w (worst seen: 25.5 s, 352 MB).
MAX_POWER_DIGITS = 10**8
# Slots decoded per step.
_CHUNK = 1 << 12
# The bytes of the coefficients 0, 1 and -1.
_UNIT_BYTES = b"\x00\x01\xff"
# A coefficient byte (1, 0 or -1 as 255) -> its digit in the packed positive
# or negative part.
_POS_DIGIT = bytes(48 + (b == 1) for b in range(256))
_NEG_DIGIT = bytes(48 + (b == 255) for b in range(256))
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def power_layout(n: int, q: int, abs_sum: int, abs_max: int) -> tuple[int, int]:
    """(slots, w <= L) of f^q packed at 10^w, or (0, 0) if q = 1 or f is 0 or +-x^k, for
    f of length n, sum |a| = abs_sum and max |a| = abs_max, or ValueError."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q < 2 or abs_sum < 2:
        return 0, 0
    if not C_DECIMAL:
        raise ValueError("exact norms at q >= 2 need the C decimal module (_decimal); "
                         "its pure-Python fallback multiplies in quadratic time")
    # B >= 2^low: bit lengths alone refuse B >= 2^(4 limit) > 10^limit
    limit = _digit_limit()
    low = (q - 1) * (abs_sum.bit_length() - 1) + abs_max.bit_length() - 1
    w = limit + 1 if low >= 4 * limit else 1 + Decimal(
        2 * abs_sum ** (q - 1) * abs_max + 1).adjusted()
    if w > limit:
        raise ValueError(f"the coefficients of f^q, q of {q.bit_length()} bits, are bounded only "
                         f"by S^(q-1)*M, S = sum |a| of {abs_sum.bit_length()} bits and M = max "
                         f"|a| of {abs_max.bit_length()} bits, beyond the exact-norm coefficient "
                         f"bound: twice it plus one must have at most {limit} digits")
    slots = q * (n - 1) + 1
    if slots * w > MAX_POWER_DIGITS:
        raise ValueError(f"f^{q} of a length-{n} polynomial packs into {slots} slots of {w} "
                         f"digits, beyond the exact-norm capacity of {MAX_POWER_DIGITS} digits")
    return slots, w


def norm_2q_exact(a, q: int) -> int:
    """Exact 2q-th power of the L^2q norm of f with integer coefficients a."""
    if not (isinstance(a, memoryview) and a.format == "b"):
        a = tuple(a)
    signs = _signs(a)
    if signs is None:
        abs_sum, abs_max = sum(map(abs, a)), max(map(abs, a))
    else:
        abs_sum, abs_max = len(signs) - signs.count(0), 1
    slots, w = power_layout(len(a), q, abs_sum, abs_max)
    if q == 1:
        return abs_sum if signs is not None else sum(map(mul, a, a))
    if abs_sum < 2:
        return abs_sum
    with localcontext(_EXACT):
        power = (_pack_ints(a, w) if signs is None else _pack_signs(signs, w)) ** q
        # the leading 1 fixes the length of the digit string
        digits = str(power + Decimal("1" + ("5" + "0" * (w - 1)) * slots))
    del power
    return _centred_square_sum(digits, w, slots)


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
    """Sum of (s - h)^2, h = 5 * 10^(w-1), over the `count` w-digit slots s
    after the leading digit of `digits`: sum s^2 - 2h sum s + count h^2, one
    chunk of slots at a time."""
    squares = total = 0
    step = _CHUNK * w
    for start in range(1, len(digits), step):
        chunk = digits[start : start + step].encode()
        slots = list(map(int, struct.unpack(f"{w}s" * (len(chunk) // w), chunk)))
        squares += sum(map(mul, slots, slots))
        total += sum(slots)
    h = 5 * 10 ** (w - 1)
    return squares - 2 * h * total + count * h * h
