"""Exact sums of squared coefficients of powers of polynomials with coefficients in {-1, 0, 1}.

`norm_2q_exact(a, q)`, the exact-norm engine, returns the 2q-th power of the
L^2q norm on the unit circle of f with the coefficients `a`: the sum of c_j^2
over the coefficients of f^q = sum c_j x^j.  Every polynomial the package
studies has coefficients 0, 1 and -1, and the engine takes exactly those, as
signed bytes: a memoryview of format "b", as the private builders in
`littlewood.polynomials` and `littlewood.gf2k` make, is copied once with
`tobytes`, and any other iterable is packed once into an `array("b")`.  Any
other coefficient raises ValueError before the power is packed.

For q >= 2 it uses Kronecker substitution in decimal: f is evaluated at
X = 10^w, where w digits hold 2B + 1 for the bound B = S^(q-1) on |c_j|, S
the number of nonzero coefficients.  f(X) is parsed from one digit string
whose w-digit slots hold a_j + 1, and sum_j X^j is subtracted.  The C
`decimal` module (libmpdec, which multiplies large numbers with
number-theoretic transforms) raises f(X) to the q-th power in a context that
traps any rounding, so a result is exact or an exception.  Adding
h = 5 * 10^(w-1) to every w-digit slot makes each slot c_j + h, in [0, 10^w),
so no carry crosses a slot; the slots are then read back from the digit
string _CHUNK slots at a time, so the chunk size bounds the decoder's live
Python objects.  Both runs of equal slots, 1 and h, are built in libmpdec
arithmetic (`_fill`), and each stage replaces the one big number before it:
f(X), its power, the power plus the offset, then its digits.

One rule, `power_layout`, admits a power: f^q packs into q(n - 1) + 1 slots
of w digits, and slots * w may be at most MAX_POWER_DIGITS, at 0.07-0.26 us
and, above the process's size before the call, 2.5-2.9 bytes of peak RSS per
digit at q = 2 and 2.7-3.2 at q >= 3 (2-vCPU x86-64, Python 3.11.7; at the
budget the worst took 25.5 s and 311 MB).  int() parses each slot, so 2B + 1
must pass `littlewood._check_digits`, with S^(q-1) as its lower bound.  These,
a q that `littlewood._check_int` refuses (not an int >= 1), and q >= 2 without
the C `decimal` module (its pure-Python fallback is quadratic) raise ValueError
before any big number is built.
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

from littlewood import _check_digits, _check_int

try:
    import _decimal  # noqa: F401  (the C implementation behind `decimal`)
    C_DECIMAL = True
except ImportError:
    C_DECIMAL = False

# Cost budget in digits of the packed power, slots * w (worst seen: 25.5 s, 311 MB).
MAX_POWER_DIGITS = 10**8
# Slots decoded per step.
_CHUNK = 1 << 12
# The bytes of the coefficients 0, 1 and -1.
_UNIT_BYTES = b"\x00\x01\xff"
# A coefficient byte (1, 0 or -1 as 255) -> the digit of its value plus 1.
_SHIFTED_DIGIT = bytes(49 + (b == 1) - (b == 255) for b in range(256))
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def power_layout(n: int, q: int, nonzeros: int) -> tuple[int, int]:
    """(slots, w <= L) of f^q packed at 10^w, or (0, 0) if q = 1 or f is 0 or +-x^k, for
    f of length n with `nonzeros` coefficients +-1 and the others 0, or ValueError."""
    _check_int("q", q, 1)
    if q < 2 or nonzeros < 2:
        return 0, 0
    if not C_DECIMAL:
        raise ValueError("exact norms at q >= 2 need the C decimal module (_decimal); "
                         "its pure-Python fallback multiplies in quadratic time")
    w = len(str(_check_digits(
        f"the exact-norm coefficient bound 2 S^(q-1) + 1 of f^q (q of {q.bit_length()} bits, "
        f"S = sum |a| of {nonzeros.bit_length()} bits)",
        (q - 1) * (nonzeros.bit_length() - 1), lambda: 2 * nonzeros ** (q - 1) + 1)))
    slots = q * (n - 1) + 1
    if slots * w > MAX_POWER_DIGITS:
        raise ValueError(f"f^{q} of a length-{n} polynomial packs into {slots} slots of {w} "
                         f"digits, beyond the exact-norm capacity of {MAX_POWER_DIGITS} digits")
    return slots, w


def norm_2q_exact(a, q: int) -> int:
    """Exact 2q-th power of the L^2q norm of f with coefficients a, each 0, 1 or -1."""
    signs = _signs(a)
    nonzeros = len(signs) - signs.count(0)
    slots, w = power_layout(len(signs), q, nonzeros)
    if not slots:  # q = 1, or f is 0 or +-x^k: the sum of a_j^2
        return nonzeros
    with localcontext(_EXACT):
        # f(10^w) from one digit string whose slots hold a_j + 1
        power = Decimal(_pack_signs(signs, w))
        power -= _fill(w, len(signs), 1)
        power **= q
        # each slot gains h = 5 * 10^(w-1); the leading 1 fixes the string's length
        power += _fill(w, slots, 5 * 10 ** (w - 1), 1)
        digits = str(power)
    del power
    return _centred_square_sum(digits, w, slots)


def _signs(a) -> bytes:
    """The coefficients a as signed bytes, or ValueError unless each is 0, 1 or -1."""
    try:
        raw = (a.tobytes() if isinstance(a, memoryview) and a.format == "b"
               else array("b", a).tobytes())
        if not raw.translate(None, _UNIT_BYTES):
            return raw
    except (OverflowError, TypeError):
        pass
    raise ValueError("exact norms take polynomials whose coefficients are 0, 1 and -1")


def _pack_signs(signs: bytes, w: int) -> str:
    """The w-digit slots of a_j + 1, highest first, for coefficients a given
    as signed bytes 0, 1 and -1 (255)."""
    slots = bytearray(b"0") * (len(signs) * w)
    slots[w - 1 :: w] = signs[::-1].translate(_SHIFTED_DIGIT)
    return slots.decode()


def _fill(w: int, count: int, c: int, top: int = 0) -> Decimal:
    """top * 10^(w count) + c * sum 10^(w j) over j < count, for c < 10^w, by
    doubling: the slots filled so far are shifted past themselves and added.
    One exact division by 10^w - 1 did the same at a higher peak RSS."""
    fill, filled = Decimal(c), 1
    for bit in bin(count)[3:]:
        fill += fill.scaleb(w * filled)
        filled *= 2
        if bit == "1":
            fill = fill.scaleb(w) + c
            filled += 1
    return fill + Decimal(top).scaleb(w * count) if top else fill


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
