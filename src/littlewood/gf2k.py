"""Galois polynomials: additive characters of GF(2^k) along the powers of theta.

Field elements are bitmasks over the polynomial basis.  The field for each k
uses the lexicographically smallest primitive polynomial c of degree k, so the
construction is deterministic, and theta = x is a primitive element.  The
trace bits s_j = Tr(beta*theta^j) form an m-sequence: c(theta) = 0 gives
s_(j+k) = XOR of s_(j+i) over the terms x^i (i < k) of c, and since
c(x)^(2^t) = c(x^(2^t)) over GF(2), also s_(j+k*2^t) = XOR of s_(j+i*2^t).
The first k bits come from the trace directly; the rest are filled 2^t at a
time by shifting and XORing one big integer holding the bits so far.
"""
from __future__ import annotations

from functools import lru_cache

# Largest field exponent k of GF(2^k).
MAX_K = 24
# bit '0' -> 1 and bit '1' -> -1, as signed bytes
_SIGN = bytes.maketrans(b"01", b"\x01\xff")


def _gf2_mulmod(a: int, b: int, poly: int, k: int) -> int:
    r = 0
    top = 1 << k
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return r


def _gf2_powmod(a: int, e: int, poly: int, k: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _gf2_mulmod(r, a, poly, k)
        a = _gf2_mulmod(a, a, poly, k)
        e >>= 1
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def primitive_polynomial(k: int) -> int:
    """Lexicographically smallest primitive polynomial of degree k, 2 <= k <= MAX_K.

    A degree-k polynomial with nonzero constant term is primitive exactly when
    x has multiplicative order 2^k - 1 modulo it (Lidl & Niederreiter,
    Thm 3.16): x^(2^k - 1) = 1 and x^((2^k - 1)/r) != 1 for each prime r
    dividing 2^k - 1.
    """
    if not 2 <= k <= MAX_K:
        raise ValueError(f"k must satisfy 2 <= k <= {MAX_K}")
    order = (1 << k) - 1
    cofactors = [order // r for r in _prime_factors(order)]
    return next(
        cand
        for cand in range((1 << k) | 1, 1 << (k + 1), 2)
        if _gf2_powmod(2, order, cand, k) == 1
        and all(_gf2_powmod(2, c, cand, k) != 1 for c in cofactors)
    )


def _trace_mask(k: int, poly: int) -> int:
    """Bitmask of the basis elements 2^i with trace 1.

    The trace is GF(2)-linear, so Tr(x) is the parity of x & mask.
    """
    mask = 0
    for i in range(k):
        e = 1 << i
        t = 0
        for _ in range(k):
            t ^= e
            e = _gf2_mulmod(e, e, poly, k)
        if t not in (0, 1):
            raise AssertionError("trace of a basis element must be 0 or 1")
        mask |= t << i
    return mask


def galois(k: int, beta: int = 1) -> tuple[int, ...]:
    """Coefficients of the Galois polynomial of length 2^k - 1.

    Coefficient j is (-1)^Tr(beta * theta^j) for the canonical primitive
    element theta; beta != 0 selects the additive character.
    """
    return tuple(_galois_signs(k, beta))


def _galois_signs(k: int, beta: int = 1) -> memoryview:
    """The coefficients of `galois(k, beta)` as signed bytes."""
    if beta == 0:
        raise ValueError("beta must be nonzero (the character must be nontrivial)")
    poly = primitive_polynomial(k)
    if not 0 < beta < 1 << k:
        raise ValueError(f"{beta} is not a nonzero field element")
    n = (1 << k) - 1
    signs = format(_trace_bits(k, beta, poly, n), f"0{n}b").encode()[::-1].translate(_SIGN)
    return memoryview(signs).cast("b")


def _trace_bits(k: int, beta: int, poly: int, n: int) -> int:
    """The integer whose bit j is s_j = Tr(beta * theta^j), for j < n."""
    mask = _trace_mask(k, poly)
    bits, e = 0, beta
    for j in range(k):
        bits |= (bin(e & mask).count("1") & 1) << j
        e = _gf2_mulmod(e, 2, poly, k)
    taps = [i for i in range(k) if poly >> i & 1]
    known = k
    while known < n:
        # bits known..known+d-1 are s_(j+k*d) for the d values of j from
        # known-k*d; d = 2^t is the largest with k*d <= known
        d = 1 << ((known // k).bit_length() - 1)
        window = bits >> (known - k * d)
        new = 0
        for i in taps:
            new ^= window >> (i * d)
        bits |= (new & ((1 << d) - 1)) << known
        known += d
    return bits & ((1 << n) - 1)
