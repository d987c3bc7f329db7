"""Galois polynomials: additive characters of GF(2^k) along the powers of theta.

Field elements are bitmasks over the polynomial basis.  The field for each k
uses the lexicographically smallest primitive polynomial c of degree k, so the
construction is deterministic, and theta = x is a primitive element.  The
trace bits s_j = Tr(beta*theta^j) form an m-sequence: c(theta) = 0 gives
s_(j+k) = XOR of s_(j+i) over the terms x^i (i < k) of c, and since
c(x)^(2^t) = c(x^(2^t)) over GF(2), also s_(j+k*2^t) = XOR of s_(j+i*2^t).
The first k bits come from Newton's identities on c: Tr(theta^i) is the i-th
power sum of the roots of c, and s_j is the XOR of Tr(theta^(i+j)) over the
bits i of beta.  The rest are filled 2^t at a time by shifting and XORing
one big integer holding the bits so far.  `_check_exponent` is the one rule
for k, 2 <= k <= MAX_K, which `polynomials.check_convergence` calls too;
`_galois_signs` checks it and beta, 1 <= beta < 2^k (the nontrivial characters),
both by `littlewood._check_int`, before it builds the field.
"""
from __future__ import annotations

from littlewood import _check_int
from littlewood.special_numbers import _prime_factors

# Largest field exponent k of GF(2^k).
MAX_K = 24
# _BIT_SIGNS[b] maps a byte to the sign of its bit b: 1 when clear, -1 (255) when set
_BIT_SIGNS = [bytes((x >> b & 1) * 254 + 1 for x in range(256)) for b in range(8)]


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


def _check_exponent(k: int) -> None:
    """Raise ValueError unless k is an int in 2..MAX_K: the one rule for field exponents."""
    _check_int("k", k, 2, MAX_K)


def primitive_polynomial(k: int) -> int:
    """Lexicographically smallest primitive polynomial of degree k, 2 <= k <= MAX_K.

    A degree-k polynomial with nonzero constant term is primitive exactly when
    x has multiplicative order 2^k - 1 modulo it (Lidl & Niederreiter,
    Thm 3.16): x^(2^k - 1) = 1 and x^((2^k - 1)/r) != 1 for each prime r
    dividing 2^k - 1.
    """
    _check_exponent(k)
    order = (1 << k) - 1
    cofactors = [order // r for r in _prime_factors(order)]
    return next(
        cand
        for cand in range((1 << k) | 1, 1 << (k + 1), 2)
        if _gf2_powmod(2, order, cand, k) == 1
        and all(_gf2_powmod(2, c, cand, k) != 1 for c in cofactors)
    )


def galois(k: int, beta: int = 1) -> tuple[int, ...]:
    """Coefficients of the Galois polynomial of length 2^k - 1.

    Coefficient j is (-1)^Tr(beta * theta^j) for the canonical primitive
    element theta; a field element 0 < beta < 2^k selects the character.
    """
    return tuple(_galois_signs(k, beta))


def _galois_signs(k: int, beta: int = 1) -> memoryview:
    """The coefficients of `galois(k, beta)` as signed bytes; ValueError
    unless 2 <= k <= MAX_K and 1 <= beta < 2^k, before any allocation."""
    _check_exponent(k)
    _check_int("beta", beta, 1, (1 << k) - 1)
    poly = primitive_polynomial(k)
    n = (1 << k) - 1
    # byte i of the trace bits holds s_(8i+b) at bit b, so the bytes expand
    # into signs one bit plane at a time, straight into their slots
    raw = _trace_bits(k, beta, poly, n).to_bytes((n + 7) // 8, "little")
    signs = bytearray(8 * len(raw))
    for b, table in enumerate(_BIT_SIGNS):
        signs[b::8] = raw.translate(table)
    return memoryview(signs)[:n].cast("b")


def _trace_bits(k: int, beta: int, poly: int, n: int) -> int:
    """The integer whose bit j is s_j = Tr(beta * theta^j), for j < n."""
    # bit i of sums is p_i = Tr(theta^i), the i-th power sum of the roots of
    # c; Newton's identities over GF(2), with c_k = 1, give p_0 = k and
    # p_i = i c_(k-i) + XOR of c_(k-j) p_(i-j) over 0 < j < i, j <= k, where
    # c_m = 0 for m < 0 (so for i > k this is c's recurrence)
    sums = k & 1
    for i in range(1, 2 * k - 1):
        p = i & poly >> (k - i) if i <= k else 0
        for j in range(1, min(i, k + 1)):
            p ^= poly >> (k - j) & sums >> (i - j)
        sums |= (p & 1) << i
    # beta = sum of theta^i over its bits i, so s_j = XOR of p_(i+j) over them
    bits = 0
    for j in range(k):
        bits |= ((beta & sums >> j).bit_count() & 1) << j
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
