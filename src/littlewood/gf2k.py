"""Galois polynomials: additive characters of GF(2^k) along the powers of theta.

Field elements are bitmasks over the polynomial basis.  The field for each k
uses the lexicographically smallest primitive polynomial of degree k, so the
construction is deterministic, and theta = x is a primitive element.  The
coefficients come from one vectorised pass: the elements beta*theta^j fill an
int64 array by doubling, and the trace, being GF(2)-linear, is the parity of
a masked popcount.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


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
    """Lexicographically smallest primitive polynomial of degree k, 2 <= k <= 24.

    A degree-k polynomial with nonzero constant term is primitive exactly when
    x has multiplicative order 2^k - 1 modulo it (Lidl & Niederreiter,
    Thm 3.16): x^(2^k - 1) = 1 and x^((2^k - 1)/r) != 1 for each prime r
    dividing 2^k - 1.
    """
    if not 2 <= k <= 24:
        raise ValueError("k must satisfy 2 <= k <= 24")
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


def _elements(k: int, beta: int, poly: int) -> np.ndarray:
    """x[j] = beta * theta^j for j < 2^k - 1, filled by doubling.

    The step is x[m:2m] = theta^m * x[:m].  Multiplying by the constant
    theta^m is GF(2)-linear, so it is the XOR over the bits i of x of
    theta^m * 2^i: k vector operations per doubling.
    """
    order = (1 << k) - 1
    x = np.empty(order, dtype=np.int64)
    x[0] = beta
    bit = np.empty(order // 2 + 1, dtype=np.int64)
    m, theta_m = 1, 2
    while m < order:
        size = min(m, order - m)
        src, dst, tmp = x[:size], x[m:m + size], bit[:size]
        dst[:] = 0
        for i in range(k):
            np.right_shift(src, i, out=tmp)
            np.bitwise_and(tmp, 1, out=tmp)
            np.multiply(tmp, _gf2_mulmod(theta_m, 1 << i, poly, k), out=tmp)
            np.bitwise_xor(dst, tmp, out=dst)
        m, theta_m = 2 * m, _gf2_mulmod(theta_m, theta_m, poly, k)
    return x


def galois(k: int, beta: int = 1) -> tuple[int, ...]:
    """Coefficients of the Galois polynomial of length 2^k - 1.

    Coefficient j is (-1)^Tr(beta * theta^j) for the canonical primitive
    element theta; beta != 0 selects the additive character.
    """
    if beta == 0:
        raise ValueError("beta must be nonzero (the character must be nontrivial)")
    poly = primitive_polynomial(k)
    if not 0 < beta < 1 << k:
        raise ValueError(f"{beta} is not a nonzero field element")
    parity = np.bitwise_count(_elements(k, beta, poly) & _trace_mask(k, poly)) & 1
    return tuple((1 - 2 * parity.astype(np.int8)).tolist())
