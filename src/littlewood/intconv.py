"""Exact sums of squared coefficients of integer polynomial powers.

`power_square_sum(a, q)` returns the sum of c_j^2 over the coefficients of
f^q = sum c_j x^j, where f has the integer coefficients `a`.  For q >= 2 it
works modulo a few NTT primes below 2^30 in numpy int64, so every product of
two residues stays below 2^60.  The number of primes follows from the bound
(sum |a|)^(q-1) * max |a| on |c_j|.  Per prime there is one forward
transform of f, a pointwise q-th power and one inverse transform; a
vectorised Garner CRT then recovers the signed coefficients exactly.  A power
longer than MAX_LEN coefficients, or a bound beyond the product of all the
primes, raises ValueError: there is no slower fallback route.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# (prime, primitive root); each prime is c * 2^e + 1 with 2^e >= 2^21, so
# transforms up to length 2^21 are supported by every listed modulus.
_NTT_PRIMES = (
    (998244353, 3),
    (1004535809, 3),
    (469762049, 3),
    (167772161, 3),
    (754974721, 11),
)
MAX_LEN = 1 << 21
_MODULUS = math.prod(prime for prime, _ in _NTT_PRIMES)
_INT64_MAX = (1 << 63) - 1


def capacity_error(n: int, q: int, abs_sum: int, abs_max: int) -> str | None:
    """Why f^q is beyond this engine, or None if it is not, for f of length n
    with sum |a| = abs_sum and max |a| = abs_max."""
    if q < 2:
        return None
    out_len = q * (n - 1) + 1
    if out_len > MAX_LEN:
        return (f"f^{q} of a length-{n} polynomial has {out_len} coefficients, "
                f"beyond the exact-norm capacity {MAX_LEN}")
    if 2 * abs_sum ** (q - 1) * abs_max >= _MODULUS:
        return (f"the coefficients of f^{q} are bounded only by {abs_sum}^{q - 1}"
                f"*{abs_max}, beyond what the NTT primes can recover")
    return None


def power_square_sum(a, q: int) -> int:
    """Exact sum of the squared coefficients of f^q for integer coefficients a."""
    a = tuple(a)
    if q == 1 or not any(a):
        return sum(c * c for c in a)
    abs_sum, abs_max = sum(map(abs, a)), max(map(abs, a))
    reason = capacity_error(len(a), q, abs_sum, abs_max)
    if reason:
        raise ValueError(reason)
    bound = abs_sum ** (q - 1) * abs_max
    primes = []
    modulus = 1
    for prime, root in _NTT_PRIMES:
        primes.append((prime, root))
        modulus *= prime
        if modulus > 2 * bound:
            break

    out_len = q * (len(a) - 1) + 1
    base = np.array(a, dtype=np.int64 if abs_max <= _INT64_MAX else object)
    size = 1 << (out_len - 1).bit_length()
    residues = []
    for prime, root in primes:
        x = np.zeros(size, dtype=np.int64)
        x[: len(a)] = base % prime
        _forward(x, prime, root)
        x = _pow_mod(x, q, prime)
        _inverse(x, prime, root)
        residues.append(x[:out_len] * pow(size, -1, prime) % prime)
    c = _crt_signed(residues, [prime for prime, _ in primes])

    if c.dtype == np.int64:
        peak = int(np.abs(c).max())
        if peak * peak * out_len <= _INT64_MAX:
            return int(np.dot(c, c))
    return sum(x * x for x in c.tolist())


@lru_cache(maxsize=None)
def _twiddles(prime: int, root: int, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Powers w^j and w^-j, j < half, of a primitive (2*half)-th root of unity."""
    w = pow(root, (prime - 1) // (2 * half), prime)
    return _powers(w, half, prime), _powers(pow(w, -1, prime), half, prime)


def _powers(w: int, count: int, prime: int) -> np.ndarray:
    out = np.ones(count, dtype=np.int64)
    m = 1
    while m < count:
        out[m : 2 * m] = out[:m] * w % prime
        w = w * w % prime
        m *= 2
    return out


def _forward(x: np.ndarray, prime: int, root: int) -> None:
    """In-place decimation-in-frequency NTT; the output is in bit-reversed order."""
    half = len(x) // 2
    while half:
        blocks = x.reshape(-1, 2, half)
        lo, hi = blocks[:, 0], blocks[:, 1]
        total = lo + hi
        diff = (lo - hi) * _twiddles(prime, root, half)[0] % prime
        lo[:] = total % prime
        hi[:] = diff
        half //= 2


def _inverse(x: np.ndarray, prime: int, root: int) -> None:
    """In-place decimation-in-time inverse NTT of a bit-reversed input, unscaled."""
    half = 1
    while half < len(x):
        blocks = x.reshape(-1, 2, half)
        lo, hi = blocks[:, 0], blocks[:, 1]
        t = hi * _twiddles(prime, root, half)[1] % prime
        total = lo + t
        lo -= t
        hi[:] = lo % prime
        lo[:] = total % prime
        half *= 2


def _pow_mod(x: np.ndarray, q: int, prime: int) -> np.ndarray:
    result = None
    while True:
        if q & 1:
            result = x if result is None else result * x % prime
        q >>= 1
        if not q:
            return result
        x = x * x % prime


def _crt_signed(residues: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """Garner's mixed-radix CRT, centred into (-M/2, M/2] for M the prime product.

    The result is int64 when M fits in int64 and an object array of Python
    ints otherwise.
    """
    digits: list[np.ndarray] = []
    prefix = 1
    for r, m in zip(residues, primes):
        acc = np.zeros_like(r)
        for d, mj in zip(reversed(digits), reversed(primes[: len(digits)])):
            acc = (acc * mj + d) % m
        digits.append((r - acc) % m * pow(prefix, -1, m) % m)
        prefix *= m
    dtype = np.int64 if prefix <= _INT64_MAX else object
    value = np.zeros(len(residues[0]), dtype=dtype)
    for d, m in zip(reversed(digits), reversed(primes)):
        value = value * m + d.astype(dtype)
    return np.where(value > prefix // 2, value - prefix, value)
