"""Tests for polynomial construction, fields, exact norms, and convergence."""
import hashlib
import random
import time
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import isprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from littlewood.gf2k import _galois_signs, _gf2_mulmod, galois, primitive_polynomial
from littlewood.intconv import (
    _CHUNK,
    MAX_DIGITS,
    MAX_LEN,
    _centred_square_sum,
    _signs,
    capacity_error,
    power_square_sum,
)
from littlewood.limits import fekete_limit_recursive, galois_limit_recursive
from littlewood.polynomials import (
    _fekete_signs,
    _shifted_signs,
    convergence_table,
    fekete,
    is_odd_prime,
    legendre,
    norm_2q_exact,
    norm_2q_quadrature,
    shifted_fekete,
)


def test_is_odd_prime():
    primes = {3, 5, 7, 11, 101, 10007, 16127}
    for n in range(3, 120, 2):
        expected = all(n % d for d in range(2, n)) and n > 2
        assert is_odd_prime(n) == expected, n
    assert all(is_odd_prime(p) for p in primes)
    assert not is_odd_prime(2)
    assert not is_odd_prime(9)
    # strong pseudoprimes to the witnesses 2..17, 2..23 and 2..37 respectively
    assert not is_odd_prime(341550071728321)  # 10670053 * 32010157
    assert not is_odd_prime(3825123056546413051)  # 149491 * 747451 * 34233211
    assert not is_odd_prime(318665857834031151167461)  # 399165290221 * 798330580441
    with pytest.raises(ValueError):
        is_odd_prime(3317044064679887385961981)


def test_is_odd_prime_matches_sympy():
    rng = random.Random(41)
    samples = [rng.randrange(3, 10**digits) for digits in (4, 8, 12, 16, 20, 24)
               for _ in range(200)]
    small_primes = [n for n in range(3, 2000) if isprime(n)]
    samples += [rng.choice(small_primes) * rng.randrange(3, 10**12) for _ in range(200)]
    for n in samples:
        assert is_odd_prime(n) == (n % 2 == 1 and isprime(n)), n


def test_legendre_examples():
    assert legendre(2, 7) == 1
    assert legendre(0, 5) == 0
    assert legendre(2, 3) == -1
    with pytest.raises(ValueError):
        legendre(1, 9)


def test_legendre_multiplicative():
    p = 23
    for a in range(1, p):
        for b in range(1, p):
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_fekete_small():
    assert fekete(3) == (0, 1, -1)
    assert fekete(5) == (0, 1, -1, -1, 1)
    for p in (7, 11, 13, 101):
        coeffs = fekete(p)
        assert coeffs[0] == 0
        assert sum(coeffs) == 0
        assert all(c in (-1, 1) for c in coeffs[1:])
        assert coeffs == tuple(legendre(j, p) for j in range(p))


def test_shifted_fekete():
    assert shifted_fekete(5, 0) == fekete(5)
    assert shifted_fekete(5, 1) == (1, -1, -1, 1, 0)
    base = fekete(11)
    for r in range(-7, 13):
        coeffs = shifted_fekete(11, r)
        assert sorted(coeffs) == sorted(base)  # cyclic shift
        assert coeffs.count(0) == 1
        assert coeffs == tuple(base[(j + r) % 11] for j in range(11))


def _times_x(a: int, poly: int) -> int:
    """a * x modulo poly over GF(2), for a of lower degree than poly."""
    a <<= 1
    return a ^ poly if a >> (poly.bit_length() - 1) else a


def _order_of_x(poly: int) -> int:
    """Multiplicative order of x modulo poly, by powering until x^j = 1."""
    e, j = _times_x(1, poly), 1
    while e != 1:
        e, j = _times_x(e, poly), j + 1
    return j


def _is_primitive_reference(poly: int, k: int) -> bool:
    coeffs = [int(b) for b in bin(poly)[2:]]  # highest degree first
    return gf_irreducible_p(coeffs, 2, ZZ) and _order_of_x(poly) == (1 << k) - 1


def test_primitive_polynomial_small():
    assert primitive_polynomial(2) == 0b111
    with pytest.raises(ValueError):
        primitive_polynomial(1)
    with pytest.raises(ValueError):
        primitive_polynomial(25)


def test_primitive_polynomial_is_least_primitive():
    for k in range(2, 13):
        poly = primitive_polynomial(k)
        assert poly.bit_length() == k + 1 and poly & 1
        assert _is_primitive_reference(poly, k), k
        for cand in range((1 << k) | 1, poly, 2):
            assert not _is_primitive_reference(cand, k), (k, cand)


def test_galois_balanced():
    rng = random.Random(7)
    for k in range(2, 13):
        top = 1 << k
        for beta in {1, 2, top - 1, rng.randrange(1, top)}:
            assert galois(k, beta).count(-1) == 1 << (k - 1), (k, beta)


@st.composite
def _field_shift(draw):
    k = draw(st.integers(2, 12))
    n = (1 << k) - 1
    return k, draw(st.integers(0, n - 1)), draw(st.integers(1, n))


@settings(max_examples=60, deadline=None)
@given(_field_shift())
@example((2, 1, 1))
@example((12, 4094, 4095))
def test_galois_shift_property(case):
    # galois(k, beta * theta^s)[j] = galois(k, beta)[(j + s) mod n]
    k, s, beta = case
    n = (1 << k) - 1
    poly = primitive_polynomial(k)
    shifted = beta
    for _ in range(s):
        shifted = _times_x(shifted, poly)
    base = galois(k, beta)
    assert galois(k, shifted) == tuple(base[(j + s) % n] for j in range(n))


# sha256 of the int8 bytes of galois(k, beta), recorded from an independent
# table-based construction (antilog and trace tables) to pin the output
GALOIS_DIGESTS = {
    (2, 1): "16936d11fec03b650b80969a5865726bfb4cc002f91f436fc7ea45269a57f0b3",
    (2, 3): "ffc7b292dff0b7bab76c5e7a1ea4704f33f985ce9529b52ad4e033e8b3bec7ec",
    (8, 1): "1946eb5c8f19f4b355356c46b0ec9248e730ea4575815c94c3c20dd5a42c6c00",
    (8, 3): "a0edcf1e70734381093c21b26f88220f3148e2ad06948ec03a432ad45aa3a35a",
    (16, 1): "d854878ef7d540c31616a9bed781ca8da8904c844b227115b50931493929eff0",
    (16, 3): "dcb45b8d6d2e281474b73079065bb4be42f1d9a3d5d441f352d90e2084e63f65",
    (20, 1): "1994928ed2d52b586c17a20e988089185e369df840bf19022a88281cc2503dee",
    (20, 3): "c124fb6a2a14cffbdae793f70f803be2af3a7c30e9578a9d6b4c4a84856688cc",
    # recorded from the vectorised doubling pass, before the m-sequence
    # recurrence replaced it
    (22, 1): "e3415f7487a538309a04881db9c02fdba3c864713e2a667086de95d7fc24f281",
    (24, 1): "81c96a117c06d5a2e6182dcb47741e91c20aec8444112ad12c93e92288dca315",
}


def test_galois_pinned_digests():
    for (k, beta), digest in GALOIS_DIGESTS.items():
        coeffs = np.array(galois(k, beta), dtype=np.int8)
        assert hashlib.sha256(coeffs.tobytes()).hexdigest() == digest, (k, beta)


def _galois_by_trace(k: int, beta: int) -> tuple[int, ...]:
    """(-1)^Tr(beta * theta^j) with Tr(e) = e + e^2 + ... + e^(2^(k-1)),
    straight from the definition."""
    poly = primitive_polynomial(k)
    out, e = [], beta
    for _ in range((1 << k) - 1):
        trace, power = 0, e
        for _ in range(k):
            trace ^= power
            power = _gf2_mulmod(power, power, poly, k)
        assert trace in (0, 1)
        out.append(1 - 2 * trace)
        e = _gf2_mulmod(e, 2, poly, k)
    return tuple(out)


@st.composite
def _field_element(draw):
    k = draw(st.integers(2, 10))
    return k, draw(st.integers(1, (1 << k) - 1))


@settings(max_examples=40, deadline=None)
@given(_field_element())
@example((2, 1))
@example((10, 1023))
def test_galois_matches_trace_definition(case):
    k, beta = case
    assert galois(k, beta) == _galois_by_trace(k, beta)


def test_galois_small():
    assert galois(2) == (1, -1, -1)
    for k in range(2, 11):
        coeffs = galois(k)
        assert len(coeffs) == (1 << k) - 1
        assert all(c in (-1, 1) for c in coeffs)
        # character sum over the nonzero elements
        assert sum(coeffs) == -1
    with pytest.raises(ValueError, match="must be nonzero"):
        galois(3, beta=0)
    for beta in (8, 9, -1, -5):
        with pytest.raises(ValueError, match="not a nonzero field element"):
            galois(3, beta)


def test_norm_exact_hand_values():
    assert norm_2q_exact((1,), 3) == 1
    assert norm_2q_exact(fekete(3), 2) == 6
    assert norm_2q_exact(fekete(5), 2) == 28
    assert norm_2q_exact(galois(2), 2) == 11


def test_norm_parseval_base_case():
    for p in (5, 13, 101):
        assert norm_2q_exact(fekete(p), 1) == p - 1
    for k in (3, 6, 8):
        assert norm_2q_exact(galois(k), 1) == (1 << k) - 1


def test_norm_quadrature_agreement():
    assert norm_2q_quadrature((1,), 4) == pytest.approx(1.0, abs=1e-12)
    assert norm_2q_quadrature(fekete(3), 2) == pytest.approx(6.0, abs=1e-9)
    exact = norm_2q_exact(fekete(101), 3)
    quad = norm_2q_quadrature(fekete(101), 3)
    assert abs(quad - exact) / exact < 1e-8


def test_norm_quadrature_random_littlewood():
    rng = random.Random(33)
    for _ in range(20):
        degree = rng.randrange(1, 512)
        coeffs = [rng.choice((-1, 1)) for _ in range(degree + 1)]
        q = rng.randrange(1, 5)
        exact = norm_2q_exact(coeffs, q)
        quad = norm_2q_quadrature(coeffs, q)
        assert abs(quad - exact) / exact < 1e-9


def test_l2_shift_invariant_l4_not():
    p = 11
    l2 = {norm_2q_exact(shifted_fekete(p, r), 1) for r in range(p)}
    assert l2 == {p - 1}
    l4 = {norm_2q_exact(shifted_fekete(p, r), 2) for r in range(p)}
    assert len(l4) > 1


def test_galois_beta_multiset():
    # the beta-characters enumerate the cyclic shifts, so the norm multiset
    # matches; individual norms differ (k=2 already gives {11, 19})
    for k in (2, 3, 5, 8):
        base = galois(k)
        n = len(base)
        shift_norms = sorted(
            norm_2q_exact(base[s:] + base[:s], 2) for s in range(n)
        )
        beta_norms = sorted(
            norm_2q_exact(galois(k, beta=b), 2) for b in range(1, n + 1)
        )
        assert beta_norms == shift_norms
        assert {norm_2q_exact(galois(k, beta=b), 1) for b in range(1, n + 1)} == {n}
    assert sorted(norm_2q_exact(galois(2, beta=b), 2) for b in (1, 2, 3)) == [11, 11, 19]


def _kronecker_power_coefficients(a, q):
    """Coefficients of f^q by one big-integer power: f is evaluated at 2^bits
    with room for every signed coefficient of f^q, and the result is read
    back digit by digit."""
    bound = sum(map(abs, a)) ** (q - 1) * max(map(abs, a))
    bits = bound.bit_length() + 2
    value = sum(c << (bits * i) for i, c in enumerate(a)) ** q
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    for _ in range(q * (len(a) - 1) + 1):
        digit = value & mask
        if digit >= half:
            digit -= 1 << bits
        out.append(digit)
        value = (value - digit) >> bits
    assert value == 0
    return out


@st.composite
def _powers(draw):
    """(coefficients, q) with q <= 6, length <= 400 and |coefficients| up to
    10^20, within the coefficient bound: 2B + 1 below 10^MAX_DIGITS."""
    q = draw(st.integers(1, 6))
    n = draw(st.integers(1, 400))
    digits = [e for e in range(21)
              if q == 1 or 2 * (n * 10**e) ** (q - 1) * 10**e + 1 < 10**MAX_DIGITS]
    top = 10 ** draw(st.sampled_from(digits))
    return draw(st.lists(st.integers(-top, top), min_size=n, max_size=n)), q


@settings(max_examples=150, deadline=None)
@given(_powers())
@example(([10**20, -(10**20), 3] * 100, 2))   # integer route, 43-digit slots
@example(([1, -1] * 200, 6))                   # byte route, 14-digit slots
@example(([0, 0, 0], 4))
def test_power_square_sum_matches_oracle(case):
    coeffs, q = case
    expected = sum(c * c for c in _kronecker_power_coefficients(coeffs, q))
    assert power_square_sum(coeffs, q) == expected
    assert norm_2q_exact(tuple(coeffs), q) == expected


def test_convolution_routes_agree():
    # the integer route at slot widths from a few digits to about 30, and
    # the q = 1 shortcut, agree with the big-integer oracle
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(1, 300)
        bound = 10 ** rng.randrange(1, 8)
        a = [rng.randrange(-bound, bound + 1) for _ in range(n)]
        for q in (1, 2, 3):
            expected = sum(c * c for c in _kronecker_power_coefficients(a, q))
            assert power_square_sum(a, q) == expected
    assert power_square_sum([], 2) == 0
    assert power_square_sum([3], 2) == 81


def test_convolution_large_coefficients():
    # 20-digit coefficients give slots of about 43 digits, near the bound
    rng = random.Random(6)
    a = [rng.randrange(-(10**20), 10**20) for _ in range(200)]
    expected = sum(c * c for c in _kronecker_power_coefficients(a, 2))
    assert power_square_sum(a, 2) == expected


def test_power_square_sum_beyond_capacity():
    rng = random.Random(7)
    big = [rng.randrange(-(10**30), 10**30) for _ in range(150)]
    with pytest.raises(ValueError, match="coefficient bound"):
        power_square_sum(big, 2)
    with pytest.raises(ValueError, match="capacity"):
        power_square_sum([1] * (MAX_LEN // 2 + 1), 2)
    assert power_square_sum([1] * (MAX_LEN // 2), 1) == MAX_LEN // 2
    assert capacity_error((1 << 20) - 1, 2, (1 << 20) - 1, 1) is None   # Galois k = 20
    assert capacity_error((1 << 21) - 1, 2, (1 << 21) - 1, 1) is not None
    assert capacity_error(1 << 24, 1, 1 << 24, 1) is None
    # for fekete(5), 2 * 4^(q-1) + 1 first reaches 10^MAX_DIGITS at q = 74
    assert capacity_error(5, 74, 4, 1) is not None
    with pytest.raises(ValueError, match="coefficient bound"):
        power_square_sum(fekete(5), 74)
    expected = sum(c * c for c in _kronecker_power_coefficients(fekete(5), 73))
    assert power_square_sum(fekete(5), 73) == expected
    assert power_square_sum([], 3) == 0


def test_admission_refuses_in_bounded_time():
    # the coefficient bound is decided before its power is built, and q < 1
    # is refused before any arithmetic with q
    cases = [
        (lambda: norm_2q_exact((3,), 10**7), "coefficient bound"),
        (lambda: norm_2q_exact((3,), 10**9), "coefficient bound"),
        (lambda: power_square_sum((2, 1), (1 << 21) - 1), "coefficient bound"),
        (lambda: power_square_sum((1, 1), -1), "q must be >= 1"),
        (lambda: power_square_sum((1, 1), 0), "q must be >= 1"),
        (lambda: power_square_sum((), 0), "q must be >= 1"),
        (lambda: norm_2q_exact((1,), 0), "q must be >= 1"),
    ]
    for call, reason in cases:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=reason):
            call()
        assert time.perf_counter() - start < 0.05, reason
    start = time.perf_counter()
    assert capacity_error(2, (1 << 21) - 1, 6, 3) is not None
    assert time.perf_counter() - start < 0.05
    # a unit vector of length one is admitted at any q
    assert power_square_sum((-1,), 10**9 + 1) == 1


def test_builders_return_tuples_of_their_signs():
    for public, signs in ((fekete(101), _fekete_signs(101)),
                          (shifted_fekete(101, 37), _shifted_signs(101, 37)),
                          (shifted_fekete(101, -5), _shifted_signs(101, -5)),
                          (galois(7, 5), _galois_signs(7, 5))):
        assert type(public) is tuple
        assert signs.format == "b"
        assert public == tuple(signs)


def _as_routes(coeffs):
    """The same vector as a tuple, a list, a generator and, when each value
    fits a signed byte, a "b" memoryview."""
    routes = [tuple(coeffs), list(coeffs), (c for c in coeffs)]
    if all(-128 <= c < 128 for c in coeffs):
        routes.append(memoryview(array("b", coeffs)))
    return routes


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from((-1, 0, 1)), max_size=300), st.integers(1, 4))
@example([], 2)
@example([0, 0, 0], 3)
@example([-1], 4)
def test_power_square_sum_same_on_every_input_type(coeffs, q):
    assert _signs(coeffs) is not None
    expected = (sum(c * c for c in _kronecker_power_coefficients(coeffs, q))
                if coeffs else 0)
    for a in _as_routes(coeffs):
        assert power_square_sum(a, q) == expected, type(a)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=200),
       st.sampled_from((2, -3, 127, 128, -129, 10**30)),
       st.integers(0, 199), st.integers(1, 4))
def test_power_square_sum_integer_route(units, odd, where, q):
    coeffs = list(units)
    coeffs.insert(where % (len(coeffs) + 1), odd)
    routes = _as_routes(coeffs)
    assert all(_signs(a) is None for a in routes if not hasattr(a, "__next__"))
    abs_sum = sum(map(abs, coeffs))
    if capacity_error(len(coeffs), q, abs_sum, abs(odd)):
        with pytest.raises(ValueError, match="coefficient bound"):
            power_square_sum(coeffs, q)
        return
    expected = sum(c * c for c in _kronecker_power_coefficients(coeffs, q))
    for a in routes:
        assert power_square_sum(a, q) == expected, type(a)


@pytest.mark.parametrize("w", [1, 6, 19, 44])
@pytest.mark.parametrize("count", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_centred_square_sum_across_chunks(count, w):
    rng = random.Random(count * 100 + w)
    slots = [rng.randrange(10**w) for _ in range(count)]
    slots[-1] = 10**w - 1  # the last slot of the last chunk is read too
    digits = "1" + "".join(str(s).zfill(w) for s in slots)
    h = 5 * 10 ** (w - 1)
    assert _centred_square_sum(digits, w, count) == sum((s - h) ** 2 for s in slots)


def _traced_peak(call) -> int:
    """Bytes allocated by `call` at its peak, beyond what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    call()
    peak = tracemalloc.get_traced_memory()[1] - before
    if not tracing:
        tracemalloc.stop()
    return peak


def test_convergence_table_memory():
    # the signed bytes of the vector, the packed number, its power and one
    # chunk of slots; a tuple of Python ints would be 8 bytes per coefficient
    # before the ints themselves
    for k in (16, 20):
        primitive_polynomial(k)
    for q in (1, 2):
        fekete_limit_recursive(q), galois_limit_recursive(q)
    for args, limit_mb in ((("galois", 1, [20]), 4),
                           (("galois", 2, [16]), 4),
                           (("fekete", 2, [31601]), 2)):
        peak = _traced_peak(lambda: convergence_table(*args))
        assert peak <= limit_mb * 2**20, (args, peak / 2**20)


def test_galois_signs_memory():
    # n = 2^20 - 1 signs: the bit string's bytes and their reversal, then the
    # reversal and its translation, about 2n bytes at the peak
    primitive_polynomial(20)
    peak = _traced_peak(lambda: _galois_signs(20))
    assert peak <= 2.5 * 2**20, peak / 2**20


def test_convergence_table_fekete():
    rows = convergence_table("fekete", 2, [5, 13])
    assert rows[0].n == 5
    assert rows[0].exact_norm == 28
    assert rows[0].ratio == Fraction(28, 25)
    assert rows[0].limit == Fraction(5, 3)
    assert rows[1].n == 13


def test_convergence_table_q1():
    for row in convergence_table("fekete", 1, [7, 19]):
        assert row.ratio == Fraction(row.n - 1, row.n)
        assert row.limit == 1


def test_convergence_table_galois():
    row = convergence_table("galois", 2, [2])[0]
    assert row.n == 3
    assert row.exact_norm == 11
    assert row.ratio == Fraction(11, 9)
    assert row.limit == Fraction(4, 3)


def test_convergence_table_shifted():
    rows = convergence_table("shifted", 2, [101], shift_ratio=Fraction(1, 4))
    assert rows[0].limit == Fraction(7, 6)
    assert rows[0].rel_err < 0.05
    fixed = convergence_table("shifted", 2, [101], shift=0)
    assert fixed[0].exact_norm == norm_2q_exact(fekete(101), 2)
    with pytest.raises(ValueError):
        convergence_table("shifted", 2, [101])
    with pytest.raises(ValueError):
        convergence_table("shifted", 2, [101], shift=1, shift_ratio=Fraction(1, 4))


def test_convergence_table_refuses_before_work(monkeypatch):
    from littlewood import polynomials as poly_mod

    def never(*args, **kwargs):
        raise AssertionError("a refused table built a polynomial or a norm")

    for name in ("fekete", "shifted_fekete", "galois", "_fekete_signs",
                 "_shifted_signs", "_galois_signs", "norm_2q_exact"):
        monkeypatch.setattr(poly_mod, name, never)
    for args, kwargs, reason in (
        (("galois", 2, [14, 21]), {}, "capacity"),
        (("fekete", 2, [101, 9]), {}, "primality"),
        (("fekete", 1, [16777259]), {}, "exceeds the limit 16777216"),
        (("fekete", 129, [3]), {}, "q <= 128"),
        (("shifted", 17, [5]), {"shift": 1}, "q <= 16"),
        (("fekete", 2, [101]), {"shift": 3}, "shifted family only"),
        (("fekete", 2, [101]), {"shift_ratio": Fraction(1, 4)}, "shifted family only"),
        (("galois", 2, [6]), {"shift": 1}, "shifted family only"),
        (("galois", 2, [6]), {"shift_ratio": Fraction(1, 4)}, "shifted family only"),
    ):
        with pytest.raises(ValueError, match=reason):
            convergence_table(*args, **kwargs)


def test_convergence_error_takes_any_iterable():
    from littlewood.polynomials import convergence_error

    for sizes in ([5], (5,), iter([5]), (p for p in [5])):
        assert convergence_error("shifted", 17, sizes, shift=1) == (
            "shifted limits support 1 <= q <= 16"
        )
    assert convergence_error("fekete", 2, (p for p in [5, 9])) == (
        "primality check failed: 9 is not an odd prime"
    )
    assert convergence_error("fekete", 2, (p for p in [5, 7])) is None


def test_convergence_table_input_order():
    rows = convergence_table("fekete", 2, [13, 5, 7])
    assert [r.n for r in rows] == [13, 5, 7]
    assert [r.exact_norm for r in rows] == [norm_2q_exact(fekete(p), 2) for p in (13, 5, 7)]


# primes p = 1 and 3 (mod 4) from 5 to about 10^5
BORWEIN_CHOI_PRIMES = (
    5, 7, 11, 13, 19, 101, 103, 1009, 1019, 10007, 10039, 50021, 65519, 99991, 100003,
)


def _borwein_choi_l4(p):
    # ||f_p||_4^4 = (5p^2 - 9p + 4)/3, minus 12 h(-p)^2 when p = 3 (mod 4), with
    # the class number h(-p) = -(1/p) sum_j j (j/p) for p > 3; Legendre
    # symbols from the set of squares, independent of the norm engine
    squares = {j * j % p for j in range(1, p)}
    value = (5 * p * p - 9 * p + 4) // 3
    if p % 4 == 3:
        h, rem = divmod(-sum(j if j in squares else -j for j in range(1, p)), p)
        assert rem == 0 and h > 0
        value -= 12 * h * h
    return value


def test_fekete_l4_closed_form():
    for p in BORWEIN_CHOI_PRIMES:
        assert isprime(p)
        assert norm_2q_exact(fekete(p), 2) == _borwein_choi_l4(p), p
