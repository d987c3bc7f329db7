"""Tests for polynomial construction, fields, exact norms, and convergence."""
import hashlib
import math
import random
import subprocess
import sys
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

from int_limit import int_max_str_digits, least_reaching, recorded_digit_checks
from littlewood.gf2k import (
    _galois_signs,
    _gf2_mulmod,
    _trace_bits,
    galois,
    primitive_polynomial,
)
from littlewood import intconv
from littlewood.intconv import (
    _CHUNK,
    MAX_POWER_DIGITS,
    _centred_square_sum,
    _signs,
    power_layout,
)
from littlewood.limits import fekete_limit_recursive, galois_limit_recursive
from littlewood.polynomials import (
    MAX_PRIME,
    _fekete_signs,
    check_convergence,
    convergence_table,
    fekete,
    is_odd_prime,
    legendre,
    norm_2q_exact,
    norm_2q_quadrature,
    shifted_fekete,
)


def test_is_odd_prime():
    primes = {3, 5, 7, 11, 101, 10007, 16127, 16777213}  # the last is the largest <= 2^24
    for n in range(3, 120, 2):
        expected = all(n % d for d in range(2, n)) and n > 2
        assert is_odd_prime(n) == expected, n
    assert all(is_odd_prime(p) for p in primes)
    assert not is_odd_prime(2)
    assert not is_odd_prime(9)
    # past MAX_PRIME nothing is tested, so the strong pseudoprimes to the
    # witnesses 2..17, 2..23, 2..37 and 2..41 are refused like the next prime
    for n in (16777259, 341550071728321, 3825123056546413051,
              318665857834031151167461, 3317044064679887385961981):
        with pytest.raises(ValueError, match=rf"^p {n} out of range 3\.\.16777216$"):
            is_odd_prime(n)


def test_is_odd_prime_matches_sympy():
    rng = random.Random(41)
    samples = list(range(-3, 10**4))
    samples += [rng.randrange(10**4, MAX_PRIME + 1) for _ in range(1000)]
    small_primes = [n for n in range(3, 2000) if isprime(n)]
    samples += [p * rng.randrange(3, MAX_PRIME // p + 1)
                for p in rng.choices(small_primes, k=200)]
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
    # shifts of either sign and beyond p, against Euler's criterion
    for p in (3, 101, 1009):
        for r in (-2 * p - 1, -1, 0, 1, p, 3 * p + 2):
            expected = tuple(legendre(j + r, p) for j in range(p))
            assert shifted_fekete(p, r) == expected, (p, r)


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


def _trace(e: int, poly: int, k: int) -> int:
    """Tr(e) = e + e^2 + ... + e^(2^(k-1)) by squaring in GF(2^k)."""
    trace = 0
    for _ in range(k):
        trace ^= e
        e = _gf2_mulmod(e, e, poly, k)
    assert trace in (0, 1)
    return trace


def _galois_by_trace(k: int, beta: int) -> tuple[int, ...]:
    """(-1)^Tr(beta * theta^j), straight from the definition of the trace."""
    poly = primitive_polynomial(k)
    out, e = [], beta
    for _ in range((1 << k) - 1):
        out.append(1 - 2 * _trace(e, poly, k))
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


def test_galois_seed_bits_match_trace_definition():
    # the first k bits of the m-sequence, s_j = Tr(beta theta^j), come from
    # Newton's power sums of c; at beta = 1 they are Tr(theta^j) themselves
    rng = random.Random(18)
    for k in range(2, 25):
        poly = primitive_polynomial(k)
        for beta in (1, (1 << k) - 1, rng.randrange(2, 1 << k)):
            bits = _trace_bits(k, beta, poly, k)
            expected = [_trace(_gf2_mulmod(beta, 1 << j, poly, k), poly, k)
                        for j in range(k)]
            assert [bits >> j & 1 for j in range(k)] == expected, (k, beta)


def test_galois_signs_match_bit_string():
    # the bit-plane expansion against the bit string of the trace bits,
    # reversed and translated into signs
    sign = bytes.maketrans(b"01", b"\x01\xff")
    for k in range(2, 25):
        poly, n = primitive_polynomial(k), (1 << k) - 1
        for beta in (1, n):
            bits = format(_trace_bits(k, beta, poly, n), f"0{n}b").encode()
            assert _galois_signs(k, beta).tobytes() == bits[::-1].translate(sign), (k, beta)


def test_galois_small():
    assert galois(2) == (1, -1, -1)
    for k in range(2, 11):
        coeffs = galois(k)
        assert len(coeffs) == (1 << k) - 1
        assert all(c in (-1, 1) for c in coeffs)
        # character sum over the nonzero elements
        assert sum(coeffs) == -1
    for beta in (0, 8, 9, -1, -5):
        with pytest.raises(ValueError,
                           match=rf"^beta {beta} out of range 1\.\.7$"):
            galois(3, beta)


def test_galois_refuses_before_the_field(monkeypatch):
    # k is checked first, then beta, and both before the primitive polynomial
    from littlewood import gf2k

    def never(k):
        raise AssertionError("a refused Galois polynomial built its field")

    monkeypatch.setattr(gf2k, "primitive_polynomial", never)
    cases = [((k, beta), rf"^beta {beta} out of range 1\.\.{(1 << k) - 1}$")
             for k in (3, 24) for beta in (0, -1, 1 << k, (1 << k) + 1)]
    cases += [((0, 0), r"^k 0 out of range 2\.\.24$"),
              ((10**9, 1), r"^k 1000000000 out of range 2\.\.24$")]
    for args, reason in cases:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=reason):
            galois(*args)
        assert time.perf_counter() - start < 0.05, args


def test_one_exact_norm_function():
    import littlewood
    from littlewood import intconv, polynomials

    assert littlewood.norm_2q_exact is intconv.norm_2q_exact is polynomials.norm_2q_exact

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
    # the zero polynomial, with no coefficient or one zero one
    for f in ((), (0,)):
        assert norm_2q_quadrature(f, 2) == norm_2q_exact(f, 2) == 0, f
    exact = norm_2q_exact(fekete(101), 3)
    quad = norm_2q_quadrature(fekete(101), 3)
    assert abs(quad - exact) / exact < 1e-8


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
    """Coefficients of f^q by one big-integer power: f is evaluated at 256^m
    with m bytes of room for every signed coefficient of f^q, and adding
    2^(8m-1) to every slot makes them all nonnegative, so the bytes of the
    result split into the slots in linear time."""
    bound = sum(map(abs, a)) ** (q - 1) * max(map(abs, a))
    m = (bound.bit_length() + 2 + 7) // 8
    slots = q * (len(a) - 1) + 1

    def at_x(coeffs):
        return int.from_bytes(b"".join(c.to_bytes(m, "little") for c in coeffs), "little")

    value = (at_x(max(c, 0) for c in a) - at_x(max(-c, 0) for c in a)) ** q
    half = 1 << (8 * m - 1)
    # to_bytes raises OverflowError unless every centred slot fits in m bytes
    raw = (value + at_x([half] * slots)).to_bytes(slots * m, "little")
    return [int.from_bytes(raw[i : i + m], "little") - half for i in range(0, len(raw), m)]


def _as_routes(coeffs):
    """The same vector as a tuple, a list, a generator and a "b" memoryview."""
    return [tuple(coeffs), list(coeffs), (c for c in coeffs), memoryview(array("b", coeffs))]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from((-1, 0, 1)), max_size=400), st.integers(1, 6))
@example(list(fekete(5)), 32)                  # 19-digit slots: one libmpdec word
@example(list(fekete(5)), 33)                  # 20-digit slots: past one word
@example(list(fekete(5)), 74)                  # 45-digit slots
@example([1, -1] * 200, 6)                     # 14-digit slots
@example([1, 0, -1] * 1400, 2)                 # a length past _CHUNK
@example([0, 0, 0], 4)
@example([0, 0, -1, 0], 5)                     # -x^2 at q >= 2
@example([-1], 4)
@example([], 3)
def test_power_square_sum_matches_oracle(coeffs, q):
    assert len(_signs(coeffs)) == len(coeffs)
    expected = (sum(c * c for c in _kronecker_power_coefficients(coeffs, q))
                if coeffs else 0)
    for a in _as_routes(coeffs):
        assert norm_2q_exact(a, q) == expected, type(a)


def test_convolution_routes_agree():
    # the q = 1 count and the packed power at q = 2 and 3 agree with the
    # big-integer oracle on sign vectors from nearly all zeros to no zeros
    rng = random.Random(5)
    for density in (0.01, 0.1, 0.5, 0.9, 1.0):
        n = rng.randrange(1, 300)
        a = [rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n)]
        for q in (1, 2, 3):
            expected = (sum(c * c for c in _kronecker_power_coefficients(a, q))
                        if any(a) else 0)
            assert norm_2q_exact(a, q) == expected, (density, q)
    assert norm_2q_exact([], 2) == 0
    assert norm_2q_exact([-1], 2) == 1


def test_power_square_sum_beyond_capacity():
    # f^128 of fekete(1877) packs into 240129 slots of 417 digits
    with pytest.raises(ValueError, match="capacity"):
        norm_2q_exact(fekete(1877), 128)
    assert norm_2q_exact([1] * (1 << 20), 1) == 1 << 20
    assert power_layout(1 << 24, 1, 1 << 24) == (0, 0)
    # Galois at q = 2: 2^(k+1) - 3 slots of 7 digits at k = 20, 21 and 22, of 8 at 23
    for k in (20, 21, 22):
        n = (1 << k) - 1
        assert power_layout(n, 2, n) == ((1 << (k + 1)) - 3, 7), k
    with pytest.raises(ValueError, match="16777213 slots of 8 digits"):
        power_layout((1 << 23) - 1, 2, (1 << 23) - 1)
    assert norm_2q_exact([], 3) == 0


def test_capacity_admits_a_power_of_exactly_its_digits(monkeypatch):
    # (1 + x + x^2)^2 packs into 5 slots of 1 digit: admitted at a capacity of
    # 5 digits, refused at 4
    monkeypatch.setattr(intconv, "MAX_POWER_DIGITS", 5)
    assert power_layout(3, 2, 3) == (5, 1)
    assert norm_2q_exact([1, 1, 1], 2) == 1 + 4 + 9 + 4 + 1
    monkeypatch.setattr(intconv, "MAX_POWER_DIGITS", 4)
    with pytest.raises(ValueError, match="5 slots of 1 digits, beyond the exact-norm capacity of 4"):
        norm_2q_exact([1, 1, 1], 2)


def test_budget_admits_every_power_the_length_and_slot_caps_admitted():
    # the caps this budget replaced: 2^21 slots of at most 44 digits
    assert (1 << 21) * 44 <= MAX_POWER_DIGITS
    # the largest such power among the CLI's inputs: 2096875 slots of 44
    # digits for `empirical --family fekete --q 9 --p 232987`
    assert power_layout(232987, 9, 232986) == (2096875, 44)


@pytest.mark.parametrize("p, q", [(5, 73), (5, 74), (101, 60)])
def test_wide_slots_match_oracle(p, q):
    # 2 * 4^73 + 1 has 45 digits, and 2 * 100^59 + 1 has 119
    expected = sum(c * c for c in _kronecker_power_coefficients(fekete(p), q))
    assert norm_2q_exact(fekete(p), q) == expected
    assert norm_2q_exact(_fekete_signs(p), q) == expected


def _bound_refused(q_bits: int, s_bits: int, limit: int) -> str:
    """The exact message of `power_layout`'s refusal of the coefficient bound."""
    return (f"the exact-norm coefficient bound 2 S^(q-1) + 1 of f^q (q of {q_bits} bits, "
            f"S = sum |a| of {s_bits} bits) may have more than {limit} digits, "
            "the int/str conversion limit")


def test_slot_rule_at_the_int_parse_limit():
    # 2 * 2^14283 + 1 has 4300 digits, the most int() parses by default, and
    # 2 * 2^14284 + 1 has 4301
    assert power_layout(2, 14284, 2) == (14285, 4300)
    with pytest.raises(ValueError) as refused:
        power_layout(2, 14285, 2)
    assert str(refused.value) == _bound_refused(14, 2, 4300)
    # the decoder parses a slot of 4300 digits
    h = 5 * 10**4299
    assert _centred_square_sum("1" + "9" * 4300, 4300, 1) == (10**4300 - 1 - h) ** 2


LOWERED_LIMIT_NORMS = """
import time
from math import comb
from littlewood.intconv import norm_2q_exact
# 2 * 2^999 + 1 has 302 digits, within the limit of 640
assert norm_2q_exact((1, 1), 1000) == comb(2000, 1000)
start = time.perf_counter()
try:
    norm_2q_exact((1, -1), 2200)
except ValueError as exc:
    print(time.perf_counter() - start, exc)
"""


def test_slot_rule_follows_the_running_int_str_limit():
    # 2 * 2^2199 + 1 has 663 digits: admitted under the default limit,
    # refused by the rule under a limit of 640, and by the default slot
    # limit when there is no limit
    assert power_layout(2, 2200, 2) == (2201, 663)
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-c", LOWERED_LIMIT_NORMS],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    seconds, message = proc.stdout.split(" ", 1)
    assert message == _bound_refused(12, 2, 640) + "\n"
    assert float(seconds) < 0.05
    # no limit, or one above the default, reads as the default of 4300
    for limit in (0, 10**5):
        with int_max_str_digits(limit):
            assert power_layout(2, 14284, 2) == (14285, 4300)
            with pytest.raises(ValueError) as refused:
                power_layout(2, 14285, 2)
            assert str(refused.value) == _bound_refused(14, 2, 4300)


def test_raised_limit_keeps_slots_within_the_stated_cost():
    # each power is inside the digit budget, with 14501, 16001 and 18001
    # slots of 4365, 4817 and 5419 digits, which int() and str() parse and
    # print in quadratic time; a raised limit does not admit them
    with int_max_str_digits(10**5):
        for a, q, w in (((1, 1), 14500, 4365), ((1, -1), 16000, 4817), ((-1, 1), 18000, 5419)):
            assert len(str(2 * 2 ** (q - 1) + 1)) == w
            assert (q + 1) * w <= MAX_POWER_DIGITS
            start = time.perf_counter()
            with pytest.raises(ValueError) as refused:
                norm_2q_exact(a, q)
            assert time.perf_counter() - start < 0.05, q
            assert str(refused.value) == _bound_refused(q.bit_length(), 2, 4300)


def test_coefficient_refusal_states_sizes_not_values():
    # q, or n and the number of nonzero coefficients, has more digits than
    # the limit, so a message that printed them would raise the int/str
    # conversion error instead
    for call, limit, q_bits, s_bits in (
            (lambda: norm_2q_exact((1, 1), 10**5000), 4300, 16610, 2),
            (lambda: power_layout(3 * 10**700, 2, 3 * 10**700), 640, 2, 2327)):
        with int_max_str_digits(limit):
            with pytest.raises(ValueError) as refused:
                call()
        assert str(refused.value) == _bound_refused(q_bits, s_bits, limit)
    # a coefficient beyond the limit is refused without printing it
    with int_max_str_digits(4300):
        with pytest.raises(ValueError, match="coefficients are 0, 1 and -1$"):
            norm_2q_exact([10**5000, 1], 2)


@st.composite
def _bound_case(draw):
    # the limit, q and S = sum |a|: either q <= 64 and S near the 10^L edge
    # 2 S^(q-1) + 1 >= 10^L, near the 4L-bit edge (q - 1)(bitlen(S) - 1) >= 4L,
    # or between, or S <= 7 and q likewise
    limit = draw(st.sampled_from((640, 4300)))
    if draw(st.booleans()):
        q = draw(st.integers(2, 64))
        digits_edge = least_reaching(2, q - 1, limit)
        bits_edge = 1 << -(-4 * limit // (q - 1))
        S = draw(st.one_of(st.integers(digits_edge - 3, digits_edge + 3),
                           st.integers(bits_edge - 3, bits_edge + 3),
                           st.integers(2, 2 * bits_edge)))
        return limit, q, max(S, 2)
    S = draw(st.integers(2, 7))
    digits_edge = 1 + math.ceil((limit * math.log(10) - math.log(2)) / math.log(S))
    bits_edge = 1 - (-4 * limit // (S.bit_length() - 1))
    q = draw(st.one_of(st.integers(digits_edge - 3, digits_edge + 3),
                       st.integers(bits_edge - 3, bits_edge + 3),
                       st.integers(2, bits_edge + 8)))
    return limit, q, S


@settings(max_examples=100, deadline=None)
@given(_bound_case())
@example((4300, 14285, 2))
@example((640, 2561, 3))
@example((640, 2560, 3))
@example((640, 1341, 3))
@example((640, 1342, 3))
def test_coefficient_rule_refuses_exactly_at_its_formula(case):
    # refused exactly when 2 S^(q-1) + 1 >= 10^L; what power_layout hands the
    # rule is that bound, and 2^low_bits is below it.  The length n = 2 keeps
    # every admitted power within the digit budget.
    limit, q, S = case
    bound = 2 * S ** (q - 1) + 1
    start = time.perf_counter()
    with int_max_str_digits(limit), recorded_digit_checks(intconv) as seen:
        try:
            layout = power_layout(2, q, S)
        except ValueError as exc:
            layout = str(exc)
    assert time.perf_counter() - start < 0.05
    refused = _bound_refused(q.bit_length(), S.bit_length(), limit)
    assert layout == (refused if bound >= 10**limit else (q + 1, len(str(bound))))
    [(low_bits, value)] = seen
    assert value == bound and 2**low_bits <= bound


def test_coefficient_bound_is_refused_from_its_bits_alone():
    # S = 2^60 + 1 at q = 10^5: 2 S^(q-1) + 1 has about 6e6 bits, a second to
    # build, and its lower bound of (q - 1) 60 bits refuses it without that
    start = time.perf_counter()
    with int_max_str_digits(4300), pytest.raises(ValueError, match="coefficient bound"):
        power_layout(2, 10**5, 2**60 + 1)
    assert time.perf_counter() - start < 0.05


def test_admission_refuses_in_bounded_time():
    # the coefficient bound is decided before its power is built
    cases = [
        (lambda: norm_2q_exact((1, 1), 10**7), "coefficient bound"),
        (lambda: norm_2q_exact((1, -1), 10**9), "coefficient bound"),
        (lambda: norm_2q_exact((1, 0, 1), (1 << 21) - 1), "coefficient bound"),
        (lambda: convergence_table("galois", 2, [23]), "capacity"),
    ]
    for call, reason in cases:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=reason):
            call()
        assert time.perf_counter() - start < 0.05, reason
    start = time.perf_counter()
    with pytest.raises(ValueError, match="coefficient bound"):
        power_layout(2, (1 << 21) - 1, 2)
    assert time.perf_counter() - start < 0.05
    # a unit vector, +-x^k, is admitted at any q, even one too long to print
    assert norm_2q_exact((-1,), 10**9 + 1) == 1
    start = time.perf_counter()
    assert norm_2q_exact((0, -1, 0), 10**5000) == 1
    assert power_layout(3, 10**5000, 1) == (0, 0)
    assert time.perf_counter() - start < 0.05


def test_builders_return_tuples_of_their_signs():
    for public, signs in ((fekete(101), _fekete_signs(101)),
                          (fekete(101), _fekete_signs(101, 0)),
                          (shifted_fekete(101, 37), _fekete_signs(101, 37)),
                          (shifted_fekete(101, -5), _fekete_signs(101, -5)),
                          (galois(7, 5), _galois_signs(7, 5))):
        assert type(public) is tuple
        assert signs.format == "b"
        assert public == tuple(signs)


def test_power_square_sum_same_on_every_input_type():
    # the "b" memoryviews that the random vectors of the oracle test never
    # are: a builder's cast bytearray, a read-only view of bytes and a strided
    # slice; and an "h" view, packed like any other iterable
    for public in (fekete(101), galois(7, 5)):
        wide = array("b", bytes(2 * len(public)))
        wide[::2] = array("b", public)
        views = (_fekete_signs(101) if len(public) == 101 else _galois_signs(7, 5),
                 memoryview(array("b", public).tobytes()).cast("b"),
                 memoryview(wide)[::2],
                 memoryview(array("h", public)))
        for q in (1, 2, 5):
            expected = sum(c * c for c in _kronecker_power_coefficients(public, q))
            for a in views:
                assert norm_2q_exact(a, q) == expected, (len(public), q, a.format, a.strides)


@pytest.mark.parametrize("w", [1, 6, 19, 44, 45, 400])
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
    for q in (1, 2):
        fekete_limit_recursive(q), galois_limit_recursive(q)
    for args, limit_mb in ((("galois", 1, [20]), 4),
                           (("galois", 2, [16]), 4),
                           (("fekete", 2, [31601]), 2)):
        peak = _traced_peak(lambda: convergence_table(*args))
        assert peak <= limit_mb * 2**20, (args, peak / 2**20)


def test_norm_memory_per_digit():
    # at q = 2 the peak is the power, libmpdec's digit buffer and the str
    # made from it: about 2.5 bytes per packed digit
    signs = _galois_signs(16)
    slots, w = power_layout(len(signs), 2, len(signs))
    peak = _traced_peak(lambda: norm_2q_exact(signs, 2))
    assert peak <= 2.75 * slots * w, peak / (slots * w)


def test_galois_signs_memory():
    # n = 2^20 - 1 signs: the n bytes of signs, and n/8 bytes each for the
    # trace bits, their bytes and one translated bit plane
    peak = _traced_peak(lambda: _galois_signs(20))
    assert peak <= 1.5 * 2**20, peak / 2**20


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

    for name in ("_fekete_signs", "_galois_signs", "norm_2q_exact"):
        monkeypatch.setattr(poly_mod, name, never)
    for args, kwargs, reason in (
        (("galois", 2, [14, 23]), {}, "capacity"),
        (("fekete", 2, [101, 9]), {}, "primality"),
        (("fekete", 1, [16777259]), {}, "p 16777259 out of range 3..16777216"),
        (("fekete", 129, [3]), {}, "q 129 out of range 1..128"),
        (("shifted", 17, [5]), {"shift": 1}, "q 17 out of range 1..16"),
        (("fekete", 2, [101]), {"shift": 3}, "shifted family only"),
        (("fekete", 2, [101]), {"shift_ratio": Fraction(1, 4)}, "shifted family only"),
        (("galois", 2, [6]), {"shift": 1}, "shifted family only"),
        (("galois", 2, [6]), {"shift_ratio": Fraction(1, 4)}, "shifted family only"),
    ):
        with pytest.raises(ValueError, match=reason):
            convergence_table(*args, **kwargs)


def test_check_convergence_takes_any_iterable():
    from littlewood.polynomials import check_convergence

    for sizes in ([5], (5,), iter([5]), (p for p in [5])):
        with pytest.raises(ValueError) as refused:
            check_convergence("shifted", 17, sizes, shift=1)
        assert str(refused.value) == "q 17 out of range 1..16"
    with pytest.raises(ValueError) as refused:
        check_convergence("fekete", 2, (p for p in [5, 9]))
    assert str(refused.value) == "primality check failed: 9 is not an odd prime"
    # the admitted run: per size, in input order, n, the sign builder's
    # arguments and the limit's shift ratio; r rounds R p half up
    for family, sizes, kwargs, entries in (
        ("fekete", [7, 5], {}, [(7, (7, 0), None), (5, (5, 0), None)]),
        ("galois", [3, 2], {}, [(7, (3,), None), (3, (2,), None)]),
        ("shifted", [7, 5], {"shift": 1},
         [(7, (7, 1), Fraction(1, 7)), (5, (5, 1), Fraction(1, 5))]),
        ("shifted", [7, 5], {"shift_ratio": "1/2"},
         [(7, (7, 4), Fraction(1, 2)), (5, (5, 3), Fraction(1, 2))]),
    ):
        run = check_convergence(family, 2, (s for s in sizes), **kwargs)
        assert [(n, args, R) for n, _, args, R in run] == entries
        for n, build, args, _ in run:
            assert len(build(*args)) == n


def test_check_convergence_layout_follows_the_family(monkeypatch):
    # one function for both sign builders: the family alone decides each
    # size's length and zero count, whatever the builders are
    from littlewood import polynomials as poly_mod

    def shared(*args):
        raise AssertionError("admission built a vector")

    layouts = []

    def recorded(*args):
        layouts.append(args)
        return power_layout(*args)

    for name in ("_fekete_signs", "_galois_signs"):
        monkeypatch.setattr(poly_mod, name, shared)
    monkeypatch.setattr(poly_mod, "power_layout", recorded)
    for args, kwargs, expected in (
        (("fekete", 2, [13]), {}, (13, 2, 12)),
        (("shifted", 2, [13]), {"shift": 1}, (13, 2, 12)),
        (("galois", 2, [3]), {}, (7, 2, 7)),
    ):
        layouts.clear()
        check_convergence(*args, **kwargs)
        assert layouts == [expected], (args, kwargs)


def test_convergence_table_evaluates_each_limit_once(monkeypatch):
    from littlewood import polynomials as poly_mod

    calls = []

    def counted(name):
        limit = getattr(poly_mod, name)
        return lambda *args: calls.append(name) or limit(*args)

    for name in ("fekete_limit_recursive", "galois_limit_recursive", "shifted_fekete_limit"):
        monkeypatch.setattr(poly_mod, name, counted(name))
    for args, kwargs, expected in (
        (("fekete", 2, [5, 7, 11]), {}, ["fekete_limit_recursive"]),
        (("galois", 2, [2, 3, 4]), {}, ["galois_limit_recursive"]),
        (("shifted", 2, [5, 7, 11]), {"shift_ratio": Fraction(1, 4)}, ["shifted_fekete_limit"]),
        # one ratio 1/p per distinct prime
        (("shifted", 2, [5, 7, 5]), {"shift": 1}, ["shifted_fekete_limit"] * 2),
    ):
        calls.clear()
        rows = convergence_table(*args, **kwargs)
        assert len(rows) == 3 and calls == expected, (args, kwargs, calls)


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
