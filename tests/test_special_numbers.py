"""Tests for tangent/Carlitz numbers, Eulerian values, and composition counts."""
import math
from fractions import Fraction
from itertools import product

import pytest

from littlewood.special_numbers import (
    carlitz_numbers,
    composition_count,
    eulerian_general,
    eulerian_polynomial,
    tangent_numbers,
)

# ---------------------------------------------------------------------------
# independent power-series oracle: truncated exact series arithmetic


def _series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ca in enumerate(a[: order + 1]):
        if ca == 0:
            continue
        for j, cb in enumerate(b[: order + 1 - i]):
            out[i + j] += ca * cb
    return out


def _series_log1p(u, order):
    # log(1 + u) = sum_{i>=1} (-1)^{i+1} u^i / i for a series u with u(0) = 0
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(0)] * (order + 1)
    power[0] = Fraction(1)
    for i in range(1, order + 1):
        power = _series_mul(power, u, order)
        sign = 1 if i % 2 else -1
        for d in range(order + 1):
            out[d] += Fraction(sign, i) * power[d]
    return out


def _tangent_oracle(kmax):
    # log cosh(z) = sum T(k) z^{2k} / (2k)!; work in the variable w = z^2
    order = kmax
    cosh_minus_1 = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        cosh_minus_1[k] = Fraction(1, math.factorial(2 * k))
    log_series = _series_log1p(cosh_minus_1, order)
    return [int(log_series[k] * math.factorial(2 * k)) for k in range(1, kmax + 1)]


def _carlitz_oracle(kmax):
    # log J_0(2 sqrt(z)) = sum (-1)^k C(k) z^k / (k!)^2
    order = kmax
    j0_minus_1 = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        j0_minus_1[k] = Fraction((-1) ** k, math.factorial(k) ** 2)
    log_series = _series_log1p(j0_minus_1, order)
    return [
        int((-1) ** k * log_series[k] * math.factorial(k) ** 2)
        for k in range(1, kmax + 1)
    ]


def test_tangent_first_values():
    assert tangent_numbers(4) == (1, -2, 16, -272)
    # one recursion step by hand: T(2) = 1 - C(3,1) T(1)
    assert tangent_numbers(2)[1] == 1 - 3 * 1


def test_tangent_signs_match_unsigned_sequence():
    unsigned = [1, 2, 16, 272, 7936, 353792]
    ts = tangent_numbers(6)
    assert [abs(t) for t in ts] == unsigned
    assert all((-1) ** (k + 1) * t == abs(t) for k, t in enumerate(ts, start=1))


def test_tangent_power_series_oracle():
    assert list(tangent_numbers(10)) == _tangent_oracle(10)


def test_carlitz_first_values():
    assert carlitz_numbers(4) == (1, -1, 4, -33)
    # hand evaluation of the k=3 recursion
    assert carlitz_numbers(3)[2] == 1 - (3 * 1 * 1 + 3 * 2 * (-1))


def test_carlitz_power_series_oracle():
    assert list(carlitz_numbers(10)) == _carlitz_oracle(10)


def test_invalid_kmax():
    with pytest.raises(ValueError):
        tangent_numbers(0)
    with pytest.raises(ValueError):
        carlitz_numbers(0)


# ---------------------------------------------------------------------------
# Eulerian values


def test_eulerian_examples():
    assert eulerian_general(3, 1) == 4
    assert eulerian_general(5, -1) == 0
    assert eulerian_general(1, Fraction(1, 2)) == Fraction(1, 2)


def test_eulerian_support():
    for n in range(1, 10):
        assert eulerian_general(n, -1) == 0
        assert eulerian_general(n, n) == 0
        assert eulerian_general(n, Fraction(-8, 7)) == 0
        assert eulerian_general(n, n + Fraction(3, 7)) == 0
        # positive strictly inside the support
        x = Fraction(-6, 7)
        while x < n:
            assert eulerian_general(n, x) > 0, (n, x)
            x += Fraction(1, 7)


def test_eulerian_symmetry():
    for n in range(1, 10):
        x = Fraction(-6, 7)
        while x < n:
            assert eulerian_general(n, x) == eulerian_general(n, n - 1 - x)
            x += Fraction(1, 7)


def test_eulerian_partition_of_unity():
    for n in range(1, 10):
        x = Fraction(-6, 7)
        while x < 1:
            total = sum(eulerian_general(n, x + a) for a in range(-2, n + 3))
            assert total == math.factorial(n), (n, x)
            x += Fraction(1, 7)


def test_eulerian_polynomial_small():
    assert eulerian_polynomial(1) == (0, 1)
    assert eulerian_polynomial(2) == (0, 1, 4, 1)


def test_eulerian_polynomial_row_sum():
    for N in range(1, 7):
        assert sum(eulerian_polynomial(N)) == math.factorial(2 * N - 1)


def test_eulerian_polynomial_matches_alternating_sum():
    # the integer recurrence against the rational-argument route, over the
    # rows the limit recursions use (q <= 64)
    for N in range(1, 65):
        n = 2 * N - 1
        coeffs = eulerian_polynomial(N)
        assert len(coeffs) == 2 * N and coeffs[0] == 0, N
        assert coeffs[1:] == tuple(eulerian_general(n, a - 1) for a in range(1, 2 * N)), N
        assert coeffs[1:] == coeffs[:0:-1], N
        assert sum(coeffs) == math.factorial(n), N


def test_eulerian_polynomial_large_row():
    # built without recursion, so a row past the interpreter's recursion
    # limit works; E(n, 1) = 2^n - n - 1
    coeffs = eulerian_polynomial(500)
    assert sum(coeffs) == math.factorial(999)
    assert coeffs[1:3] == (1, 2**999 - 1000)


def test_eulerian_polynomial_any_order():
    # rows are extended from the newest one built, and rebuilt from row 1 when
    # an earlier row is asked for; the uncached function sees both cases
    build = eulerian_polynomial.__wrapped__
    for N in (9, 3, 12, 1, 12, 2, 5):
        coeffs = build(N)
        assert coeffs[1:] == tuple(eulerian_general(2 * N - 1, a - 1) for a in range(1, 2 * N))


# ---------------------------------------------------------------------------
# composition counts


def _brute_count(N, n, m):
    return sum(1 for t in product(range(n), repeat=N) if sum(t) == m)


def test_composition_examples():
    assert composition_count(2, 3, 2) == 3
    assert composition_count(3, 2, 7) == 0
    assert composition_count(4, 5, 8) == _brute_count(4, 5, 8)


def test_composition_exhaustive():
    for N in range(1, 5):
        for n in range(1, 7):
            for m in range(0, N * (n - 1) + 2):
                assert composition_count(N, n, m) == _brute_count(N, n, m), (N, n, m)


def test_composition_scaled_convergence():
    # count(N, n, floor(M n)) / n^(N-1) -> E(N-1, M-1) / (N-1)!
    N, n = 3, 1000
    M = Fraction(3, 2)
    approx = Fraction(composition_count(N, n, math.floor(M * n)), n ** (N - 1))
    target = eulerian_general(N - 1, M - 1) / math.factorial(N - 1)
    assert abs(approx - target) / target < Fraction(5, 100)
