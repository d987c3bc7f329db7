"""Tests for tangent/Carlitz numbers, Eulerian values, and composition counts."""
import math
import sys
import time
from fractions import Fraction
from itertools import product

from littlewood.special_numbers import (
    _spline_rows,
    carlitz_numbers,
    composition_count,
    eulerian_general,
    eulerian_polynomial,
    tangent_numbers,
)


def test_tangent_first_values():
    assert tangent_numbers(4) == (1, -2, 16, -272)
    # one recursion step by hand: T(2) = 1 - C(3,1) T(1)
    assert tangent_numbers(2)[1] == 1 - 3 * 1


def test_tangent_signs_match_unsigned_sequence():
    unsigned = [1, 2, 16, 272, 7936, 353792]
    ts = tangent_numbers(6)
    assert [abs(t) for t in ts] == unsigned
    assert all((-1) ** (k + 1) * t == abs(t) for k, t in enumerate(ts, start=1))


def test_carlitz_first_values():
    assert carlitz_numbers(4) == (1, -1, 4, -33)
    # hand evaluation of the k=3 recursion
    assert carlitz_numbers(3)[2] == 1 - (3 * 1 * 1 + 3 * 2 * (-1))


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
    # at rational offsets, several at once: W_n[m K + s] = d^n E(n, t_s/d + m - 1)
    for ts, d in (((0,), 1), ((1,), 2), ((0, 2, 5), 7), ((3, 11, 1), 12), ((4,), 9)):
        K = len(ts)
        for n, row in zip(range(1, 16, 2), _spline_rows(ts, d)):
            assert len(row) == (n + 1) * K, (ts, d, n)
            for m in range(n + 1):
                for s, t in enumerate(ts):
                    expected = d**n * eulerian_general(n, Fraction(t, d) + m - 1)
                    assert row[m * K + s] == expected, (ts, d, n, m, t)


def test_eulerian_polynomial_large_row():
    # built without recursion, so a row past the interpreter's recursion
    # limit works; E(n, 1) = 2^n - n - 1.  Only the returned row, 1000
    # blocks, outlives the call: keeping A_1..A_500 would hold about
    # 250,000 blocks, 163 MB
    before = sys.getallocatedblocks()
    coeffs = eulerian_polynomial(500)
    held = sys.getallocatedblocks() - before
    assert held < 10_000, held
    assert sum(coeffs) == math.factorial(999)
    assert coeffs[1:3] == (1, 2**999 - 1000)


# ---------------------------------------------------------------------------
# composition counts


def _brute_count(N, n, m):
    return sum(1 for t in product(range(n), repeat=N) if sum(t) == m)


def test_composition_examples():
    assert composition_count(2, 3, 2) == 3
    assert composition_count(3, 2, 7) == 0
    assert composition_count(4, 5, 8) == _brute_count(4, 5, 8)
    # negative m and the far tail past N (n - 1), where every term is 0
    for N in range(1, 6):
        for n in range(1, 6):
            for m in range(-3, N * n + 4):
                assert composition_count(N, n, m) == _brute_count(N, n, m), (N, n, m)
    # only the m // n + 1 nonzero terms are summed, not all N + 1
    start = time.process_time()
    assert composition_count(4000, 2, 5) == math.comb(4000, 5)
    assert time.process_time() - start < 0.1


def test_composition_scaled_convergence():
    # count(N, n, floor(M n)) / n^(N-1) -> E(N-1, M-1) / (N-1)!
    N, n = 3, 1000
    M = Fraction(3, 2)
    approx = Fraction(composition_count(N, n, math.floor(M * n)), n ** (N - 1))
    target = eulerian_general(N - 1, M - 1) / math.factorial(N - 1)
    assert abs(approx - target) / target < Fraction(5, 100)
