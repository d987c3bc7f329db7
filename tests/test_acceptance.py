"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the runtime budgets are
asserted as stated.
"""
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

from littlewood.limits import (
    fekete_limit_direct,
    fekete_limit_recursive,
    fekete_triangle_row,
    galois_limit_direct,
    galois_limit_recursive,
    galois_triangle_row,
    phi_min,
    phi_piecewise,
    shifted_fekete_limit,
)
from littlewood.partitions import enumerate_set_partitions, even_block_profiles
from littlewood.polynomials import (
    convergence_table,
    fekete,
    norm_2q_exact,
    norm_2q_quadrature,
)
from littlewood.special_numbers import (
    carlitz_numbers,
    composition_count,
    tangent_numbers,
)


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_01_published_fekete_limits():
    expected = [
        Fraction(1),
        Fraction(5, 3),
        Fraction(19, 5),
        Fraction(3469, 315),
        Fraction(21565, 567),
        Fraction(7760593, 51975),
        Fraction(12478099, 19305),
        Fraction(643983856759, 212837625),
    ]
    with _Budget("1 published Fekete limits", 1.0):
        assert [fekete_limit_recursive(q) for q in range(1, 9)] == expected


def test_criterion_02_published_galois_limits():
    expected = [
        Fraction(1),
        Fraction(4, 3),
        Fraction(11, 5),
        Fraction(92, 21),
        Fraction(15481, 1512),
        Fraction(411913, 15120),
        Fraction(2482927, 30888),
        Fraction(4181926481, 16216200),
    ]
    with _Budget("2 published Galois limits", 1.0):
        assert [galois_limit_recursive(q) for q in range(1, 9)] == expected


def test_criterion_03_triangular_arrays():
    fekete_rows = {
        1: (1,),
        2: (-2, 10, -2),
        3: (16, -184, 456, -184, 16),
        4: (-272, 5776, -30736, 55504, -30736, 5776, -272),
    }
    galois_rows = {
        1: (1,),
        2: (-1, 8, -1),
        3: (4, -76, 264, -76, 4),
        4: (-33, 1248, -9735, 22080, -9735, 1248, -33),
    }
    with _Budget("3 triangular arrays rows 1-4", 1.0):
        for k, row in fekete_rows.items():
            assert fekete_triangle_row(k) == row
        for k, row in galois_rows.items():
            assert galois_triangle_row(k) == row


def test_criterion_04_direct_recursive_consistency():
    with _Budget("4 direct sums equal recursions (q<=6)", 10.0):
        for q in range(1, 7):
            assert fekete_limit_direct(q) == fekete_limit_recursive(q)
            assert galois_limit_direct(q) == galois_limit_recursive(q)


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += Fraction(ca) * Fraction(cb)
    return out


def _add_const(c, a):
    out = [Fraction(x) for x in a]
    out[0] += c
    return out


def _scale(a, s):
    return [Fraction(c) * s for c in a]


def _compose_half_minus_x(a):
    # Horner expansion of p(1/2 - x)
    acc = [Fraction(0)]
    lin = [Fraction(1, 2), Fraction(-1)]
    for c in reversed(a):
        acc = _mul(acc, lin)
        acc[0] += Fraction(c)
    return acc


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def test_criterion_05_phi_closed_forms():
    square = [1, -8, 16]  # (4x-1)^2
    with _Budget("5 phi closed forms q=2,3,4", 30.0):
        expected2 = _add_const(Fraction(7, 6), _scale(square, Fraction(1, 2)))
        f2 = phi_piecewise(2)
        assert f2.breakpoints == (0, Fraction(1, 2))
        assert f2.pieces == (_trim(expected2),)

        expected3 = _add_const(
            Fraction(31, 20), _scale(_mul(square, [3, -8, 16]), Fraction(3, 4))
        )
        f3 = phi_piecewise(3)
        assert f3.breakpoints == (0, Fraction(1, 2))
        assert f3.pieces == (_trim(expected3),)

        quartic = [625, -4216, 20208, -52736, 60416]
        left = _add_const(
            Fraction(653, 280), _scale(_mul(square, quartic), Fraction(1, 72))
        )
        right = _compose_half_minus_x(left)
        f4 = phi_piecewise(4)
        assert f4.breakpoints == (0, Fraction(1, 4), Fraction(1, 2))
        assert f4.pieces == (_trim(left), _trim(right))


def test_criterion_06_phi_quarter_values():
    expected = [
        Fraction(1),
        Fraction(7, 6),
        Fraction(31, 20),
        Fraction(653, 280),
        Fraction(71735, 18144),
        Fraction(24880549, 3326400),
        Fraction(72207143, 4633200),
        Fraction(960901090937, 27243216000),
    ]
    with _Budget("6 phi_q(1/4) for q=1..8", 120.0):
        values = [shifted_fekete_limit(q, Fraction(1, 4)) for q in range(1, 9)]
        assert values == expected


def test_criterion_07_shift_symmetries():
    with _Budget("7 shift symmetries q<=5", 60.0):
        for q in range(1, 6):
            for num in range(8):
                R = Fraction(num, 16)
                v = shifted_fekete_limit(q, R)
                assert shifted_fekete_limit(q, R + Fraction(1, 2)) == v
                assert shifted_fekete_limit(q, -R) == v


def test_criterion_08_minimum_evidence():
    eps = Fraction(1, 1 << 20)
    quarter_values = {
        2: Fraction(7, 6),
        3: Fraction(31, 20),
        4: Fraction(653, 280),
    }
    with _Budget("8 phi_min at 1/4 for q=2,3,4", 60.0):
        for q, expected in quarter_values.items():
            res = phi_min(q, eps)
            assert res.argmin[0] <= Fraction(1, 4) <= res.argmin[1]
            assert res.value == (expected, expected)
            assert res.competitors == ()


def test_criterion_09_exact_norm_oracle():
    from littlewood.gf2k import galois

    with _Budget("9 exact norms and quadrature agreement", 60.0):
        assert norm_2q_exact(fekete(3), 2) == 6
        assert norm_2q_exact(fekete(5), 2) == 28
        assert norm_2q_exact(galois(2), 2) == 11
        rng = random.Random(2024)
        for _ in range(50):
            degree = rng.randrange(1, 512)
            coeffs = [rng.choice((-1, 1)) for _ in range(degree + 1)]
            q = rng.randrange(1, 5)
            exact = norm_2q_exact(coeffs, q)
            quad = norm_2q_quadrature(coeffs, q)
            assert abs(quad - exact) / exact < 1e-9


def test_criterion_10_empirical_convergence():
    with _Budget("10 empirical convergence fekete/galois q=2", 120.0):
        small, large = convergence_table("fekete", 2, [101, 10007])
        assert large.rel_err < 0.05
        assert large.rel_err < small.rel_err
        g_small, g_large = convergence_table("galois", 2, [6, 14])
        assert g_large.rel_err < 0.05
        assert g_large.rel_err < g_small.rel_err


def test_criterion_11_combinatorial_oracles():
    with _Budget("11 combinatorial oracles", 30.0):
        for q in range(1, 5):
            brute = Counter()
            for part in enumerate_set_partitions(2 * q):
                if any(len(b) % 2 for b in part):
                    continue
                entries = tuple(
                    sorted((len(b) // 2, sum(1 for e in b if e > q)) for b in part)
                )
                brute[entries] += 1
            profiles = dict(even_block_profiles(q))
            assert profiles == dict(brute)
        for N in range(1, 5):
            for n in range(1, 7):
                for m in range(0, N * (n - 1) + 2):
                    expected = sum(
                        1 for t in product(range(n), repeat=N) if sum(t) == m
                    )
                    assert composition_count(N, n, m) == expected


def test_criterion_12_number_theory_oracles():
    def series_mul(a, b, order):
        out = [Fraction(0)] * (order + 1)
        for i, ca in enumerate(a[: order + 1]):
            if ca:
                for j, cb in enumerate(b[: order + 1 - i]):
                    out[i + j] += ca * cb
        return out

    def series_log1p(u, order):
        out = [Fraction(0)] * (order + 1)
        power = [Fraction(0)] * (order + 1)
        power[0] = Fraction(1)
        for i in range(1, order + 1):
            power = series_mul(power, u, order)
            sign = 1 if i % 2 else -1
            for d in range(order + 1):
                out[d] += Fraction(sign, i) * power[d]
        return out

    with _Budget("12 power-series oracles for T and C", 10.0):
        order = 10
        cosh = [Fraction(0)] * (order + 1)
        for k in range(1, order + 1):
            cosh[k] = Fraction(1, math.factorial(2 * k))
        log_cosh = series_log1p(cosh, order)
        t_oracle = [
            int(log_cosh[k] * math.factorial(2 * k)) for k in range(1, order + 1)
        ]
        assert list(tangent_numbers(order)) == t_oracle

        bessel = [Fraction(0)] * (order + 1)
        for k in range(1, order + 1):
            bessel[k] = Fraction((-1) ** k, math.factorial(k) ** 2)
        log_bessel = series_log1p(bessel, order)
        c_oracle = [
            int((-1) ** k * log_bessel[k] * math.factorial(k) ** 2)
            for k in range(1, order + 1)
        ]
        assert list(carlitz_numbers(order)) == c_oracle
