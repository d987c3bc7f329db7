"""Tests for the limit recursions, direct partition sums, triangles, and phi."""
import json
import math
import random
import subprocess
import sys
import time
from bisect import bisect_right
from fractions import Fraction
from functools import cache, lru_cache
from itertools import repeat
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import factorint

from csv_digests import FIRST_REFUSED
from int_limit import int_max_str_digits, least_reaching, recorded_digit_checks
from moments import family_moments, is_stieltjes
from littlewood.partitions import enumerate_set_partitions, even_block_profiles
from littlewood.limits import (
    FAMILIES,
    PHI_PIECES_QMAX,
    SHIFTED_QMAX,
    check_shift,
    fekete_limit_direct,
    fekete_limit_recursive,
    fekete_triangle_row,
    galois_limit_direct,
    galois_limit_recursive,
    galois_triangle_row,
    limit_table,
    phi_min,
    phi_piecewise,
    shifted_fekete_limit,
    triangle_table,
)
from littlewood import _check_digits, gf2k, limits
from littlewood.piecewise import MinimizeResult
from littlewood.ratpoly import poly_eval
from littlewood.special_numbers import (
    carlitz_numbers,
    eulerian_general,
    eulerian_polynomial,
    tangent_numbers,
)

FEKETE_LIMITS = [
    Fraction(1),
    Fraction(5, 3),
    Fraction(19, 5),
    Fraction(3469, 315),
    Fraction(21565, 567),
    Fraction(7760593, 51975),
    Fraction(12478099, 19305),
    Fraction(643983856759, 212837625),
]

GALOIS_LIMITS = [
    Fraction(1),
    Fraction(4, 3),
    Fraction(11, 5),
    Fraction(92, 21),
    Fraction(15481, 1512),
    Fraction(411913, 15120),
    Fraction(2482927, 30888),
    Fraction(4181926481, 16216200),
]

PHI_QUARTER = [
    Fraction(1),
    Fraction(7, 6),
    Fraction(31, 20),
    Fraction(653, 280),
    Fraction(71735, 18144),
    Fraction(24880549, 3326400),
    Fraction(72207143, 4633200),
    Fraction(960901090937, 27243216000),
]

FEKETE_ROWS = {
    1: (1,),
    2: (-2, 10, -2),
    3: (16, -184, 456, -184, 16),
    4: (-272, 5776, -30736, 55504, -30736, 5776, -272),
}

GALOIS_ROWS = {
    1: (1,),
    2: (-1, 8, -1),
    3: (4, -76, 264, -76, 4),
    4: (-33, 1248, -9735, 22080, -9735, 1248, -33),
}


def test_triangle_rows_published():
    for k, row in FEKETE_ROWS.items():
        assert fekete_triangle_row(k) == row
    for k, row in GALOIS_ROWS.items():
        assert galois_triangle_row(k) == row
    for family, rows in (("fekete", FEKETE_ROWS), ("galois", GALOIS_ROWS)):
        assert triangle_table(family, len(rows)) == [rows[k] for k in sorted(rows)]


def test_triangle_invariants():
    tangents = tangent_numbers(8)
    carlitzs = carlitz_numbers(8)
    for k in range(1, 9):
        fr = fekete_triangle_row(k)
        gr = galois_triangle_row(k)
        assert fr == fr[::-1]
        assert gr == gr[::-1]
        assert fr[0] == tangents[k - 1]
        assert gr[0] == carlitzs[k - 1]
        fact = math.factorial(2 * k - 1)
        assert Fraction(fr[k - 1], fact) == fekete_limit_recursive(k)
        assert Fraction(gr[k - 1], fact) == galois_limit_recursive(k)


# ---------------------------------------------------------------------------
# the recursion in coefficient form (oracle only): products of polynomials
# in y = x + 1/x, where production evaluates them at integer nodes


def _y_form(half):
    """pi with sum_i pi_i (x + 1/x)^i = half[0] + sum_m half[m] (x^m + x^-m).

    As (x + 1/x)^i = sum_t C(i, t) x^(i-2t), half[m] = sum_t pi_(m+2t) C(m+2t, t)
    (`limits._x_form`); this solves for pi from the top degree down.
    """
    pi = list(half)
    for i in range(len(pi) - 3, -1, -1):
        pi[i] -= sum(pi[m] * math.comb(m, (m - i) // 2) for m in range(i + 2, len(pi), 2))
    return tuple(pi)


@lru_cache(maxsize=None)
def _eulerian_y(j):
    # A_j(x) = x^j alpha_j(x + 1/x) with deg alpha_j = j - 1
    return _y_form(eulerian_polynomial(j)[j:])


@lru_cache(maxsize=None)
def _coefficient_recursion(family, k):
    # pi_k = sum_j s_(k,j) alpha_j pi_(k-j), expanded as polynomial products;
    # called in increasing k, so the cache keeps the stack shallow
    if k == 0:
        return (1,)
    acc = [0] * k
    numbers = tangent_numbers(k) if family == "fekete" else carlitz_numbers(k)
    for j in range(1, k + 1):
        s = math.comb(2 * k - 1, 2 * j - 1) * max(2 * (k - j), 1) * numbers[j - 1]
        if family == "fekete":
            s *= math.comb(2 * k - 1, 2 * j - 1)
        else:
            s *= math.comb(k, j) * math.comb(k - 1, j - 1)
        a, p = sorted((_eulerian_y(j), _coefficient_recursion(family, k - j)), key=len)
        for i, av in enumerate(a):
            acc[i:i + len(p)] = map(add, acc[i:i + len(p)], map(mul, repeat(s * av), p))
    return tuple(acc)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=30))
@example([0])
@example([5, -2, 0, 7])
def test_y_form_round_trip(half):
    # a palindromic x-coefficient vector, written in y = x + 1/x and back
    full = half[:0:-1] + half
    centre = full[len(full) // 2:]
    pi = _y_form(centre)
    assert len(pi) == len(centre)
    assert limits._x_form(pi) == tuple(centre)
    # sum_i pi_i (x + 1/x)^i at x = 2, times 2^d, against the x-form at x = 2
    d = len(half) - 1
    lhs = sum(c * 5**i * 2 ** (d - i) for i, c in enumerate(pi))
    rhs = sum(c * 2**m for m, c in enumerate(full))
    assert lhs == rhs


def test_eulerian_y_form_expands_back():
    # production evaluates alpha_j at the nodes without its y-form
    node_alphas = limits._alphas(48)
    assert len(node_alphas) == 48
    for j in range(1, 49):
        alpha = _eulerian_y(j)
        assert len(alpha) == j
        assert limits._x_form(alpha) == eulerian_polynomial(j)[j:], j
        for i in range(j):
            y = limits._node(i)
            assert node_alphas[i][j - 1] == sum(c * y**m for m, c in enumerate(alpha)), (i, j)


def _exp_series(g, n):
    # e_0..e_n of exp(sum_j g[j-1] t^j), by m e_m = sum_j j g_j e_(m-j)
    e = [Fraction(1)]
    for m in range(1, n + 1):
        e.append(sum(j * g[j - 1] * e[m - j] for j in range(1, m + 1)) / m)
    return e


def test_node_table_matches_exponential_formula():
    # pi_n(y) = s_n [t^n] exp(sum_j N_j alpha_j(y) t^j / s_j), with N_j = T(j) and
    # s_n = 2n (2n-1)!^2 for Fekete, N_j = C(j) and s_n = n (2n-1)! n! (n-1)!
    # for Galois; alpha_j in y = x + 1/x is expanded from x^-j A_j(x), whose
    # coefficients come from the alternating binomial sum of `eulerian_general`
    kmax, f = 12, math.factorial
    alphas = [_y_form([int(eulerian_general(2 * j - 1, a - 1)) for a in range(j, 2 * j)])
              for j in range(1, kmax + 1)]
    for family, numbers, scale in (
            ("fekete", tangent_numbers(kmax), lambda n: 2 * n * f(2 * n - 1) ** 2),
            ("galois", carlitz_numbers(kmax), lambda n: n * f(2 * n - 1) * f(n) * f(n - 1))):
        for k in range(1, kmax + 1):
            for i, values in enumerate(limits._node_table(family, k)):
                y = (i + 1) // 2 if i % 2 else -(i // 2)
                g = [Fraction(N * sum(c * y**m for m, c in enumerate(alpha)), scale(j))
                     for j, N, alpha in zip(range(1, k + 1), numbers, alphas)]
                e = _exp_series(g, k)
                expected = [1] + [scale(n) * e[n] for n in range(1, k + 1)]
                assert values == expected, (family, k, y)


def test_value_route_matches_coefficient_recursion():
    for family in ("fekete", "galois"):
        table = limit_table(family, 72)
        rows = triangle_table(family, 72)
        for q in range(1, 73):
            pi = _coefficient_recursion(family, q)
            centre = sum(pi[m] * math.comb(m, m // 2) for m in range(0, q, 2))
            assert table[q] == Fraction(centre, math.factorial(2 * q - 1))
            half = limits._x_form(pi)
            assert rows[q - 1] == half[:0:-1] + half, (family, q)


def test_no_state_outlives_a_call():
    # in a fresh process with every module imported: no module global is a
    # cache, the calls below leave every module-level container at its size
    # (and bind no new one), and limit_table("fekete", 64) leaves only its 64
    # values, about 21 KB (a table kept per node would hold more than 800 KB)
    script = (
        "import importlib, json, pkgutil, tracemalloc\n"
        "from fractions import Fraction\n"
        "import littlewood\n"
        "mods = [littlewood] + [importlib.import_module(f'littlewood.{m.name}')\n"
        "    for m in pkgutil.iter_modules(littlewood.__path__) if m.name != '__main__']\n"
        "def sizes():\n"
        "    return {f'{mod.__name__}.{name}': len(value) for mod in mods\n"
        "            for name, value in vars(mod).items() if not name.startswith('__')\n"
        "            and isinstance(value, (dict, list, set, bytearray))}\n"
        "before = sizes()\n"
        "from littlewood import limits, polynomials, special_numbers\n"
        "limits.limit_table('fekete', 48)\n"
        "limits.triangle_table('galois', 8)\n"
        "limits.shifted_fekete_limit(4, Fraction(1, 3))\n"
        "limits.phi_piecewise(3)\n"
        "limits.phi_min(3, Fraction(1, 2**20))\n"
        "special_numbers.eulerian_general(5, Fraction(1, 3))\n"
        "polynomials.convergence_table('fekete', 2, [13])\n"
        "polynomials.convergence_table('shifted', 2, [13], shift_ratio=Fraction(1, 4))\n"
        "polynomials.convergence_table('galois', 2, [5])\n"
        "caches = sorted(f'{mod.__name__}.{name}' for mod in mods\n"
        "                for name, value in vars(mod).items() if hasattr(value, 'cache_info'))\n"
        "tracemalloc.start()\n"
        "table = limits.limit_table('fekete', 64)\n"
        "print(json.dumps([caches, before, sizes(), tracemalloc.get_traced_memory()[0]]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    caches, before, after, held = json.loads(proc.stdout)
    assert caches == []
    assert "littlewood.gf2k._BIT_SIGNS" in before  # the scan reaches the submodules
    # the recursions and special numbers hold no container at all
    assert not [k for k in before if k.startswith(("littlewood.limits.", "littlewood.special_"))]
    assert after == before
    assert held < 128 * 1024, held


def test_recursions_need_no_deep_stack():
    # the recursion runs as loops, so its stack depth does not grow with q
    script = (
        "import sys\n"
        "from littlewood.limits import fekete_limit_recursive, galois_triangle_row\n"
        "sys.setrecursionlimit(80)\n"
        "fekete_limit_recursive(70)\n"
        "galois_triangle_row(70)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_per_order_functions_match_the_tables():
    # the per-order functions build rows first = k..k of `_rows`, the tables
    # rows 1..24: each order's value and row agree across the two routes
    for family, limit, row_of in (
        ("fekete", fekete_limit_recursive, fekete_triangle_row),
        ("galois", galois_limit_recursive, galois_triangle_row),
    ):
        table, rows = limit_table(family, 24), triangle_table(family, 24)
        assert type(table) is dict and list(table) == list(range(1, 25))
        assert type(rows) is list and len(rows) == 24
        for k in range(1, 25):
            assert limit(k) == table[k], (family, k)
            assert row_of(k) == rows[k - 1], (family, k)


def test_triangle_rows_palindromic():
    for k in range(1, 17):
        for row in (fekete_triangle_row(k), galois_triangle_row(k)):
            assert type(row) is tuple and len(row) == 2 * k - 1
            assert row == row[::-1], k


def test_direct_hand_values():
    assert fekete_limit_direct(2) == 3 + Fraction(-2, 6) * 4
    assert galois_limit_direct(2) == 2 + Fraction(-1, 6) * 4


# ---------------------------------------------------------------------------
# brute partition-first evaluators (oracle only, q <= 4): walk the raw set
# partitions instead of the multiplicity-weighted profiles


def _coeff(poly, m):
    return poly[m] if 0 <= m < len(poly) else Fraction(0)


def _brute_fekete_limit(q):
    from littlewood.ratpoly import poly_mul
    from littlewood.special_numbers import eulerian_polynomial, tangent_numbers

    tangents = tangent_numbers(q)
    total = Fraction(0)
    for part in enumerate_set_partitions(2 * q):
        if any(len(b) % 2 for b in part):
            continue
        weight = Fraction(1)
        gen = (Fraction(1),)
        for block in part:
            N = len(block) // 2
            weight *= Fraction(tangents[N - 1], math.factorial(2 * N - 1))
            gen = poly_mul(gen, eulerian_polynomial(N))
        total += weight * _coeff(gen, q)
    return total


def _brute_galois_limit(q):
    from littlewood.ratpoly import poly_mul
    from littlewood.special_numbers import carlitz_numbers, eulerian_polynomial

    carlitzs = carlitz_numbers(q)
    total = Fraction(0)
    for part in enumerate_set_partitions(q):
        weight = Fraction(math.factorial(q))
        gen = (Fraction(1),)
        for block in part:
            N = len(block)
            weight *= Fraction(
                carlitzs[N - 1], math.factorial(N) * math.factorial(2 * N - 1)
            )
            gen = poly_mul(gen, eulerian_polynomial(N))
        total += weight * _coeff(gen, q)
    return total


def _brute_shifted_limit(q, R):
    from littlewood.special_numbers import eulerian_general, tangent_numbers

    tangents = tangent_numbers(q)
    total = Fraction(0)
    for part in enumerate_set_partitions(2 * q):
        if any(len(b) % 2 for b in part):
            continue
        weight = Fraction(1)
        conv = {0: Fraction(1)}
        for block in part:
            N = len(block) // 2
            P = sum(1 for e in block if e > q)
            weight *= Fraction(tangents[N - 1], math.factorial(2 * N - 1))
            shift = 2 * Fraction(R) * (N - P)
            nxt = {}
            for a in range(math.floor(-shift) + 1, math.ceil(2 * N - shift)):
                v = eulerian_general(2 * N - 1, shift + a - 1)
                if v:
                    for e, c in conv.items():
                        nxt[e + a] = nxt.get(e + a, Fraction(0)) + c * v
            conv = nxt
        total += weight * conv.get(q, Fraction(0))
    return total


def test_partition_first_oracles():
    for q in range(1, 5):
        assert _brute_fekete_limit(q) == fekete_limit_direct(q)
        assert _brute_galois_limit(q) == galois_limit_direct(q)
    for q in (1, 2, 3):
        for R in (Fraction(0), Fraction(1, 4), Fraction(3, 16), Fraction(-2, 7)):
            assert _brute_shifted_limit(q, R) == shifted_fekete_limit(q, R), (q, R)


def test_limit_table():
    table = limit_table("fekete", 3)
    assert table == {1: Fraction(1), 2: Fraction(5, 3), 3: Fraction(19, 5)}
    assert limit_table("galois", 1) == {1: 1}
    with pytest.raises(ValueError):
        limit_table("both", 2)


def test_monotone_growth():
    for limits in (FEKETE_LIMITS, GALOIS_LIMITS):
        assert all(a < b for a, b in zip(limits, limits[1:]))


def test_limits_are_stieltjes_moments():
    # m_q = E[X^q] of a law on [0, inf), an oracle independent of the
    # recursion at every order; `python tests/moments.py` checks q <= 127
    for family in FAMILIES:
        moments = family_moments(family, 64)
        assert is_stieltjes(moments), family
        # one moment off by a relative 1e-12, either way, is no moment sequence
        for scale in (1 + Fraction(1, 10**12), 1 - Fraction(1, 10**12)):
            assert not is_stieltjes([*moments[:40], moments[40] * scale, *moments[41:]]), \
                (family, scale)
    for R in (Fraction(0), Fraction(1, 8), Fraction(1, 4)):
        moments = [Fraction(1)] + [shifted_fekete_limit(q, R) for q in range(1, 16)]
        assert is_stieltjes(moments), R
    # controls: Exp(1), the law of random +-1 polynomials, and U[0, 2], the
    # Rudin-Shapiro law, pass; the standard normal law has mass below 0
    assert is_stieltjes([math.factorial(q) for q in range(64)])
    assert is_stieltjes([Fraction(2**q, q + 1) for q in range(64)])
    assert not is_stieltjes([0 if q % 2 else math.prod(range(1, q, 2)) for q in range(16)])


# ---------------------------------------------------------------------------
# shifted limits


# the profile oracle's Eulerian values, memoised here: the library keeps nothing
_eulerian = cache(eulerian_general)


def _profile_shifted_limit(q, R):
    # the former production route: per even block profile, each block
    # contributes Eulerian values at 2R(N-P) + a - 1 over the a where they can
    # be nonzero, and the composition sum is a sparse convolution over the
    # a-exponents, read off at total exponent q
    R = Fraction(R)
    tangent = tangent_numbers(q)
    total = Fraction(0)
    for entries, count in even_block_profiles(q):
        weight = Fraction(count)
        conv = {0: Fraction(1)}
        for N, P in entries:
            weight *= Fraction(tangent[N - 1], math.factorial(2 * N - 1))
            shift = 2 * R * (N - P)
            nxt = {}
            for a in range(math.floor(-shift) + 1, math.ceil(2 * N - shift)):
                v = _eulerian(2 * N - 1, shift + a - 1)
                if v:
                    for e, c in conv.items():
                        nxt[e + a] = nxt.get(e + a, Fraction(0)) + c * v
            conv = nxt
        total += weight * conv.get(q, Fraction(0))
    return total


ORACLE_RATIOS = [
    Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(2, 7), Fraction(1, 2),
    Fraction(5, 4), Fraction(-3, 10), Fraction(-9, 7), Fraction(13, 6),
    Fraction(7, 1000003), Fraction(10**40 + 1, 3 * 10**40),
]


def test_shifted_matches_profile_oracle():
    for q in range(1, 9):
        for R in ORACLE_RATIOS:
            assert shifted_fekete_limit(q, R) == _profile_shifted_limit(q, R), (q, R)


def test_shifted_matches_profile_oracle_q9_q10():
    for q, R in ((9, Fraction(1, 4)), (9, Fraction(-2, 5)), (10, Fraction(3, 7))):
        assert shifted_fekete_limit(q, R) == _profile_shifted_limit(q, R), (q, R)


def test_shifted_reduces_to_fekete_at_zero():
    for q in range(1, SHIFTED_QMAX + 1):
        assert shifted_fekete_limit(q, 0) == fekete_limit_recursive(q), q


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(1, 12),
    R=st.fractions(max_denominator=10**12).filter(lambda r: abs(r) < 100),
)
@example(q=12, R=Fraction(1, 4))
@example(q=7, R=Fraction(-7, 2))
def test_shifted_symmetries_property(q, R):
    v = shifted_fekete_limit(q, R)
    assert shifted_fekete_limit(q, -R) == v
    assert shifted_fekete_limit(q, R + Fraction(1, 2)) == v


@lru_cache(maxsize=None)
def _first_refused(q: int, limit: int = 4300) -> int:
    # the least d with (2q)!/q! c^q d^(2q) >= 10^limit
    return least_reaching(_shift_scale(q), 2 * q, limit)


def _shift_scale(q: int) -> int:
    # (2q)!/q! c^q, the shift rule's bound without d^(2q)
    return math.factorial(2 * q) // math.factorial(q) * limits._block_scale(q) ** q


class _Admitted(Exception):
    """Raised in place of the work an admitted call would go on to do."""


def _admitted(*args):
    raise _Admitted


def _refusal(call) -> str | None:
    # the message of the ValueError call raises, or None if it is admitted
    try:
        call()
    except ValueError as exc:
        return str(exc)
    except _Admitted:
        pass
    return None


def test_digit_rule_decides_long_bounds_by_bits_alone():
    # 2^(4L) > 10^L: from low_bits = 4L on, value is never called
    for limit in (640, 4300):
        with int_max_str_digits(limit):
            assert _check_digits("x", 4 * limit - 1, lambda: 10**limit - 1) == 10**limit - 1
            with pytest.raises(ValueError, match=rf"^x may have more than {limit} digits, "
                                                 "the int/str conversion limit$"):
                _check_digits("x", 4 * limit - 1, lambda: 10**limit)
            with pytest.raises(ValueError, match=f"more than {limit} digits"):
                _check_digits("x", 4 * limit, _admitted)


@st.composite
def _shift_case(draw):
    # q, the limit, and d near the 10^L edge, near the 4L-bit edge
    # 2q (bitlen(d) - 1) >= 4L, or anywhere from below the one to past the other
    q = draw(st.integers(1, SHIFTED_QMAX))
    limit = draw(st.sampled_from((640, 4300)))
    digits_edge, bits_edge = _first_refused(q, limit), 1 << -(-2 * limit // q)
    d = draw(st.one_of(st.integers(digits_edge - 3, digits_edge + 3),
                       st.integers(bits_edge - 3, bits_edge + 3),
                       st.integers(digits_edge // 2, 2 * bits_edge)))
    return q, limit, max(d, 1)


@settings(max_examples=60, deadline=None)
@given(_shift_case())
@example((16, 4300, (1 << 538) - 1))
@example((1, 640, 1 << 1280))
def test_shift_rule_refuses_exactly_at_its_formula(case):
    # refused exactly when (2q)!/q! c^q d^(2q) >= 10^L, d the reduced
    # denominator; what check_shift hands the rule is that bound, and
    # 2^low_bits is below it
    q, limit, d = case
    R = Fraction(1, d)
    bound = _shift_scale(q) * (R % Fraction(1, 2)).denominator ** (2 * q)
    start = time.perf_counter()
    with int_max_str_digits(limit), recorded_digit_checks(limits) as seen:
        refused = _refusal(lambda: check_shift(q, R))
    assert time.perf_counter() - start < 0.05
    expected = (f"phi_{q} at this shift ratio may have more than {limit} digits, "
                "the int/str conversion limit")
    assert refused == (expected if bound >= 10**limit else None)
    [(low_bits, value)] = seen
    assert value == bound and 2**low_bits <= bound


def test_block_scale_is_least():
    # c^N must be a multiple of (2N-1)! (2N)! for every N <= q, and dividing c
    # by any of its primes, read off sympy's factorisation, breaks that
    for q in range(1, 17):
        c = limits._block_scale(q)
        blocks = [math.factorial(2 * N - 1) * math.factorial(2 * N) for N in range(1, q + 1)]
        assert all(c**N % m == 0 for N, m in enumerate(blocks, 1)), q
        for p in factorint(c):
            assert any((c // p) ** N % m for N, m in enumerate(blocks, 1)), (q, p)


def test_shifted_preconditions():
    for q in (0, SHIFTED_QMAX + 1):
        with pytest.raises(ValueError, match=rf"^q {q} out of range 1\.\.16$"):
            shifted_fekete_limit(q, 0)
    # the edge of the print clause under the default int/str limit, met
    # directly and through the period 1/2
    for q, d in FIRST_REFUSED.items():
        assert d == _first_refused(q)
        assert check_shift(q, Fraction(1, d - 1)) is None
        assert check_shift(q, Fraction(d, d - 1)) is None
        with pytest.raises(ValueError, match=f"phi_{q} at this shift ratio may have more "
                                             "than 4300 digits"):
            check_shift(q, Fraction(1, d))
        with pytest.raises(ValueError, match="more than 4300 digits"):
            shifted_fekete_limit(q, Fraction(d + 1, d))


def test_shifted_rule_admits_the_largest_reduced_denominators():
    # every input the former cap of 1000 // q digits on the denominator
    # admitted is still admitted: 1/(10^k - 1), and (d - 1)/d, which reduces
    # to (d - 2)/(2d) in [0, 1/2), the largest denominator the evaluator met
    for q in range(1, SHIFTED_QMAX + 1):
        d = 10 ** (1000 // q) - 1
        assert (Fraction(d - 1, d) % Fraction(1, 2)).denominator == 2 * d
        assert check_shift(q, Fraction(1, d)) is None
        assert check_shift(q, Fraction(d - 1, d)) is None


def test_shifted_rule_refuses_a_long_denominator_before_the_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a refused request reached the evaluator")

    monkeypatch.setattr(limits, "_shifted_values", never)
    # a denominator the command line parses, and one only a caller can build,
    # whose 32nd power alone would take seconds
    for R in (Fraction(1, 10**4000 - 1), Fraction(1, 10**100000 + 1)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 4300 digits"):
            shifted_fekete_limit(16, R)
        assert time.perf_counter() - start < 0.05


def test_phi_below_the_bound_of_the_print_rule():
    # `check_shift` bounds phi_q(R) by (2q)!/q!; phi_q is largest at R = 0
    for q in range(1, SHIFTED_QMAX + 1):
        bound = math.factorial(2 * q) // math.factorial(q)
        assert fekete_limit_recursive(q) < bound, q
        if q <= 12:
            for R in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 3)):
                assert shifted_fekete_limit(q, R) < bound, (q, R)


def test_shifted_rule_follows_the_running_int_str_limit():
    # the value at 1/(10^62 - 1) has 1889 digits; within the default limit,
    # beyond 640, and within no limit at all
    R = Fraction(1, 10**62 - 1)
    assert check_shift(16, R) is None
    edge = Fraction(1, FIRST_REFUSED[16])
    with int_max_str_digits(640):
        with pytest.raises(ValueError, match="phi_16 at this shift ratio may have more than 640"):
            check_shift(16, R)
        assert check_shift(16, Fraction(1, 3)) is None
        assert check_shift(16, Fraction(1, _first_refused(16, 640) - 1)) is None
        with pytest.raises(ValueError, match="more than 640 digits"):
            check_shift(16, Fraction(1, _first_refused(16, 640)))
    # no limit, or one above the default, reads as the default of 4300
    for limit in (0, 10**5):
        with int_max_str_digits(limit):
            assert check_shift(16, R) is None
            with pytest.raises(ValueError, match="more than 4300 digits"):
                check_shift(16, edge)


def test_shifted_large_denominators():
    # a 125-digit denominator at q = 8: the period and the reflection reach R
    # through different reductions into [0, 1/2)
    d = 10**125 - 1
    R = Fraction(d // 3 - 1, d)
    v = shifted_fekete_limit(8, R)
    assert shifted_fekete_limit(8, -R) == v
    assert shifted_fekete_limit(8, R + 3) == v
    R = Fraction(1, 10**124 + 7)
    assert shifted_fekete_limit(5, R) == _profile_shifted_limit(5, R)


# ---------------------------------------------------------------------------
# phi as an exact piecewise polynomial

def test_phi_matches_pointwise_evaluation():
    rng = random.Random(20)
    for q in range(1, 7):
        f = phi_piecewise(q)
        for _ in range(20):
            r = Fraction(rng.randint(0, 2**16), 2**17)
            assert f.evaluate(r) == shifted_fekete_limit(q, r), (q, r)


def test_phi_pieces_match_profile_oracle():
    # 2q points strictly inside each piece determine it (degree <= 2q-1); the
    # 1009 in their denominators keeps them off the interpolation nodes,
    # whose denominators have only primes below 2q+3
    for q in range(1, 7):
        f = phi_piecewise(q)
        for i, piece in enumerate(f.pieces):
            lo, hi = f.breakpoints[i], f.breakpoints[i + 1]
            for k in range(1, 2 * q + 1):
                x = lo + (hi - lo) * (Fraction(2 * k - 1, 4 * q) + Fraction(1, 1009))
                assert lo < x < hi
                assert poly_eval(piece, x) == _profile_shifted_limit(q, x), (q, x)


def test_phi_piecewise_check_node_fires(monkeypatch):
    exact = limits._shifted_values
    calls = []

    def perturbed(q, rs, d):
        # one wrong interpolation value moves the piece off the check node
        calls.append(rs)
        ys, den = exact(q, rs, d)
        if len(calls) == 1:
            ys[2] += 1
        return ys, den

    monkeypatch.setattr(limits, "_shifted_values", perturbed)
    with pytest.raises(ArithmeticError):
        phi_piecewise(4)


@pytest.mark.parametrize("node", range(8))
def test_phi_piecewise_check_fires_at_every_node(monkeypatch, node):
    # one unit off at node i of phi_4's 8 consecutive integer nodes moves the
    # top divided difference, times m = 7!, by C(7, i) != 0
    exact = limits._shifted_values

    def perturbed(q, rs, d):
        ys, den = exact(q, rs, d)
        ys[node] += 1
        return ys, den

    monkeypatch.setattr(limits, "_shifted_values", perturbed)
    with pytest.raises(ArithmeticError, match=r"^phi_4 near 2/9 is not of degree < 7$"):
        phi_piecewise(4)


def _candidate_breakpoints(q):
    return sorted({Fraction(0), Fraction(1, 4), Fraction(1, 2)} | {
        Fraction(j, 2 * D) for D in range(1, q // 2 + 1) for j in range(D + 1)
    })


def _candidate_intervals_below_quarter(q):
    return len([b for b in _candidate_breakpoints(q) if 0 < b <= Fraction(1, 4)])


def test_phi_piecewise_evaluates_only_below_quarter(monkeypatch):
    exact = limits._shifted_values
    nodes = []

    def counted(q, rs, d):
        for r in rs:
            assert 0 < Fraction(r, d) < Fraction(1, 4)
        nodes.extend(Fraction(r, d) for r in rs)
        return exact(q, rs, d)

    monkeypatch.setattr(limits, "_shifted_values", counted)
    for q in range(1, 7):
        nodes.clear()
        phi_piecewise(q)
        assert len(nodes) == _candidate_intervals_below_quarter(q) * 2 * q, q
    assert len(nodes) == 24


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 5), data=st.data())
def test_shifted_values_match_pointwise(q, data):
    # random interior nodes of one interval between breakpoints, over one
    # common denominator
    breaks = _candidate_breakpoints(q)
    i = data.draw(st.integers(0, len(breaks) - 2), label="interval")
    a, b = breaks[i], breaks[i + 1]
    d = math.lcm(a.denominator, b.denominator) * data.draw(st.integers(2, 60), label="m")
    interior = range(int(a * d) + 1, int(b * d))
    rs = data.draw(st.lists(st.sampled_from(interior), min_size=1, max_size=7, unique=True))
    values, den = limits._shifted_values(q, rs, d)
    assert len(values) == len(rs)
    for r, v in zip(rs, values):
        R = Fraction(r, d)
        assert (Fraction(v, den) == shifted_fekete_limit(q, R)
                == _profile_shifted_limit(q, R)), (q, R)


def test_shifted_values_refuse_straddling_nodes():
    # 0 is a breakpoint for q >= 2 (D = 1), 1/4 for q >= 4 (D = 2)
    for q in range(2, 6):
        with pytest.raises(ValueError, match="straddle"):
            limits._shifted_values(q, [0, 1], 8)
    for q in (4, 5):
        for rs in ([1, 3], [2, 3], [1, 2]):
            with pytest.raises(ValueError, match="straddle"):
                limits._shifted_values(q, rs, 8)
    # at q = 1 no block moves with R, and at q = 3 only 0 and 1/2 are breakpoints
    values, den = limits._shifted_values(1, [0, 1], 8)
    assert [Fraction(v, den) for v in values] == [1, 1]
    values, den = limits._shifted_values(3, [1, 2, 3], 8)
    assert [Fraction(v, den) for v in values] == [
        shifted_fekete_limit(3, Fraction(r, 8)) for r in (1, 2, 3)
    ]


def test_shifted_blocks_window_ends_are_nonzero():
    # a block's window runs from W_n[0] = t^n (or W_n[1] when t = 0) to
    # W_n[n] > 0, so its first and last tuples of node values have no zero
    def node_sets():
        # R = 0: t = 0 at every D
        for q in range(1, 9):
            yield q, [0], 1
        # the 2q interior nodes of one phi_6 interval, as `phi_piecewise`
        # takes them: t != 0 at every D != 0
        q = 6
        a, b = _candidate_breakpoints(q)[1:3]
        xs = [a + (b - a) * k / (2 * q + 1) for k in range(1, 2 * q + 1)]
        d = math.lcm(*(x.denominator for x in xs))
        yield q, [x.numerator * (d // x.denominator) for x in xs], d

    for q, rs, d in node_sets():
        blocks = limits._shifted_blocks(q, rs, d, limits._block_scale(q))
        found = [coeffs for by_p in blocks for _, coeffs in by_p.values()]
        assert found, (q, rs, d)
        for coeffs in found:
            assert len(coeffs[0]) == len(coeffs[-1]) == len(rs)
            assert all(coeffs[0]) and all(coeffs[-1]), (q, rs, d)


def test_phi_pieces_mirror():
    # phi_q(R) = phi_q(1/2 - R): the piece on [1/2 - b, 1/2 - a] is the one on
    # [a, b] at R -> 1/2 - R; 2q+1 points determine a polynomial of degree <= 2q.
    # Below 1/4 the pieces are those of `_phi_quarter`, which `phi_min` takes
    half = Fraction(1, 2)
    for q in range(1, 7):
        f = phi_piecewise(q)
        bps, n = f.breakpoints, len(f.pieces)
        quarter = limits._phi_quarter(q)
        assert quarter.breakpoints[-1] == half / 2, q
        assert set(quarter.breakpoints[:-1]) <= set(bps), q
        for a, piece in zip(quarter.breakpoints, quarter.pieces):
            assert f.pieces[bisect_right(bps, a) - 1] == piece, (q, a)
        assert all(x + y == half for x, y in zip(bps, bps[::-1])), q
        for i, piece in enumerate(f.pieces):
            lo, hi = bps[i], bps[i + 1]
            for k in range(1, 2 * q + 2):
                x = lo + (hi - lo) * Fraction(k, 2 * q + 3)
                assert poly_eval(piece, x) == poly_eval(f.pieces[n - 1 - i], half - x), (q, x)


def test_phi_pieces_have_degree_at_most_2q_minus_2():
    # a profile's term moves with R only through its blocks with D = N - P != 0,
    # of R-degree 2N - 1 each; the D sum to 0, so none or at least two are
    # nonzero, and the degree is at most 2q - 2 (`_phi_quarter` interpolates
    # at 2q nodes and checks the top coefficient)
    for q in range(1, 7):
        degrees = [len(piece) - 1 for piece in phi_piecewise(q).pieces]
        assert max(degrees) <= 2 * q - 2, (q, degrees)
    assert max(len(piece) for piece in phi_piecewise(6).pieces) == 11


def test_phi_quarter_at_q10_breaks_at_every_candidate():
    # the first order with a candidate j/(2D) at j = 2 below 1/4: 1/5 = 2/10;
    # phi_10 changes piece at each candidate, and each piece is phi_10
    half = Fraction(1, 2)
    f = limits._phi_quarter(10)
    assert f.breakpoints == (0, Fraction(1, 10), Fraction(1, 8), Fraction(1, 6),
                             Fraction(1, 5), half / 2)
    for a, b in zip(f.breakpoints, f.breakpoints[1:]):
        assert f.evaluate((a + b) / 2) == shifted_fekete_limit(10, (a + b) / 2), (a, b)


def test_phi1_constant():
    f = phi_piecewise(1)
    assert f.evaluate(0) == f.evaluate(Fraction(1, 3)) == 1


def test_phi_min():
    eps = Fraction(1, 1 << 20)
    for q in (2, 3, 4):
        res = phi_min(q, eps)
        assert res.argmin[0] <= Fraction(1, 4) <= res.argmin[1]
        assert res.argmin[1] - res.argmin[0] <= eps
        assert res.value == (PHI_QUARTER[q - 1], PHI_QUARTER[q - 1])
        assert type(res) is MinimizeResult and res.competitors == ()
    # eps is read as a Fraction, as pw_minimize reads it
    assert phi_min(3, "1/8") == phi_min(3, Fraction(1, 8))


def test_phi_min_preconditions():
    with pytest.raises(ValueError):
        phi_min(1, Fraction(1, 16))
    with pytest.raises(ValueError):
        phi_piecewise(7)


@st.composite
def _eps_case(draw):
    # q, the limit, and e with eps = 2^-e, so k = 2e + 32, near the 10^L edge
    # 2^k (2q)!/q! >= 10^L, near the 4L-bit edge k >= 4L, or anywhere between
    q = draw(st.integers(2, PHI_PIECES_QMAX))
    limit = draw(st.sampled_from((640, 4300)))
    scale = math.factorial(2 * q) // math.factorial(q)
    digits_edge = least_reaching(scale, 1, limit).bit_length() // 2 - 16
    bits_edge = 2 * limit - 16
    e = draw(st.one_of(st.integers(digits_edge - 3, digits_edge + 3),
                       st.integers(bits_edge - 3, bits_edge + 3),
                       st.integers(0, bits_edge + 8)))
    return q, limit, e


@settings(max_examples=60, deadline=None)
@given(_eps_case())
@example((6, 4300, 7116))
@example((6, 4300, 7117))
@example((2, 640, 1263))
@example((2, 640, 1264))
def test_min_rule_refuses_exactly_at_its_formula(case):
    # refused exactly when 2^k (2q)!/q! >= 10^L, k = 2 ceil(log2(1/eps)) + 32;
    # what phi_min hands the rule is that bound, and 2^low_bits is below it
    q, limit, e = case
    bound = 2 ** (2 * e + 32) * math.factorial(2 * q) // math.factorial(q)
    # the rule's own cost: CPU time, which a loaded machine does not stretch
    start = time.process_time()
    with (int_max_str_digits(limit), recorded_digit_checks(limits) as seen,
          pytest.MonkeyPatch.context() as patch):
        patch.setattr(limits, "_phi_quarter", _admitted)
        refused = _refusal(lambda: phi_min(q, Fraction(1, 2**e)))
    assert time.process_time() - start < 0.05
    expected = (f"phi_{q} minimum at this eps may have more than {limit} digits, "
                "the int/str conversion limit")
    assert refused == (expected if bound >= 10**limit else None)
    [(low_bits, value)] = seen
    assert value == bound and 2**low_bits <= bound


def test_admitted_answer_does_not_outlive_its_cap(monkeypatch):
    # an answer built under a raised cap is refused once the cap is back
    with monkeypatch.context() as raised:
        raised.setattr(limits, "PHI_PIECES_QMAX", 8)
        raised.setattr(gf2k, "MAX_K", 25)
        assert len(phi_piecewise(8).pieces) == 6
        assert gf2k.primitive_polynomial(25) == 0x2000009
    with pytest.raises(ValueError, match=r"^q 8 out of range 1\.\.6$"):
        phi_piecewise(8)
    with pytest.raises(ValueError, match=r"^k 25 out of range 2\.\.24$"):
        gf2k.primitive_polynomial(25)
