"""Every argument rule refuses its bad inputs with ValueError, in its one
wording, before any work and within 50 ms.

`RULES` lists each public entry point of each integer rule,
`littlewood._check_int`: an int n with lo <= n <= hi, either bound optional,
else the message "{name} {n!r} out of range {lo}..{hi}" (a bound left out is
blank).  Each entry is called at lo - 1, at hi + 1, and at lo (0 with no lo)
as a float, a Fraction and a str.  `FURTHER` adds out-of-range ints to some
entries, `HUGE` those past the int/str limit, which the message names by bit
length.  `RATIONAL_RULES` lists each public entry point of the rational rule,
`littlewood._check_rational`, each called with every value of `NOT_RATIONAL`.
`_coefficient_rows` holds the refusals of coefficient vectors, and `OTHER` those of the other rules (family, eps, `is_odd_prime`) and of q = 0
with other vectors.  The functions that do the work after the checks are
patched to fail, and numpy to be missing, so a check that came after any work
would show as an AssertionError or ImportError, not as the expected
ValueError.  `ADMITTED` makes one small admitted call of each public entry
point of those modules, and every patched function must run in one of them,
so that no witness is one that can never fire.  This file needs only pytest, the standard library and littlewood.
"""
import gc
import sys
import time
from collections import Counter
from array import array
from decimal import Decimal
from fractions import Fraction
from functools import partial

import pytest

from littlewood import (_digit_limit, gf2k, intconv, limits, partitions, piecewise, polynomials,
                        special_numbers)
from littlewood.gf2k import MAX_K, galois, primitive_polynomial
from littlewood.intconv import norm_2q_exact, power_layout
from littlewood.limits import (
    DIRECT_QMAX,
    MAX_Q,
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
from littlewood.partitions import (
    MAX_ENUMERATION,
    enumerate_set_partitions,
    even_block_profiles,
    even_size_profiles,
    galois_size_profiles,
)
from littlewood.piecewise import PiecewisePoly, pw_minimize
from littlewood.polynomials import (
    MAX_PRIME,
    _fekete_signs,
    check_convergence,
    convergence_table,
    fekete,
    is_odd_prime,
    legendre,
    norm_2q_quadrature,
    shifted_fekete,
)
from littlewood.special_numbers import (
    carlitz_numbers,
    composition_count,
    eulerian_general,
    eulerian_polynomial,
    tangent_numbers,
)

# module -> the functions that run after its checks
WORK = {
    limits: ("_node_table", "_shifted_values", "_block_scale", "_phi_quarter",
             "tangent_numbers", "carlitz_numbers"),
    special_numbers: ("_tangent_binomial", "_carlitz_binomial", "_spline_rows", "comb"),
    partitions: ("_profiles",),
    piecewise: ("_isolate", "squarefree_part"),
    gf2k: ("primitive_polynomial", "_prime_factors", "_trace_bits"),
    polynomials: ("_prime_factors", "_galois_signs", "norm_2q_exact",
                  "fekete_limit_recursive", "galois_limit_recursive", "shifted_fekete_limit"),
    intconv: ("Decimal", "_pack_signs"),
}

# (entry point, argument name, lo, hi, the call with that argument): every
# public way into every integer rule; generators are driven with next()
RULES = [
    ("fekete_limit_recursive", "q", 1, MAX_Q, fekete_limit_recursive),
    ("galois_limit_recursive", "q", 1, MAX_Q, galois_limit_recursive),
    ("fekete_triangle_row", "k", 1, MAX_Q, fekete_triangle_row),
    ("galois_triangle_row", "k", 1, MAX_Q, galois_triangle_row),
    ("limit_table-fekete", "qmax", 1, MAX_Q, partial(limit_table, "fekete")),
    ("limit_table-galois", "qmax", 1, MAX_Q, partial(limit_table, "galois")),
    ("triangle_table-fekete", "rows", 1, MAX_Q, partial(triangle_table, "fekete")),
    ("triangle_table-galois", "rows", 1, MAX_Q, partial(triangle_table, "galois")),
    ("fekete_limit_direct", "q", 1, DIRECT_QMAX, fekete_limit_direct),
    ("galois_limit_direct", "q", 1, DIRECT_QMAX, galois_limit_direct),
    ("check_shift", "q", 1, SHIFTED_QMAX, lambda n: check_shift(n, 0)),
    ("shifted_fekete_limit", "q", 1, SHIFTED_QMAX, lambda n: shifted_fekete_limit(n, 1 / 4)),
    ("phi_piecewise", "q", 1, PHI_PIECES_QMAX, phi_piecewise),
    ("phi_min", "q", 2, PHI_PIECES_QMAX, lambda n: phi_min(n, Fraction(1, 8))),
    ("tangent_numbers", "kmax", 1, None, tangent_numbers),
    ("carlitz_numbers", "kmax", 1, None, carlitz_numbers),
    ("eulerian_general", "n", 1, None, lambda n: eulerian_general(n, 1)),
    ("eulerian_polynomial", "N", 1, None, eulerian_polynomial),
    ("composition_count-N", "N", 1, None, lambda n: composition_count(n, 3, 2)),
    ("composition_count-n", "n", 1, None, lambda n: composition_count(2, n, 2)),
    ("composition_count-m", "m", None, None, lambda n: composition_count(2, 3, n)),
    ("enumerate_set_partitions", "m", 1, MAX_ENUMERATION,
     lambda n: next(enumerate_set_partitions(n))),
    ("even_size_profiles", "q", 1, None, lambda n: next(even_size_profiles(n))),
    ("galois_size_profiles", "q", 1, None, lambda n: next(galois_size_profiles(n))),
    ("even_block_profiles", "q", 1, None, lambda n: next(even_block_profiles(n))),
    ("galois-k", "k", 2, MAX_K, galois),
    ("galois-beta-3", "beta", 1, 7, partial(galois, 3)),
    ("galois-beta-24", "beta", 1, (1 << MAX_K) - 1, partial(galois, MAX_K)),
    ("primitive_polynomial", "k", 2, MAX_K, primitive_polynomial),
    ("fekete", "p", 3, MAX_PRIME, fekete),
    ("shifted_fekete", "p", 3, MAX_PRIME, lambda n: shifted_fekete(n, 1)),
    ("_fekete_signs", "p", 3, MAX_PRIME, _fekete_signs),
    ("_fekete_signs-shifted", "p", 3, MAX_PRIME, lambda n: _fekete_signs(n, 1)),
    ("shifted_fekete-r", "r", None, None, partial(shifted_fekete, 5)),
    ("_fekete_signs-r", "r", None, None, partial(_fekete_signs, 5)),
    ("legendre", "p", 3, MAX_PRIME, partial(legendre, 2)),
    ("legendre-a", "a", None, None, lambda n: legendre(n, 7)),
    ("norm_2q_exact", "q", 1, None, partial(norm_2q_exact, (1, 1))),
    ("power_layout", "q", 1, None, lambda n: power_layout(5, n, 4)),
    ("norm_2q_quadrature", "q", 1, None, partial(norm_2q_quadrature, (1, 1))),
    ("convergence_table-fekete-q", "q", 1, MAX_Q, lambda n: convergence_table("fekete", n, [5])),
    ("convergence_table-galois-q", "q", 1, MAX_Q, lambda n: convergence_table("galois", n, [2])),
    ("convergence_table-shifted-q", "q", 1, SHIFTED_QMAX,
     lambda n: convergence_table("shifted", n, [5], shift=1)),
    ("convergence_table-fekete-p", "p", 3, MAX_PRIME,
     lambda n: convergence_table("fekete", 2, [n])),
    ("convergence_table-shifted-p", "p", 3, MAX_PRIME,
     lambda n: convergence_table("shifted", 2, [n], shift=1)),
    ("convergence_table-galois-k", "k", 2, MAX_K, lambda n: convergence_table("galois", 2, [n])),
    ("convergence_table-shifted-shift", "shift", None, None,
     lambda n: convergence_table("shifted", 2, [5], shift=n)),
]


def _out_of_range(name, shown, lo, hi):
    return f"{name} {shown} out of range {'' if lo is None else lo}..{'' if hi is None else hi}"


# entry -> further out-of-range ints: the least prime past MAX_PRIME and
# 2^31 - 1, k = 0, q = -1
FURTHER = {
    "fekete": (16777259, 2**31 - 1),
    "shifted_fekete": (16777259,),
    "_fekete_signs": (16777259,),
    "_fekete_signs-shifted": (16777259,),
    "galois-k": (0,),
    "primitive_polynomial": (0,),
    "convergence_table-galois-k": (0,),
    "norm_2q_exact": (-1,),
}

# entry -> the signs of 10**5000 it refuses; 10**5000 has 16610 bits, more than
# three per digit of the default int/str limit or of the lowest (640)
HUGE = {
    "limit_table-fekete": (1, -1),
    "galois-beta-3": (1, -1),
    "norm_2q_exact": (-1,),
}


def _rule_rows():
    for label, name, lo, hi, call in RULES:
        beyond = ([] if lo is None else [lo - 1]) + ([] if hi is None else [hi + 1])
        base = 0 if lo is None else lo
        for n in beyond + list(FURTHER.get(label, ())) + [float(base), Fraction(base), str(base)]:
            yield pytest.param(partial(call, n), _out_of_range(name, repr(n), lo, hi),
                               id=f"{label}-{n!r}")
        for sign in HUGE.get(label, ()):
            yield pytest.param(lambda call=call, sign=sign: call(sign * 10**5000),
                               _out_of_range(name, "of 16610 bits", lo, hi),
                               id=f"{label}-{'-' if sign < 0 else ''}10**5000")


# (entry point, argument name, the call with that argument): every public way
# into the rational rule, `littlewood._check_rational`
RATIONAL_RULES = [
    ("check_shift", "R", partial(check_shift, 3)),
    ("shifted_fekete_limit", "R", partial(shifted_fekete_limit, 3)),
    ("phi_min", "eps", partial(phi_min, 3)),
    ("pw_minimize", "eps", partial(pw_minimize, PiecewisePoly((0, 1), ((1, -8, 16),)))),
    ("PiecewisePoly-breakpoint", "breakpoint", lambda x: PiecewisePoly((0, x), ((1,),))),
    ("PiecewisePoly-coefficient", "coefficient", lambda x: PiecewisePoly((0, 1), ((1, x),))),
    ("PiecewisePoly.evaluate", "x", PiecewisePoly((0, 1), ((1, 2),)).evaluate),
    ("eulerian_general", "x", partial(eulerian_general, 3)),
    ("convergence_table-shifted-shift_ratio", "shift_ratio",
     lambda x: convergence_table("shifted", 2, [5], shift_ratio=x)),
]

# entries whose None means "not given"
OPTIONAL = {"convergence_table-shifted-shift_ratio"}

# what the rule refuses: no finite value, no rational type, an exponent
# (Fraction would build 10^(10^7) first), a zero denominator, no number, and
# decimals of 10^5 and 4 10^5 digits, longer than two numerals of the int/str
# limit (with the limit off, Fraction would read them in quadratic time)
NOT_RATIONAL = (float("inf"), float("-inf"), float("nan"), None, Decimal("0.25"), [1],
                "1e-10000000", "1e-1000000", "1E-3", "1/0", "inf", "zap",
                *("0." + "1" * n for n in (10**5, 4 * 10**5)))


def _rational_rows():
    for label, name, call in RATIONAL_RULES:
        for x in NOT_RATIONAL:
            if x is None and label in OPTIONAL:
                continue
            # an over-long str is named by its length, not by its repr
            shown = f"of {len(x)} characters" if isinstance(x, str) and len(x) > 1000 else repr(x)
            yield pytest.param(partial(call, x),
                               f"{name} {shown} is not an exact rational (int, Fraction, finite "
                               "float, or str n/d or decimal without exponent)",
                               id=f"{label}-{shown}")


COEFFICIENTS = "exact norms take polynomials whose coefficients are 0, 1 and -1"


def _coefficient_rows():
    # one coefficient other than 0, 1 and -1 among 3000, in a list, a tuple
    # or a generator, is refused before the engine builds any Decimal
    units = [1, 0, -1] * 1000
    for odd in (2, -2, 127, 128, -129, 10**20, 1.5, "1", None):
        coeffs = units[:1234] + [odd] + units[1234:]
        for kind, make in (("list", list), ("tuple", tuple),
                           ("generator", lambda xs: (x for x in xs))):
            for q in (1, 2):
                yield pytest.param(lambda make=make, coeffs=coeffs, q=q:
                                   norm_2q_exact(make(coeffs), q), COEFFICIENTS,
                                   id=f"norm_2q_exact-{odd!r}-{kind}-q{q}")
    for other in (5, "101", memoryview(array("h", [2, 0, 1]))):
        yield pytest.param(partial(norm_2q_exact, other, 2), COEFFICIENTS,
                           id=f"norm_2q_exact-{type(other).__name__}")


OTHER = [
    pytest.param(lambda: norm_2q_exact((), 0), _out_of_range("q", "0", 1, None),
                 id="norm_2q_exact-empty-q-0"),
    pytest.param(lambda: norm_2q_exact((1,), 0), _out_of_range("q", "0", 1, None),
                 id="norm_2q_exact-unit-q-0"),
    pytest.param(lambda: triangle_table("both", 2), "unknown family 'both'",
                 id="triangle_table-family"),
    pytest.param(lambda: convergence_table("both", 2, [5]), "unknown family 'both'",
                 id="convergence_table-family"),
    *(pytest.param(partial(phi_min, 3, eps), "eps must be positive", id=f"phi_min-eps-{eps!r}")
      for eps in (0, Fraction(-1, 4), "0", "-1/4")),
    # 2^k (2q)!/q! >= 10^L, k = 2 log2(1/eps) + 32: the rounded minimum may not print
    *(pytest.param(partial(phi_min, 6, eps),
                   f"phi_6 minimum at this eps may have more than {_digit_limit()} digits, "
                   "the int/str conversion limit", id=f"phi_min-eps-{label}")
      for eps, label in ((Fraction(1, 2**7200), "2**-7200"), (Fraction(1, 10**5000), "10**-5000"))),
    # a bool for any int up to MAX_PRIME, so only the refusals of the p rule
    *(pytest.param(partial(is_odd_prime, p), _out_of_range("p", repr(p), 3, MAX_PRIME),
                   id=f"is_odd_prime-{p!r}")
      for p in (MAX_PRIME + 1, 2.5, 3.5, 7.0, Fraction(2), Fraction(7), "2", "7")),
    pytest.param(lambda: is_odd_prime(10**5000),
                 _out_of_range("p", "of 16610 bits", 3, MAX_PRIME), id="is_odd_prime-10**5000"),
]


@pytest.fixture(scope="module", autouse=True)
def frozen_heap():
    # what earlier test files left moves out of the collector's reach, so each
    # row's collect walks only what this file makes
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.fixture(autouse=True)
def no_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a refused call reached the work after its checks")

    for module, names in WORK.items():
        for name in names:
            monkeypatch.setattr(module, name, never)
    monkeypatch.setitem(sys.modules, "numpy", None)


@pytest.mark.parametrize("call, message",
                         [*_rule_rows(), *_rational_rows(), *_coefficient_rows(), *OTHER])
def test_refused_before_work(call, message):
    # a collection of what earlier tests left would fall inside the timed span
    gc.collect()
    start = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        call()
    assert time.perf_counter() - start < 0.05
    assert str(refused.value) == message


# one small admitted call of each public entry point of each `WORK` module;
# norm_2q_quadrature is left out, as its only work is numpy, which may be absent
ADMITTED = [
    partial(fekete_limit_recursive, 3), partial(galois_limit_recursive, 3),
    partial(fekete_triangle_row, 3), partial(galois_triangle_row, 3),
    partial(limit_table, "fekete", 3), partial(limit_table, "galois", 3),
    partial(triangle_table, "fekete", 3), partial(triangle_table, "galois", 3),
    partial(fekete_limit_direct, 2), partial(galois_limit_direct, 2),
    partial(check_shift, 2, 0), partial(shifted_fekete_limit, 2, Fraction(1, 4)),
    partial(phi_piecewise, 2), partial(phi_min, 3, Fraction(1, 16)),
    partial(tangent_numbers, 3), partial(carlitz_numbers, 3),
    partial(eulerian_general, 3, 1), partial(eulerian_polynomial, 2),
    partial(composition_count, 3, 2, 2),
    lambda: list(enumerate_set_partitions(3)), lambda: list(even_size_profiles(2)),
    lambda: list(galois_size_profiles(2)), lambda: list(even_block_profiles(2)),
    partial(pw_minimize, PiecewisePoly((0, 1), ((1, -8, 16),)), Fraction(1, 16)),
    partial(primitive_polynomial, 4), partial(galois, 4),
    partial(is_odd_prime, 7), partial(legendre, 2, 7), partial(fekete, 7),
    partial(shifted_fekete, 7, 1), partial(_fekete_signs, 7, 1),
    partial(check_convergence, "fekete", 2, [5]),
    partial(convergence_table, "fekete", 2, [5]), partial(convergence_table, "galois", 2, [3]),
    partial(convergence_table, "shifted", 2, [5], shift=1),
    partial(power_layout, 5, 2, 4), partial(norm_2q_exact, [1, 1, -1], 2),
]


def test_every_work_witness_is_reached(monkeypatch):
    # a witness that no admitted call reaches (a helper renamed or no longer
    # called) would leave test_refused_before_work blind to work before a check
    monkeypatch.undo()  # `no_work`'s patches: here the witnesses run, counted
    reached = Counter()

    def counted(key, real):
        def witness(*args, **kwargs):
            reached[key] += 1
            return real(*args, **kwargs)
        return witness

    for module, names in WORK.items():
        for name in names:
            key = f"{module.__name__}.{name}"
            monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    for call in ADMITTED:
        call()
    witnesses = [f"{module.__name__}.{name}" for module, names in WORK.items() for name in names]
    assert [key for key in witnesses if not reached[key]] == []
