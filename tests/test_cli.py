"""Tests for the command-line interface and its machine-readable output."""
import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from importlib import resources
from math import factorial, gcd, isqrt
from unittest import mock

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from csv_digests import (
    FIRST_REFUSED, JSON_DIGESTS, NORM_CSV_DIGESTS, PINNED_CSV_DIGESTS, REFUSALS, json_digest,
)
from int_limit import int_max_str_digits, least_reaching
from littlewood import limits as limits_mod
from littlewood import polynomials as poly_mod
from littlewood.cli import main
from littlewood.gf2k import MAX_K

with resources.files("littlewood").joinpath("schema/output.v1.json").open() as fh:
    SCHEMA = json.load(fh)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    record = json.loads(out)
    jsonschema.validate(record, SCHEMA)
    return code, record


def test_limits_json(capsys):
    code, record = run_json(capsys, "limits", "--family", "fekete", "--qmax", "3")
    assert code == 0
    assert record["command"] == "limits"
    assert [r["limit"] for r in record["results"]] == ["1/1", "5/3", "19/5"]
    # rational strings round-trip bit-exactly
    assert Fraction(record["results"][2]["limit"]) == Fraction(19, 5)


def test_limits_galois(capsys):
    code, record = run_json(capsys, "limits", "--family", "galois", "--qmax", "2")
    assert code == 0
    assert [r["limit"] for r in record["results"]] == ["1/1", "4/3"]


def test_limits_csv(capsys):
    code, out = run_cli(
        capsys, "limits", "--family", "fekete", "--qmax", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q", "limit", "limit_decimal"]
    assert rows[1][:2] == ["1", "1/1"]
    assert rows[2][:2] == ["2", "5/3"]
    # rational fields are quoted because they contain "/"
    assert '"5/3"' in out


def test_json_bytes_are_indented_dumps(capsys):
    # records stream to stdout as exactly json.dumps(record, indent=2) + "\n"
    for argv in (("limits", "--family", "galois", "--qmax", "3"),
                 ("phi", "--q", "3", "--min"),
                 ("empirical", "--family", "fekete", "--q", "2", "--p", "13"),
                 ("limits", "--family", "fekete", "--qmax", "129")):
        _, out = run_cli(capsys, *argv)
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["limits", "--family", "both", "--qmax", "2"])
    assert exc.value.code == 2


def test_triangle(capsys):
    code, record = run_json(capsys, "triangle", "--family", "fekete", "--rows", "2")
    assert code == 0
    assert record["results"][0]["values"] == ["1"]
    assert record["results"][1]["values"] == ["-2", "10", "-2"]
    code, record = run_json(capsys, "triangle", "--family", "galois", "--rows", "2")
    assert record["results"][1]["values"] == ["-1", "8", "-1"]


def test_triangle_zero_rows_is_error_record(capsys):
    # positivity is the library's rule (its refusal is a `REFUSED` row); only
    # text that is no integer is usage
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "--family", "fekete", "--rows", "2.5"])
    assert exc.value.code == 2


def test_triangle_rows_bound(capsys):
    # the refusal of 129 rows is a `REFUSED` row; the former cap of 16 rows is
    # gone, and row 17 extends the 16-row table
    code, record = run_json(capsys, "triangle", "--family", "fekete", "--rows", "17")
    assert code == 0
    _, shorter = run_json(capsys, "triangle", "--family", "fekete", "--rows", "16")
    assert record["results"][:16] == shorter["results"]
    assert record["results"][16]["k"] == 17


def test_phi_pieces_q1_constant(capsys):
    code, record = run_json(capsys, "phi", "--q", "1", "--pieces")
    assert code == 0
    assert record["results"][0]["coefficients"] == ["1/1"]


def test_phi_eval(capsys):
    code, record = run_json(capsys, "phi", "--q", "2", "--eval", "1/4")
    assert code == 0
    assert record["results"][0]["value"] == "7/6"
    # periodicity: phi_2(3/4) = phi_2(1/4)
    code, record = run_json(capsys, "phi", "--q", "2", "--eval", "3/4")
    assert record["results"][0]["value"] == "7/6"


def test_phi_eval_negative_rational(capsys):
    # phi_q is even, so -1/4 gives 7/6 as 1/4 does; the value after a space
    # must parse like the "--eval=-1/4" form
    for argv in (("--eval", "-1/4"), ("--eval=-1/4",)):
        code, record = run_json(capsys, "phi", "--q", "2", *argv)
        assert code == 0, argv
        assert record["results"][0]["value"] == "7/6", argv


def test_negative_rational_options(capsys):
    # "--eps -1/4" parses, and is refused as a `REFUSED` row
    code, record = run_json(
        capsys, "empirical", "--family", "shifted", "--q", "2", "--p", "13",
        "--shift-ratio", "-1/3",
    )
    assert code == 0
    assert record["parameters"]["shift_ratio"] == "-1/3"


def test_phi_eval_bad_rational_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phi", "--q", "2", "--eval", "zap"])
    assert exc.value.code == 2
    # exponent notation is refused before the value is built
    for argv in (
        ["phi", "--q", "2", "--eval", "1e5000"],
        ["phi", "--q", "3", "--min", "--eps", "1e-5000"],
        ["phi", "--q", "3", "--min", "--eps", "1E-3"],
        ["empirical", "--family", "shifted", "--q", "2", "--p", "101",
         "--shift-ratio", "1e5000"],
        ["phi", "--q", "2", "--eval", "1e100000000"],
    ):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert time.perf_counter() - start < 0.5, argv
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: littlewood") and "Traceback" not in err, argv
        assert f"'{argv[-1]}'" in err, argv


def test_refused_rational_usage_error_states_the_rule(capsys):
    # the usage error is the rational rule's message: an over-long value is
    # named by its length, not repeated
    for argv, part in (
        (["phi", "--q", "3", "--min", "--eps", "0." + "1" * 10**4], "of 10002 characters"),
        (["phi", "--q", "2", "--eval", "1e-3"], "'1e-3' is not an exact rational"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv[-2]
        err = capsys.readouterr().err
        assert len(err) < 1000 and part in err and "Traceback" not in err, argv[-2]


def test_zero_denominator_is_usage_error(capsys):
    for argv, flag in (
        (["phi", "--q", "2", "--eval", "1/0"], "--eval"),
        (["phi", "--q", "3", "--min", "--eps", "1/0"], "--eps"),
        (["empirical", "--family", "shifted", "--q", "2", "--p", "5",
          "--shift-ratio", "1/0"], "--shift-ratio"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: littlewood"), argv
        assert f"argument {flag}" in err and "'1/0'" in err, argv
        assert "Traceback" not in err, argv


def test_eps_outside_min_is_usage_error(capsys):
    # --eps sets the enclosure width of --min alone; with --pieces or --eval it
    # would be ignored, so it is refused as malformed usage
    for argv in (["phi", "--q", "3", "--pieces", "--eps", "-5"],
                 ["phi", "--q", "3", "--eval", "1/4", "--eps", "1/8"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: littlewood"), argv
        assert "--eps" in err and "Traceback" not in err, argv


def test_phi_min(capsys):
    code, record = run_json(capsys, "phi", "--q", "2", "--min")
    assert code == 0
    res = record["results"][0]
    assert res["argmin_lo"] == "1/4"
    assert res["argmin_hi"] == "1/4"
    assert res["min_lo"] == "7/6"
    assert res["min_hi"] == "7/6"
    assert res["alt_flag"] is False


def test_phi_pieces(capsys):
    code, record = run_json(capsys, "phi", "--q", "3", "--pieces")
    assert code == 0
    piece = record["results"][0]
    assert piece["lo"] == "0/1"
    assert piece["hi"] == "1/2"
    # 31/20 + (3/4)(4x-1)^2 (16x^2-8x+3) expanded
    assert piece["coefficients"] == ["19/5", "-24/1", "96/1", "-192/1", "192/1"]


def test_phi_eval_refuses_beyond_the_rule(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a refused request reached the evaluator")

    monkeypatch.setattr(limits_mod, "_shifted_values", never)
    cases = [
        (("--q", "17", "--eval", "1/4"), "q 17 out of range 1..16"),
        (("--q", "8", "--eval", "-1/" + "1" + "0" * 3000), "more than 4300 digits"),
    ] + [
        (("--q", str(q), "--eval", f"1/{d}"),
         f"phi_{q} at this shift ratio may have more than 4300 digits")
        for q, d in FIRST_REFUSED.items()
    ]
    for argv, reason in cases:
        code, out = run_cli(capsys, "phi", *argv)
        record = json.loads(out)
        jsonschema.validate(record, SCHEMA)
        assert code == 1, argv
        assert reason in record["error"], argv
    # one below the edge, the request reaches the evaluator with its denominator
    monkeypatch.setattr(limits_mod, "_shifted_values", lambda q, rs, d: ([1], d))
    for q, d in FIRST_REFUSED.items():
        code, record = run_json(capsys, "phi", "--q", str(q), "--eval", f"1/{d - 1}")
        assert code == 0, q
        assert record["results"][0]["value"] == f"1/{d - 1}"


# Runs the command line once per argv of its JSON argument, and prints the
# exit code, the time and the record of each.
TIMED_CLI_SCRIPT = """
import contextlib, io, json, sys, time
from littlewood.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, time.perf_counter() - start, json.loads(out.getvalue())])
print(json.dumps(results))
"""


def test_phi_eval_refuses_past_the_running_int_str_limit():
    # at 1/(10^62 - 1) the value of phi_16 has 1889 digits, which a limit of
    # 640 cannot print; it is refused before the work, and 1/3 still runs
    argvs = [["phi", "--q", "16", "--eval", f"1/{10**62 - 1}"],
             ["phi", "--q", "16", "--eval", "1/3"]]
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-c", TIMED_CLI_SCRIPT,
         json.dumps(argvs)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (code, seconds, record), (admitted, _, value) = json.loads(proc.stdout)
    for rec in (record, value):
        jsonschema.validate(rec, SCHEMA)
    assert code == 1
    assert record["error"] == ("phi_16 at this shift ratio may have more than 640 digits, "
                               "the int/str conversion limit")
    assert seconds < 0.5
    assert admitted == 0
    assert Fraction(value["results"][0]["value"]) == limits_mod.shifted_fekete_limit(
        16, Fraction(1, 3))


def test_phi_min_digit_rule_edge(capsys):
    # at q = 6, 2^k 12!/6! < 10^4300 up to k = 2 * 7116 + 32: eps = 2^-7116 is
    # the deepest admitted power of 2, and its minimum, the exact point 1/4, prints
    value = limits_mod.shifted_fekete_limit(6, Fraction(1, 4))
    for e in (7000, 7116):
        code, record = run_json(capsys, "phi", "--q", "6", "--min", "--eps", f"1/{2**e}")
        assert code == 0, e
        res = record["results"][0]
        assert (res["argmin_lo"], res["argmin_hi"]) == ("1/4", "1/4"), e
        assert res["min_lo"] == res["min_hi"] == f"{value.numerator}/{value.denominator}", e
    code, record = run_json(capsys, "phi", "--q", "6", "--min", "--eps", f"1/{2**7117}")
    assert code == 1
    assert record["error"] == ("phi_6 minimum at this eps may have more than 4300 digits, "
                               "the int/str conversion limit")


# TIMED_CLI_SCRIPT with the phi cap raised to 8, printing after its results
# the q of every `_phi_quarter` call
PHI_CAP_8_SCRIPT = """
from littlewood import limits
limits.PHI_PIECES_QMAX = 8
calls = []
quarter = limits._phi_quarter
limits._phi_quarter = lambda q: calls.append(q) or quarter(q)
""" + TIMED_CLI_SCRIPT + "print(json.dumps(calls))\n"


def test_phi_min_refuses_past_the_running_int_str_limit():
    # under a cap of 8, phi_8's minimum is irrational and its value enclosure
    # is rounded to 2^-k, k = 2 log2(1/eps) + 32: at eps = 2^-1100, 2^k 16!/8!
    # has 681 digits, which a limit of 640 cannot print, and it is refused
    # before `_phi_quarter` runs; at 2^-900 it has 561 and the minimum prints
    argvs = [["phi", "--q", "8", "--min", "--eps", f"1/{2**1100}"],
             ["phi", "--q", "8", "--min", "--eps", f"1/{2**900}"]]
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-c", PHI_CAP_8_SCRIPT,
         json.dumps(argvs)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    results, calls = proc.stdout.splitlines()
    (code, seconds, record), (admitted, _, value) = json.loads(results)
    for rec in (record, value):
        jsonschema.validate(rec, SCHEMA)
    assert code == 1
    assert record["error"] == ("phi_8 minimum at this eps may have more than 640 digits, "
                               "the int/str conversion limit")
    assert seconds < 0.5
    assert json.loads(calls) == [8]
    assert admitted == 0
    res = value["results"][0]
    u, v = Fraction(res["argmin_lo"]), Fraction(res["argmin_hi"])
    assert Fraction(2411, 10000) < u < v < Fraction(2412, 10000)
    lower, upper = Fraction(res["min_lo"]), Fraction(res["min_hi"])
    assert lower < upper and all(2 ** (2 * 900 + 32) % x.denominator == 0 for x in (lower, upper))


def test_phi_eval_beyond_the_former_cap(capsys):
    code, record = run_json(capsys, "phi", "--q", "12", "--eval", "1/4")
    assert code == 0
    value = Fraction(record["results"][0]["value"])
    assert value == limits_mod.shifted_fekete_limit(12, Fraction(-1, 4))
    # the largest denominator admitted at q = 8 prints in full
    d = FIRST_REFUSED[8] - 1
    code, record = run_json(capsys, "phi", "--q", "8", "--eval", f"1/{d}")
    assert code == 0
    value = record["results"][0]["value"]
    assert Fraction(value) == limits_mod.shifted_fekete_limit(8, Fraction(1, d))
    assert len(value) > 2 * 3700


def test_empirical_fekete(capsys):
    code, record = run_json(
        capsys, "empirical", "--family", "fekete", "--q", "2", "--p", "5"
    )
    assert code == 0
    row = record["results"][0]
    assert row["exact_norm"] == "28"
    assert row["ratio"] == "28/25"
    assert row["limit"] == "5/3"


def test_empirical_galois_csv(capsys):
    code, out = run_cli(
        capsys, "empirical", "--family", "galois", "--q", "2", "--k", "2",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "n", "exact_norm", "ratio_num", "ratio_den", "limit_num", "limit_den",
        "rel_err",
    ]
    assert rows[1][:6] == ["3", "11", "11", "9", "4", "3"]


def test_empirical_shifted(capsys):
    code, record = run_json(
        capsys, "empirical", "--family", "shifted", "--q", "2", "--p", "101",
        "--shift-ratio", "1/4",
    )
    assert code == 0
    assert record["results"][0]["limit"] == "7/6"


# the functions of `polynomials` through which an empirical run builds its
# signs and takes its norms
_POLYNOMIAL_WORK = ("_fekete_signs", "_galois_signs", "norm_2q_exact")


def _forbid_polynomial_work(monkeypatch):
    # one sentinel per name, so no patched function stands in for another
    def never(name):
        def sentinel(*args, **kwargs):
            raise AssertionError(f"a refused request called {name}")
        return sentinel

    for name in _POLYNOMIAL_WORK:
        monkeypatch.setattr(poly_mod, name, never(name))


def test_forbidden_work_names_each_function(monkeypatch):
    _forbid_polynomial_work(monkeypatch)
    ids = {id(getattr(poly_mod, name)) for name in _POLYNOMIAL_WORK}
    assert len(ids) == len(_POLYNOMIAL_WORK)
    for name in _POLYNOMIAL_WORK:
        with pytest.raises(AssertionError, match=f"called {name}$"):
            getattr(poly_mod, name)(5)


def test_every_forbidden_work_name_is_reached(capsys, monkeypatch):
    # a name that no admitted run reaches would leave the refusal tests that
    # forbid it blind to work done before a check
    reached = {name: 0 for name in _POLYNOMIAL_WORK}

    def counted(name, real):
        def witness(*args, **kwargs):
            reached[name] += 1
            return real(*args, **kwargs)
        return witness

    for name in _POLYNOMIAL_WORK:
        monkeypatch.setattr(poly_mod, name, counted(name, getattr(poly_mod, name)))
    for argv in (("--family", "fekete", "--q", "2", "--p", "5"),
                 ("--family", "shifted", "--q", "2", "--p", "13", "--shift-ratio", "1/4"),
                 ("--family", "galois", "--q", "2", "--k", "2")):
        code, _ = run_json(capsys, "empirical", *argv)
        assert code == 0
    assert [name for name, calls in reached.items() if not calls] == []


def _library_refusal(*request) -> str:
    with pytest.raises(ValueError) as refused:
        poly_mod.check_convergence(*request)
    return str(refused.value)


def test_empirical_refuses_oversized_input(capsys, monkeypatch):
    _forbid_polynomial_work(monkeypatch)
    # argv, a part of the error, and the same request to the library
    cases = [
        # the smallest Galois field, and primes, whose powers pass the digit budget
        (("--family", "galois", "--q", "2", "--k", "23"), "capacity",
         ("galois", 2, [23])),
        (("--family", "fekete", "--q", "2", "--p", "6250009"), "capacity",
         ("fekete", 2, [6250009])),
        (("--family", "shifted", "--q", "3", "--p", "2380957", "--shift", "1"), "capacity",
         ("shifted", 3, [2380957], 1)),
        (("--family", "fekete", "--q", "128", "--p", "1877"), "capacity",
         ("fekete", 128, [1877])),
        (("--family", "fekete", "--q", "1", "--p", "341550071728321"), "range 3..16777216",
         ("fekete", 1, [341550071728321])),
        (("--family", "shifted", "--q", "17", "--p", "5", "--shift", "1"), "q 17 out of range",
         ("shifted", 17, [5], 1)),
        (("--family", "shifted", "--q", "8", "--p", "3",
          "--shift-ratio", "1/" + "1" + "0" * 320), "more than 4300 digits",
         ("shifted", 8, [3], None, Fraction(1, 10**320))),
        (("--family", "fekete", "--q", "200", "--p", "3"), "q 200 out of range 1..128",
         ("fekete", 200, [3])),
        (("--family", "fekete", "--q", "129", "--p", "3"), "q 129 out of range 1..128",
         ("fekete", 129, [3])),
        (("--family", "galois", "--q", "192", "--k", "2"), "q 192 out of range 1..128",
         ("galois", 192, [2])),
    ]
    for argv, reason, request in cases:
        code, out = run_cli(capsys, "empirical", *argv)
        record = json.loads(out)
        jsonschema.validate(record, SCHEMA)
        assert code == 1, argv
        assert reason in record["error"], argv
        assert record["error"] == _library_refusal(*request), argv


def test_empirical_refuses_without_c_decimal(capsys, monkeypatch):
    from littlewood import intconv

    monkeypatch.setattr(intconv, "C_DECIMAL", False)
    # q = 1 needs no big multiplication
    code, record = run_json(capsys, "empirical", "--family", "fekete", "--q", "1",
                            "--p", "5")
    assert code == 0
    assert record["results"][0]["exact_norm"] == "4"
    with pytest.raises(ValueError, match="C decimal module"):
        poly_mod.norm_2q_exact(poly_mod.fekete(5), 2)

    _forbid_polynomial_work(monkeypatch)
    for argv in (("--family", "fekete", "--q", "2", "--p", "5"),
                 ("--family", "galois", "--q", "3", "--k", "2"),
                 ("--family", "shifted", "--q", "2", "--p", "5", "--shift", "1")):
        code, out = run_cli(capsys, "empirical", *argv)
        record = json.loads(out)
        jsonschema.validate(record, SCHEMA)
        assert code == 1, argv
        assert "C decimal module" in record["error"], argv
        assert record["error"] == _library_refusal(
            argv[1], int(argv[3]), [int(argv[5])], 1 if "--shift" in argv else None
        ), argv


# The one rule the command line keeps: which of --p and --k `empirical` takes.
SIZE_FLAG_REFUSALS = [
    (("--family", "fekete", "--q", "2"), "family fekete requires at least one --p"),
    (("--family", "shifted", "--q", "2", "--p", "5", "--k", "3"),
     "family shifted takes --p, not --k"),
    (("--family", "galois", "--q", "2"), "family galois requires at least one --k"),
    (("--family", "galois", "--q", "2", "--k", "3", "--p", "5"),
     "family galois takes --k, not --p"),
]


@pytest.mark.parametrize("argv, error", SIZE_FLAG_REFUSALS,
                         ids=[e for _, e in SIZE_FLAG_REFUSALS])
def test_empirical_size_flag_refusals(capsys, monkeypatch, argv, error):
    _forbid_polynomial_work(monkeypatch)
    code, record = run_json(capsys, "empirical", *argv)
    assert code == 1
    assert record == {"schema": "v1", "command": "empirical", "error": error}


# Refused requests of every command, each with the library call that makes
# the same request: the record's error is that call's ValueError text.
REFUSED = [
    (("limits", "--family", "fekete", "--qmax", "129"),
     lambda: limits_mod.limit_table("fekete", 129)),
    (("limits", "--family", "galois", "--qmax", "1000"),
     lambda: limits_mod.limit_table("galois", 1000)),
    (("triangle", "--family", "fekete", "--rows", "129"),
     lambda: limits_mod.triangle_table("fekete", 129)),
    (("triangle", "--family", "galois", "--rows", "129"),
     lambda: limits_mod.triangle_table("galois", 129)),
    (("triangle", "--family", "fekete", "--rows", "0"),
     lambda: limits_mod.triangle_table("fekete", 0)),
    (("limits", "--family", "galois", "--qmax", "-1"),
     lambda: limits_mod.limit_table("galois", -1)),
    (("phi", "--q", "17", "--eval", "1/4"),
     lambda: limits_mod.shifted_fekete_limit(17, Fraction(1, 4))),
    (("phi", "--q", "16", "--eval", "1/" + "9" * 4000),
     lambda: limits_mod.shifted_fekete_limit(16, Fraction(1, 10**4000 - 1))),
    (("phi", "--q", "16", "--eval", f"1/{FIRST_REFUSED[16]}"),
     lambda: limits_mod.shifted_fekete_limit(16, Fraction(1, FIRST_REFUSED[16]))),
    (("phi", "--q", "1", "--min"),
     lambda: limits_mod.phi_min(1, Fraction(1, 1 << 20))),
    (("phi", "--q", "7", "--min"),
     lambda: limits_mod.phi_min(7, Fraction(1, 1 << 20))),
    (("phi", "--q", "3", "--min", "--eps", "0"),
     lambda: limits_mod.phi_min(3, 0)),
    (("phi", "--q", "3", "--min", "--eps", "-1/4"),
     lambda: limits_mod.phi_min(3, Fraction(-1, 4))),
    (("phi", "--q", "6", "--min", "--eps", f"1/{2**7200}"),
     lambda: limits_mod.phi_min(6, Fraction(1, 2**7200))),
    (("phi", "--q", "7", "--pieces"),
     lambda: limits_mod.phi_piecewise(7)),
    (("phi", "--q", "0", "--eval", "1/4"),
     lambda: limits_mod.shifted_fekete_limit(0, Fraction(1, 4))),
    (("phi", "--q", "0", "--pieces"),
     lambda: limits_mod.phi_piecewise(0)),
    (("empirical", "--family", "galois", "--q", "2", "--k", "23"),
     lambda: poly_mod.convergence_table("galois", 2, [23])),
    (("empirical", "--family", "fekete", "--q", "129", "--p", "3"),
     lambda: poly_mod.convergence_table("fekete", 129, [3])),
    (("empirical", "--family", "fekete", "--q", "2", "--p", "9"),
     lambda: poly_mod.convergence_table("fekete", 2, [9])),
    (("empirical", "--family", "fekete", "--q", "1", "--p", "9"),
     lambda: poly_mod.convergence_table("fekete", 1, [9])),
    (("empirical", "--family", "fekete", "--q", "1", "--p", "16777259"),
     lambda: poly_mod.convergence_table("fekete", 1, [16777259])),
    (("empirical", "--family", "fekete", "--q", "0", "--p", "5"),
     lambda: poly_mod.convergence_table("fekete", 0, [5])),
    (("empirical", "--family", "fekete", "--q", "2", "--p", "0"),
     lambda: poly_mod.convergence_table("fekete", 2, [0])),
    (("empirical", "--family", "galois", "--q", "2", "--k", "0"),
     lambda: poly_mod.convergence_table("galois", 2, [0])),
    (("empirical", "--family", "fekete", "--q", "2", "--p", "5", "--shift", "1"),
     lambda: poly_mod.convergence_table("fekete", 2, [5], shift=1)),
    (("empirical", "--family", "shifted", "--q", "2", "--p", "5"),
     lambda: poly_mod.convergence_table("shifted", 2, [5])),
    (("empirical", "--family", "shifted", "--q", "17", "--p", "5",
      "--shift-ratio", "1/4"),
     lambda: poly_mod.convergence_table("shifted", 17, [5], shift_ratio=Fraction(1, 4))),
]


@pytest.mark.parametrize("argv, call", REFUSED, ids=[" ".join(a)[:64] for a, _ in REFUSED])
def test_error_record_is_the_library_refusal(capsys, monkeypatch, argv, call):
    def never(*args, **kwargs):
        raise AssertionError("a refused request reached the recursion")

    _forbid_polynomial_work(monkeypatch)
    monkeypatch.setattr(limits_mod, "_node_table", never)
    monkeypatch.setattr(limits_mod, "_shifted_values", never)
    monkeypatch.setattr(limits_mod, "_phi_quarter", never)
    with pytest.raises(ValueError) as exc:
        call()
    code, record = run_json(capsys, *argv)
    assert code == 1
    assert record == {"schema": "v1", "command": argv[0], "error": str(exc.value)}


# ---------------------------------------------------------------------------
# The refusal grammar at the level of argv: every draw of any command reaches
# the work (patched to raise _Admitted), is refused by the library with an
# error record (exit 1), or is a usage error (exit 2), within 50 ms; and which
# of the three follows from the README's rules, written here in plain integers.
# Draws lean towards the edge of each rule, which is found in plain integers too.

class _Admitted(Exception):
    pass


ADMITTED = "admitted"
DEFAULT_LIMIT = sys.int_info.default_max_str_digits
# the int/str limits of the grammar: the lowest, the default, and off
GRAMMAR_LIMITS = (640, DEFAULT_LIMIT, 0)
# the work after each command's admission
ADMITTED_WORK = {limits_mod: ("_node_table", "_shifted_values", "_phi_quarter"),
                 poly_mod: ("fekete_limit_recursive", "galois_limit_recursive",
                            "shifted_fekete_limit", "norm_2q_exact")}
# order texts that are no int
NOT_INTS = ("2.5", "1e3", "x", "0x10", "")
ORDER_EDGES = (0, 1, 2, 6, 7, 16, 17, limits_mod.MAX_Q, limits_mod.MAX_Q + 1, 10**400)
MAX_PRIME = poly_mod.MAX_PRIME
# primes and composites around MAX_PRIME; 16777213 is the largest prime below
# it and 16777259 the least above
PRIME_EDGES = (16777213, MAX_PRIME - 1, MAX_PRIME, MAX_PRIME + 1, 16777259)


def _digit_rule_limit(limit):
    # L of the printed-size rule: the running limit, the default when off or above it
    return min(limit or DEFAULT_LIMIT, DEFAULT_LIMIT)


def _is_odd_prime(p):
    return p >= 3 and p % 2 and all(p % r for r in range(3, isqrt(p) + 1, 2))


@cache
def _least_block_scale(q):
    # the least c with (2N-1)! (2N)! dividing c^N for every N <= q
    c = 1
    for p in range(2, 2 * q + 1):
        if all(p % r for r in range(2, p)):
            c *= p ** max(-(-_valuation(factorial(2 * N - 1) * factorial(2 * N), p) // N)
                          for N in range(1, q + 1))
    return c


def _valuation(m, p):
    v = 0
    while m % p == 0:
        m, v = m // p, v + 1
    return v


@cache
def _least_refused_denominator(q, L):
    # the least d with (2q)!/q! c^q d^(2q) >= 10^L
    return least_reaching(factorial(2 * q) // factorial(q) * _least_block_scale(q) ** q, 2 * q, L)


def _shift_admitted(q, n, d, L):
    # n/d reduced into [0, 1/2) is (2n mod d) / (2d)
    reduced = 2 * d // gcd(2 * n % d, 2 * d)
    return reduced < _least_refused_denominator(q, L)


def _min_admitted(q, n, d, L):
    # 2^k (2q)!/q! < 10^L for eps = n/d > 0, k = 2 bitlen(ceil(1/eps) - 1) + 32
    k = 2 * (-(-d // n) - 1).bit_length() + 32
    return 2**k * factorial(2 * q) // factorial(q) < 10**L


@cache
def _least_refused_eps_denominator(q, L):
    # the least d whose eps = 1/d the rule refuses: k = 2 bitlen(d - 1) + 32
    # reaches the least k with 2^k (2q)!/q! >= 10^L
    k = (-(-10**L // (factorial(2 * q) // factorial(q))) - 1).bit_length()
    b = max(1, -(-(k - 32) // 2))
    return (1 << (b - 1)) + 1


def _layout_admitted(n, nonzeros, q, L):
    # 2 S^(q-1) + 1 < 10^L, and q(n - 1) + 1 slots of its digit count within 10^8 digits
    if q < 2 or nonzeros < 2:
        return True
    bound = 2 * nonzeros ** (q - 1) + 1
    return bound < 10**L and (q * (n - 1) + 1) * len(str(bound)) <= 10**8


@cache
def _capacity_edges(q, L):
    # the primes on both sides of the largest Fekete size admitted at q, and the
    # Galois exponents on both sides of the largest admitted
    lo, hi = 3, MAX_PRIME
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if _layout_admitted(mid, mid - 1, q, L) else (lo, mid - 1)
    below = next(p for p in range(lo, 2, -1) if _is_odd_prime(p))
    above = next(p for p in range(lo + 1, 2 * lo + 3) if _is_odd_prime(p))
    k = max([2] + [k for k in range(2, MAX_K + 1)
                   if _layout_admitted((1 << k) - 1, (1 << k) - 1, q, L)])
    return (below, above), (k, k + 1)


def _empirical_verdict(family, q, sizes, other, shift, ratio, L):
    if not sizes or other:
        return 1
    if not 1 <= q <= (limits_mod.SHIFTED_QMAX if family == "shifted" else limits_mod.MAX_Q):
        return 1
    if family == "galois":
        if not all(2 <= k <= MAX_K for k in sizes):
            return 1
        layouts = [((1 << k) - 1, (1 << k) - 1) for k in sizes]
    else:
        if not all(p <= MAX_PRIME and _is_odd_prime(p) for p in sizes):
            return 1
        layouts = [(p, p - 1) for p in sizes]
    if not all(_layout_admitted(n, nonzeros, q, L) for n, nonzeros in layouts):
        return 1
    if family != "shifted":
        return ADMITTED if shift is None and ratio is None else 1
    if shift is None and ratio is None:
        return 1
    ratios = [ratio] if shift is None else [(shift, p) for p in sizes]
    return ADMITTED if all(_shift_admitted(q, n, d, L) for n, d in ratios) else 1


def _draw_order(data, label, hi):
    # (text, n) of an order from -5 to 10^400, mostly in 1..hi; n is None for a
    # text that is no int
    kind = data.draw(st.sampled_from(["in range"] * 4 + ["edge", "small", "huge", "no int"]),
                     label=f"{label} kind")
    if kind == "no int":
        return data.draw(st.sampled_from(NOT_INTS), label=label), None
    n = data.draw({"in range": st.integers(1, hi), "edge": st.sampled_from(ORDER_EDGES),
                   "small": st.integers(-5, 20), "huge": st.integers(-5, 10**400)}[kind],
                  label=label)
    return str(n), n


def _draw_rational(data, label, edges, limit):
    # (text, (n, d)) of n/d with a long denominator, drawn mostly at the edges
    # given, as eps or a shift ratio +-1/d; (n, d) is None when the rational rule
    # refuses the text: over 2L + 2 characters, a numeral of more digits than
    # the running limit, or a zero denominator
    L = _digit_rule_limit(limit)
    kind = data.draw(st.sampled_from(["edge"] * 4 + ["small", "long", "power", "length edge"]),
                     label=f"{label} kind")
    # at an edge, -1/d is (d - 2)/(2d) in [0, 1/2), of twice the denominator for odd d
    n = data.draw(st.sampled_from([1, -1]) if kind == "edge" else st.one_of(
        st.integers(-3, 40), st.builds(pow, st.just(10), st.integers(0, 5000))),
        label=f"{label} numerator")
    d = data.draw({
        "edge": st.builds(int.__add__, st.sampled_from(edges), st.integers(-2, 2)),
        "small": st.integers(0, 50),
        "long": st.integers(1, 10**80),
        "power": st.builds(lambda b, j, delta: b**j + delta, st.sampled_from([2, 10]),
                           st.integers(0, 9000), st.integers(-2, 2)),
        # a text of 2L + 2 characters, give or take one
        "length edge": st.builds(lambda e: 10 ** (2 * L + e - len(f"{n}/")), st.integers(0, 2)),
    }[kind].filter(lambda d: d >= 0), label=f"{label} denominator")
    text = f"{n}/{d}"
    too_long = len(text) > 2 * L + 2
    if too_long or not d or limit and max(len(str(abs(n))), len(str(d))) > limit:
        return text, None
    return text, (n, d)


def _draw_limits_or_triangle(data, command, limit):
    option = "--qmax" if command == "limits" else "--rows"
    family = data.draw(st.sampled_from(limits_mod.FAMILIES), label="family")
    text, n = _draw_order(data, option, limits_mod.MAX_Q)
    argv = [command, "--family", family, option, text]
    if n is None:
        return argv, 2
    return argv, ADMITTED if 1 <= n <= limits_mod.MAX_Q else 1


def _draw_phi(data, limit):
    L = _digit_rule_limit(limit)
    mode = data.draw(st.sampled_from(["--eval", "--min", "--pieces"]), label="mode")
    text, q = _draw_order(data, "--q", limits_mod.SHIFTED_QMAX if mode == "--eval"
                          else limits_mod.PHI_PIECES_QMAX)
    argv = ["phi", "--q", text, mode]
    R = None
    if mode == "--eval":
        edges = [_least_refused_denominator(q, L) if q and 1 <= q <= limits_mod.SHIFTED_QMAX
                 else 3]
        r_text, R = _draw_rational(data, "R", edges, limit)
        argv.append(r_text)
    # --eps is drawn for every mode, and is malformed usage outside --min
    eps = (1, 1 << 20)
    eps_given = data.draw(st.booleans(), label="eps given")
    if eps_given:
        min_order = mode == "--min" and q and 2 <= q <= limits_mod.PHI_PIECES_QMAX
        edge = _least_refused_eps_denominator(q, L) if min_order else 1 << 20
        e_text, eps = _draw_rational(data, "eps", [edge], limit)
        argv += ["--eps", e_text]
    if q is None or eps is None or mode == "--eval" and R is None or (
            eps_given and mode != "--min"):
        return argv, 2
    if mode == "--pieces":
        return argv, ADMITTED if 1 <= q <= limits_mod.PHI_PIECES_QMAX else 1
    if mode == "--eval":
        admitted = 1 <= q <= limits_mod.SHIFTED_QMAX and _shift_admitted(q, *R, L)
        return argv, ADMITTED if admitted else 1
    admitted = 2 <= q <= limits_mod.PHI_PIECES_QMAX and eps[0] > 0 and _min_admitted(q, *eps, L)
    return argv, ADMITTED if admitted else 1


def _draw_empirical(data, limit):
    L = _digit_rule_limit(limit)
    family = data.draw(st.sampled_from(["fekete", "shifted", "galois"]), label="family")
    text, q = _draw_order(data, "--q", limits_mod.SHIFTED_QMAX if family == "shifted"
                          else limits_mod.MAX_Q)
    argv = ["empirical", "--family", family, "--q", text]
    flag, other = ("--k", "--p") if family == "galois" else ("--p", "--k")
    primes, exponents = _capacity_edges(q, L) if q and 2 <= q <= limits_mod.MAX_Q else (
        (3, 5), (2, 3))
    if flag == "--p":
        size = st.one_of(st.sampled_from(primes), st.sampled_from([3, 5, 7, 13, 101, 1009]),
                         st.sampled_from(PRIME_EDGES), st.integers(-5, 200),
                         st.integers(3, 3 * 10**7), st.integers(-10**400, 10**400))
    else:
        size = st.one_of(st.sampled_from(exponents), st.integers(-2, MAX_K + 3),
                         st.integers(-10**400, 10**400))
    sizes = data.draw(st.lists(size, min_size=1, max_size=2), label="sizes")
    if data.draw(st.integers(0, 19), label="no sizes") == 0:
        sizes = []
    for n in sizes:
        argv += [flag, str(n)]
    given_other = data.draw(st.integers(0, 19), label="other flag") == 0
    if given_other:
        argv += [other, "5"]
    # mostly the shift options each family takes
    kinds = ["shift", "ratio"] * 3 + ["none"] if family == "shifted" else ["none"] * 6 + [
        "shift", "ratio"]
    shift_kind = data.draw(st.sampled_from(kinds + ["both"]), label="shift")
    shift = ratio = None
    usage = q is None
    if shift_kind in ("shift", "both"):
        shift = data.draw(st.one_of(st.integers(-50, 50), st.integers(-10**400, 10**400)),
                          label="--shift")
        argv += ["--shift", str(shift)]
    if shift_kind in ("ratio", "both"):
        edges = [_least_refused_denominator(q, L) if q and 1 <= q <= limits_mod.SHIFTED_QMAX
                 else 3]
        r_text, ratio = _draw_rational(data, "--shift-ratio", edges, limit)
        argv += ["--shift-ratio", r_text]
        usage = usage or ratio is None
    if usage or shift_kind == "both":
        return argv, 2
    return argv, _empirical_verdict(family, q, sizes, given_other, shift, ratio, L)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_argv_refusal_grammar(data):
    limit = data.draw(st.sampled_from(GRAMMAR_LIMITS), label="int/str limit")
    command = data.draw(st.sampled_from(["limits", "triangle", "phi", "empirical"]),
                        label="command")
    # texts and verdicts are built with no limit, as the drawn numbers may have
    # more digits than the limit the command then runs under
    with int_max_str_digits(0):
        if command == "phi":
            argv, verdict = _draw_phi(data, limit)
        elif command == "empirical":
            argv, verdict = _draw_empirical(data, limit)
        else:
            argv, verdict = _draw_limits_or_triangle(data, command, limit)

    def admitted(*args, **kwargs):
        raise _Admitted

    out, err = io.StringIO(), io.StringIO()
    with ExitStack() as stack:
        for module, names in ADMITTED_WORK.items():
            stack.enter_context(mock.patch.multiple(module, **dict.fromkeys(names, admitted)))
        stack.enter_context(redirect_stdout(out))
        stack.enter_context(redirect_stderr(err))
        stack.enter_context(int_max_str_digits(limit))
        # a collection of what earlier tests left would fall inside the timed span
        gc.disable()
        start = time.perf_counter()
        try:
            outcome = main(argv)
        except _Admitted:
            outcome = ADMITTED
        except SystemExit as exc:
            outcome = exc.code
        finally:
            elapsed = time.perf_counter() - start
            gc.enable()
    shown = [a if len(a) < 40 else f"<{len(a)} characters>" for a in argv]
    assert outcome == verdict, (shown, limit, err.getvalue()[-300:])
    assert elapsed < 0.05, (shown, limit, elapsed)
    if outcome == 1:
        record = json.loads(out.getvalue())
        jsonschema.validate(record, SCHEMA)
        assert set(record) == {"schema", "command", "error"} and record["command"] == argv[0]
    elif outcome == 2:
        assert out.getvalue() == "" and "usage: littlewood" in err.getvalue()


def test_script_refusals_are_library_refusals():
    # `python tests/csv_digests.py` checks these without the parity test's tools
    assert set(REFUSALS) <= {argv for argv, _ in REFUSED}


def test_json_deterministic_apart_from_timing(capsys):
    _, first = run_cli(capsys, "limits", "--family", "fekete", "--qmax", "5")
    _, second = run_cli(capsys, "limits", "--family", "fekete", "--qmax", "5")
    a, b = json.loads(first), json.loads(second)
    a.pop("timing")
    b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_csv_byte_identical(capsys):
    args = ("empirical", "--family", "fekete", "--q", "2", "--p", "13",
            "--format", "csv")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "littlewood", "limits", "--family", "fekete",
         "--qmax", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    jsonschema.validate(record, SCHEMA)
    assert record["results"][1]["limit"] == "5/3"


# dev mode with warnings as errors, so that an "Exception ignored" at exit shows
DEV_MODE = {**os.environ, "PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error"}
CANNOT_WRITE = "littlewood: cannot write the output: "


def test_reader_that_leaves_ends_without_a_message():
    # `triangle --family fekete --rows 64 --format csv | head -n 1`: about 700 KB,
    # so the child is still writing when the reader closes its end
    with subprocess.Popen(
        [sys.executable, "-m", "littlewood", "triangle", "--family", "fekete",
         "--rows", "64", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=DEV_MODE,
    ) as proc:
        assert proc.stdout.readline() == b'"k","m","value"\r\n'
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_prints_one_line():
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "littlewood", "limits", "--family", "fekete", "--qmax", "8"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=DEV_MODE,
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith(CANNOT_WRITE) and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


def test_closed_stdout_is_refused_before_any_work():
    # the shell's >&- starts the child with no fd 1, so sys.stdout is None
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m littlewood limits --family fekete --qmax 8 >&-',
         sys.executable],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=DEV_MODE,
    )
    assert proc.returncode == 1
    assert proc.stderr == CANNOT_WRITE + "stdout is closed\n"


@pytest.mark.parametrize(
    "argv, digest", PINNED_CSV_DIGESTS, ids=["-".join(a) for a, _ in PINNED_CSV_DIGESTS]
)
def test_exact_csv_pinned_digests(capsys, argv, digest):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest", NORM_CSV_DIGESTS, ids=[" ".join(a[:8]) for a, _ in NORM_CSV_DIGESTS]
)
def test_empirical_csv_pinned_digests(capsys, argv, digest):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, exit_code, digest", JSON_DIGESTS, ids=[" ".join(a) for a, _, _ in JSON_DIGESTS]
)
def test_json_pinned_digests(capsys, argv, exit_code, digest):
    code, out = run_cli(capsys, *argv)
    assert code == exit_code
    assert json_digest(out) == digest


# the CSV of each mode as a view of its JSON records: the header, and the
# rows of one record, with the same strings split or dropped
CSV_VIEWS = [
    (("limits", "--family", "fekete", "--qmax", "6"),
     ["q", "limit", "limit_decimal"],
     lambda r: [[str(r["q"]), r["limit"], r["limit_decimal"]]]),
    (("triangle", "--family", "galois", "--rows", "5"),
     ["k", "m", "value"],
     lambda r: [[str(r["k"]), str(m), v] for m, v in enumerate(r["values"], start=1)]),
    (("phi", "--q", "5", "--eval", "-2/7"),
     ["q", "r", "value", "value_decimal"],
     lambda r: [[str(r["q"]), r["r"], r["value"], r["value_decimal"]]]),
    (("phi", "--q", "4", "--min"),
     ["q", "argmin_lo", "argmin_hi", "min_lo", "min_hi", "alt_flag"],
     lambda r: [[str(r["q"]), r["argmin_lo"], r["argmin_hi"], r["min_lo"], r["min_hi"],
                 "true" if r["alt_flag"] else "false"]]),
    (("phi", "--q", "3", "--pieces"),
     ["piece", "lo", "hi", "coefficients"],
     lambda r: [[str(r["piece"]), r["lo"], r["hi"], " ".join(r["coefficients"])]]),
    (("empirical", "--family", "shifted", "--q", "2", "--p", "13", "--p", "101",
      "--shift", "-3"),
     ["n", "exact_norm", "ratio_num", "ratio_den", "limit_num", "limit_den", "rel_err"],
     lambda r: [[str(r["n"]), r["exact_norm"], *r["ratio"].split("/"),
                 *r["limit"].split("/"), r["rel_err"]]]),
]


@pytest.mark.parametrize(
    "argv, header, view", CSV_VIEWS,
    ids=["limits", "triangle", "phi-eval", "phi-min", "phi-pieces", "empirical"],
)
def test_csv_is_a_view_of_the_json_records(capsys, argv, header, view):
    code, record = run_json(capsys, *argv)
    assert code == 0
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [
        header, *(row for r in record["results"] for row in view(r))
    ]


NUMPY_FREE_SCRIPT = """
import sys
import littlewood.cli
from littlewood.cli import main
assert "numpy" not in sys.modules, "import littlewood.cli"
# JSON output skips csv; limits, triangle, phi --eval and empirical also skip
# the piecewise, rational-polynomial, profile and Sturm modules and
# dataclasses; the limit commands, which run first, also skip the norm engine;
# phi --min and --pieces skip the profiles and dataclasses
LEAN = ("csv", "dataclasses", "littlewood.piecewise", "littlewood.ratpoly",
        "littlewood.partitions", "littlewood.sturm", "numpy")
EXACT = (*LEAN, "littlewood.polynomials", "littlewood.gf2k", "littlewood.intconv")
SYMBOLIC = ("csv", "dataclasses", "littlewood.partitions", "numpy")
for argv, skipped in (
    (["limits", "--family", "fekete", "--qmax", "8"], EXACT),
    (["triangle", "--family", "galois", "--rows", "4"], EXACT),
    (["phi", "--q", "2", "--eval", "-1/4"], EXACT),
    (["phi", "--q", "12", "--eval", "2/7"], EXACT),
    (["empirical", "--family", "fekete", "--q", "1", "--p", "101"], LEAN),
    (["empirical", "--family", "fekete", "--q", "2", "--p", "101"], LEAN),
    (["empirical", "--family", "shifted", "--q", "1", "--p", "101",
      "--shift-ratio", "1/4"], LEAN),
    (["empirical", "--family", "shifted", "--q", "2", "--p", "101",
      "--shift-ratio", "1/4"], LEAN),
    (["empirical", "--family", "galois", "--q", "1", "--k", "10"], LEAN),
    (["empirical", "--family", "galois", "--q", "2", "--k", "10"], LEAN),
    (["phi", "--q", "3", "--min"], SYMBOLIC),
    (["phi", "--q", "4", "--pieces"], SYMBOLIC),
):
    assert main(argv) == 0
    loaded = [name for name in skipped if name in sys.modules]
    assert not loaded, (argv, loaded)
assert "littlewood.sturm" in sys.modules
import littlewood
for name in littlewood.__all__:
    getattr(littlewood, name)
assert "numpy" not in sys.modules
from littlewood import galois, fekete
assert galois(3) and fekete(5) == (0, 1, -1, -1, 1)
"""


def test_exact_commands_do_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


EXPORTS_SCRIPT = """
import sys
import littlewood
loaded = [name for name in sys.modules if name.startswith("littlewood.")]
assert not loaded, loaded
assert littlewood.limits.MAX_Q == 128
assert sorted(littlewood.__all__) == littlewood.__all__ == sorted(set(sys.argv[1:]))
for name in littlewood.__all__:
    obj = getattr(littlewood, name)
    assert obj.__module__.startswith("littlewood."), name
    assert getattr(sys.modules[obj.__module__], name) is obj, name
# results are plain values: no module loads dataclasses
assert "dataclasses" not in sys.modules
"""

# the package's public names: `__all__` lists exactly these
PUBLIC_NAMES = """
ConvergenceRow MinimizeResult PiecewisePoly
carlitz_numbers composition_count convergence_table enumerate_set_partitions
eulerian_general eulerian_polynomial even_block_profiles even_size_profiles
fekete fekete_limit_direct fekete_limit_recursive fekete_triangle_row galois
galois_limit_direct galois_limit_recursive galois_size_profiles
galois_triangle_row legendre limit_table norm_2q_exact norm_2q_quadrature
phi_min phi_piecewise primitive_polynomial pw_minimize shifted_fekete
shifted_fekete_limit tangent_numbers triangle_table
""".split()


def test_package_exports_load_on_first_use():
    # a fresh interpreter: a bare import loads no submodule, and each public
    # name is the object its defining module holds
    proc = subprocess.run(
        [sys.executable, "-c", EXPORTS_SCRIPT, *PUBLIC_NAMES],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_unknown_package_attribute():
    import littlewood

    with pytest.raises(AttributeError):
        littlewood.no_such_name
