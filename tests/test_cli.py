"""Tests for the command-line interface and its machine-readable output."""
import csv
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from csv_digests import NORM_CSV_DIGESTS, PINNED_CSV_DIGESTS, REFUSALS
from littlewood import limits as limits_mod
from littlewood import polynomials as poly_mod
from littlewood.cli import main

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


def test_limits_qmax_bound(capsys):
    code, out = run_cli(capsys, "limits", "--family", "fekete", "--qmax", "129")
    record = json.loads(out)
    jsonschema.validate(record, SCHEMA)
    assert code == 1
    assert "128" in record["error"]
    code, record = run_json(capsys, "limits", "--family", "fekete", "--qmax", "64")
    assert code == 0
    assert len(record["results"]) == 64


def test_triangle(capsys):
    code, record = run_json(capsys, "triangle", "--family", "fekete", "--rows", "2")
    assert code == 0
    assert record["results"][0]["values"] == ["1"]
    assert record["results"][1]["values"] == ["-2", "10", "-2"]
    code, record = run_json(capsys, "triangle", "--family", "galois", "--rows", "2")
    assert record["results"][1]["values"] == ["-1", "8", "-1"]


def test_triangle_zero_rows_is_error_record(capsys):
    # positivity is the library's rule; only text that is no integer is usage
    code, record = run_json(capsys, "triangle", "--family", "fekete", "--rows", "0")
    assert code == 1
    assert record["error"] == "rows 0 out of range 1..128"
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "--family", "fekete", "--rows", "2.5"])
    assert exc.value.code == 2


def test_triangle_rows_bound(capsys):
    code, out = run_cli(capsys, "triangle", "--family", "fekete", "--rows", "129")
    record = json.loads(out)
    jsonschema.validate(record, SCHEMA)
    assert code == 1
    assert "128" in record["error"]
    # the former cap of 16 rows is gone; row 17 extends the 16-row table
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
    code, record = run_json(capsys, "phi", "--q", "3", "--min", "--eps", "-1/4")
    assert code == 1
    assert record["error"] == "eps must be positive"
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


def test_phi_out_of_range_is_error_record(capsys):
    code, out = run_cli(capsys, "phi", "--q", "17", "--eval", "1/4")
    record = json.loads(out)
    jsonschema.validate(record, SCHEMA)
    assert code == 1
    assert "1 <= q <= 16" in record["error"]


def test_phi_eval_refuses_beyond_the_rule(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a refused request reached the evaluator")

    monkeypatch.setattr(limits_mod, "_shifted_values", never)
    cases = [
        (("--q", "17", "--eval", "1/4"), "1 <= q <= 16"),
        (("--q", "8", "--eval", "1/" + "1" + "0" * 320), "exceeds 125 digits at q=8"),
        (("--q", "8", "--eval", "-1/" + "1" + "0" * 3000), "exceeds 125 digits"),
        (("--q", "16", "--eval", "1/" + "9" * 63), "exceeds 62 digits at q=16"),
        (("--q", "1", "--eval", "1/" + "1" + "0" * 1000), "exceeds 1000 digits"),
    ]
    for argv, reason in cases:
        code, out = run_cli(capsys, "phi", *argv)
        record = json.loads(out)
        jsonschema.validate(record, SCHEMA)
        assert code == 1, argv
        assert reason in record["error"], argv


def test_phi_eval_beyond_the_former_cap(capsys):
    code, record = run_json(capsys, "phi", "--q", "12", "--eval", "1/4")
    assert code == 0
    value = Fraction(record["results"][0]["value"])
    assert value == limits_mod.shifted_fekete_limit(12, Fraction(-1, 4))
    # the largest denominator admitted at q = 8 prints in full
    code, record = run_json(capsys, "phi", "--q", "8", "--eval", "1/" + "9" * 125)
    assert code == 0
    assert len(record["results"][0]["value"]) > 15 * 125


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


def test_empirical_composite_prime_is_error(capsys):
    code, out = run_cli(capsys, "empirical", "--family", "fekete", "--q", "2", "--p", "9")
    record = json.loads(out)
    jsonschema.validate(record, SCHEMA)
    assert code == 1
    assert "primality" in record["error"]
    assert "9" in record["error"]


def _forbid_polynomial_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a refused request built a polynomial or a norm")

    for name in ("fekete", "shifted_fekete", "galois", "_fekete_signs",
                 "_shifted_signs", "_galois_signs", "norm_2q_exact"):
        monkeypatch.setattr(poly_mod, name, never)


def test_empirical_refuses_oversized_input(capsys, monkeypatch):
    _forbid_polynomial_work(monkeypatch)
    # argv, a part of the error, and the same request to the library
    cases = [
        (("--family", "galois", "--q", "2", "--k", "21"), "capacity",
         ("galois", 2, [21])),
        (("--family", "fekete", "--q", "2", "--p", "1048583"), "capacity",
         ("fekete", 2, [1048583])),
        (("--family", "shifted", "--q", "3", "--p", "700001", "--shift", "1"), "capacity",
         ("shifted", 3, [700001], 1)),
        (("--family", "fekete", "--q", "64", "--p", "7"), "coefficient bound",
         ("fekete", 64, [7])),
        (("--family", "fekete", "--q", "1", "--p", "341550071728321"), "limit",
         ("fekete", 1, [341550071728321])),
        (("--family", "shifted", "--q", "17", "--p", "5", "--shift", "1"), "q <= 16",
         ("shifted", 17, [5], 1)),
        (("--family", "shifted", "--q", "8", "--p", "3",
          "--shift-ratio", "1/" + "1" + "0" * 320), "exceeds 125 digits",
         ("shifted", 8, [3], None, Fraction(1, 10**320))),
        (("--family", "fekete", "--q", "200", "--p", "3"), "q <= 128",
         ("fekete", 200, [3])),
        (("--family", "fekete", "--q", "129", "--p", "3"), "q <= 128",
         ("fekete", 129, [3])),
        (("--family", "galois", "--q", "192", "--k", "2"), "q <= 128",
         ("galois", 192, [2])),
    ]
    for argv, reason, request in cases:
        code, out = run_cli(capsys, "empirical", *argv)
        record = json.loads(out)
        jsonschema.validate(record, SCHEMA)
        assert code == 1, argv
        assert reason in record["error"], argv
        assert record["error"] == poly_mod.convergence_error(*request), argv


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
        assert record["error"] == poly_mod.convergence_error(
            argv[1], int(argv[3]), [int(argv[5])], 1 if "--shift" in argv else None
        ), argv


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
    (("phi", "--q", "16", "--eval", "1/" + "9" * 63),
     lambda: limits_mod.shifted_fekete_limit(16, Fraction(1, 10**63 - 1))),
    (("phi", "--q", "1", "--min"),
     lambda: limits_mod.phi_min(1, Fraction(1, 1 << 20))),
    (("phi", "--q", "7", "--min"),
     lambda: limits_mod.phi_min(7, Fraction(1, 1 << 20))),
    (("phi", "--q", "3", "--min", "--eps", "0"),
     lambda: limits_mod.phi_min(3, 0)),
    (("phi", "--q", "3", "--min", "--eps", "-1/4"),
     lambda: limits_mod.phi_min(3, Fraction(-1, 4))),
    (("phi", "--q", "7", "--pieces"),
     lambda: limits_mod.phi_piecewise(7)),
    (("phi", "--q", "0", "--eval", "1/4"),
     lambda: limits_mod.shifted_fekete_limit(0, Fraction(1, 4))),
    (("phi", "--q", "0", "--pieces"),
     lambda: limits_mod.phi_piecewise(0)),
    (("empirical", "--family", "galois", "--q", "2", "--k", "21"),
     lambda: poly_mod.convergence_table("galois", 2, [21])),
    (("empirical", "--family", "fekete", "--q", "129", "--p", "3"),
     lambda: poly_mod.convergence_table("fekete", 129, [3])),
    (("empirical", "--family", "fekete", "--q", "2", "--p", "9"),
     lambda: poly_mod.convergence_table("fekete", 2, [9])),
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
    monkeypatch.setattr(limits_mod, "_values", never)
    monkeypatch.setattr(limits_mod, "_shifted_values", never)
    with pytest.raises(ValueError) as exc:
        call()
    code, record = run_json(capsys, *argv)
    assert code == 1
    assert record == {"schema": "v1", "command": argv[0], "error": str(exc.value)}


def test_script_refusals_are_library_refusals():
    # `python tests/csv_digests.py` checks these without the parity test's tools
    assert set(REFUSALS) <= {argv for argv, _ in REFUSED}


def test_empirical_ignores_thread_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LITTLEWOOD_THREADS", "abc")
    code, record = run_json(
        capsys, "empirical", "--family", "fekete", "--q", "2", "--p", "5", "--p", "7"
    )
    assert code == 0
    assert [r["exact_norm"] for r in record["results"]] == ["28", "50"]


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


NUMPY_FREE_SCRIPT = """
import sys
import littlewood.cli
from littlewood.cli import main
assert "numpy" not in sys.modules, "import littlewood.cli"
# limits, triangle, phi --eval and empirical also skip the piecewise,
# rational-polynomial, profile and Sturm modules and dataclasses; phi --min
# and --pieces skip the profiles and dataclasses
LEAN = ("dataclasses", "littlewood.piecewise", "littlewood.ratpoly",
        "littlewood.partitions", "littlewood.sturm", "numpy")
SYMBOLIC = ("dataclasses", "littlewood.partitions", "numpy")
for argv, skipped in (
    (["limits", "--family", "fekete", "--qmax", "8"], LEAN),
    (["triangle", "--family", "galois", "--rows", "4"], LEAN),
    (["phi", "--q", "2", "--eval", "-1/4"], LEAN),
    (["phi", "--q", "12", "--eval", "2/7"], LEAN),
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
"""

# the package's public names: `__all__` lists exactly these
PUBLIC_NAMES = """
ConvergenceRow EvenBlockProfile LimitTable MinimizeResult PhiMinResult
PiecewisePoly SizeProfile TriangleRow carlitz_numbers composition_count
convergence_table enumerate_set_partitions eulerian_general eulerian_polynomial
even_block_profiles even_size_profiles fekete fekete_limit_direct
fekete_limit_recursive fekete_triangle_row galois galois_limit_direct
galois_limit_recursive galois_size_profiles galois_triangle_row legendre
limit_table norm_2q_exact norm_2q_quadrature phi_min phi_piecewise
primitive_polynomial pw_minimize shifted_fekete shifted_fekete_limit
tangent_numbers triangle_table
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
