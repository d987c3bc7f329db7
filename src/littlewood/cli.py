"""Command-line interface: limits, triangle, phi, and empirical subcommands.

Every command renders either a JSON record (schema "v1", shipped in
littlewood/schema/output.v1.json) or RFC-4180-style CSV.  Exact rationals are
always printed as "num/den" so downstream tools can re-verify without
rounding; decimals carry 12 significant digits.  Output is byte-identical
across identical invocations apart from the JSON timing field (CSV carries no
timing).  Domain errors print an error record and exit 1; malformed usage
exits 2 via argparse.
"""
from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from fractions import Fraction

from littlewood import limits as limits_mod

SCHEMA_VERSION = "v1"
# Largest --p accepted; it matches the length 2^24 - 1 of the largest Galois
# polynomial.
MAX_PRIME = 1 << 24
# Largest q of `limits --qmax` and of the fekete/galois `empirical` limits.
MAX_Q = 64


class CommandError(Exception):
    """Domain error reported as an error record with exit code 1."""


def _rat(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _dec(x) -> str:
    return f"{float(x):.12g}"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be a positive integer")
    return value


def _rational(text: str) -> Fraction:
    # Fraction expands an exponent in full, before any cost rule can refuse it
    if "e" in text.lower():
        raise ValueError("exponent notation")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


# Options taking a rational.  argparse reads a value such as "-1/4" as an
# option (its negative-number pattern covers only integers and decimals), so
# `_attach_negative_values` joins it to its option first.
_RATIONAL_OPTIONS = ("--eval", "--eps", "--shift-ratio")
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite "--eval -1/4" as "--eval=-1/4" for the rational options."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and _NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="littlewood",
        description="Exact limiting L^2q norm ratios of Fekete, shifted "
        "Fekete, and Galois polynomials, with empirical cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_limits = sub.add_parser("limits", help="published limiting values per family")
    p_limits.add_argument("--family", choices=("fekete", "galois"), required=True)
    p_limits.add_argument("--qmax", type=_positive_int, required=True)
    _add_format(p_limits)

    p_tri = sub.add_parser("triangle", help="triangular integer arrays per family")
    p_tri.add_argument("--family", choices=("fekete", "galois"), required=True)
    p_tri.add_argument("--rows", type=_positive_int, required=True)
    _add_format(p_tri)

    p_phi = sub.add_parser("phi", help="shift-ratio limit functions")
    p_phi.add_argument("--q", type=_positive_int, required=True)
    mode = p_phi.add_mutually_exclusive_group(required=True)
    mode.add_argument("--eval", type=_rational, metavar="R", dest="eval_at")
    mode.add_argument("--min", action="store_true", dest="minimize")
    mode.add_argument("--pieces", action="store_true")
    p_phi.add_argument(
        "--eps",
        type=_rational,
        default=Fraction(1, 1 << 20),
        help="enclosure width for --min (default 1/1048576)",
    )
    _add_format(p_phi)

    p_emp = sub.add_parser("empirical", help="exact norms of actual polynomials")
    p_emp.add_argument("--family", choices=("fekete", "shifted", "galois"), required=True)
    p_emp.add_argument("--q", type=_positive_int, required=True)
    p_emp.add_argument(
        "--p", type=_positive_int, action="append", default=None,
        help="odd prime size (repeatable; fekete/shifted families)",
    )
    p_emp.add_argument(
        "--k", type=_positive_int, action="append", default=None,
        help="field exponent (repeatable; galois family)",
    )
    shift = p_emp.add_mutually_exclusive_group()
    shift.add_argument("--shift", type=int, default=None, help="fixed shift r")
    shift.add_argument(
        "--shift-ratio", type=_rational, default=None,
        help="target ratio R; uses r = round(R*p) per prime",
    )
    _add_format(p_emp)

    return parser


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _cmd_limits(args):
    if args.qmax > MAX_Q:
        raise CommandError(f"qmax must be at most {MAX_Q}")
    table = limits_mod.limit_table(args.family, args.qmax)
    params = {"family": args.family, "qmax": args.qmax, "format": args.format}
    results = [
        {"q": q, "limit": _rat(v), "limit_decimal": _dec(v)}
        for q, v in sorted(table.entries.items())
    ]
    header = ["q", "limit", "limit_decimal"]
    rows = [[r["q"], r["limit"], r["limit_decimal"]] for r in results]
    return params, results, (header, rows)


def _cmd_triangle(args):
    if args.rows > 16:
        raise CommandError("rows must be at most 16")
    fn = (
        limits_mod.fekete_triangle_row
        if args.family == "fekete"
        else limits_mod.galois_triangle_row
    )
    params = {"family": args.family, "rows": args.rows, "format": args.format}
    results = []
    csv_rows = []
    for k in range(1, args.rows + 1):
        row = fn(k)
        results.append({"k": k, "values": [str(v) for v in row.values]})
        for m, v in enumerate(row.values, start=1):
            csv_rows.append([k, m, str(v)])
    return params, results, (["k", "m", "value"], csv_rows)


def _cmd_phi(args):
    q = args.q
    if args.eval_at is not None:
        reason = limits_mod.shifted_limit_error(q, args.eval_at)
        if reason:
            raise CommandError(reason)
        value = limits_mod.shifted_fekete_limit(q, args.eval_at)
        params = {"q": q, "eval": _rat(args.eval_at), "format": args.format}
        results = [
            {
                "q": q,
                "r": _rat(args.eval_at),
                "value": _rat(value),
                "value_decimal": _dec(value),
            }
        ]
        header = ["q", "r", "value", "value_decimal"]
        rows = [[q, results[0]["r"], results[0]["value"], results[0]["value_decimal"]]]
        return params, results, (header, rows)

    if args.minimize:
        if not 2 <= q <= limits_mod.PHI_PIECES_QMAX:
            raise CommandError(f"--min supports 2 <= q <= {limits_mod.PHI_PIECES_QMAX}")
        if args.eps <= 0:
            raise CommandError("--eps must be positive")
        res = limits_mod.phi_min(q, args.eps)
        params = {"q": q, "min": True, "eps": _rat(args.eps), "format": args.format}
        results = [
            {
                "q": q,
                "argmin_lo": _rat(res.argmin[0]),
                "argmin_hi": _rat(res.argmin[1]),
                "min_lo": _rat(res.value[0]),
                "min_hi": _rat(res.value[1]),
                "min_decimal": _dec(res.value[1]),
                "alt_flag": res.alt_flag,
            }
        ]
        header = ["q", "argmin_lo", "argmin_hi", "min_lo", "min_hi", "alt_flag"]
        r = results[0]
        rows = [[q, r["argmin_lo"], r["argmin_hi"], r["min_lo"], r["min_hi"],
                 "true" if res.alt_flag else "false"]]
        return params, results, (header, rows)

    if q > limits_mod.PHI_PIECES_QMAX:
        raise CommandError(f"--pieces supports q <= {limits_mod.PHI_PIECES_QMAX}")
    f = limits_mod.phi_piecewise(q)
    params = {"q": q, "pieces": True, "format": args.format}
    results = []
    csv_rows = []
    for i, piece in enumerate(f.pieces):
        lo, hi = f.breakpoints[i], f.breakpoints[i + 1]
        coeffs = [_rat(c) for c in piece]
        results.append(
            {"piece": i, "lo": _rat(lo), "hi": _rat(hi), "coefficients": coeffs}
        )
        csv_rows.append([i, _rat(lo), _rat(hi), " ".join(coeffs)])
    return params, results, (["piece", "lo", "hi", "coefficients"], csv_rows)


def _cmd_empirical(args):
    # only this command needs the polynomial builders and the norm engine
    from littlewood import polynomials as poly_mod
    from littlewood.intconv import capacity_error

    family, q = args.family, args.q
    if family != "shifted" and q > MAX_Q:
        raise CommandError(f"family {family} supports q <= {MAX_Q}")
    if family in ("fekete", "shifted"):
        if not args.p:
            raise CommandError(f"family {family} requires at least one --p")
        if args.k:
            raise CommandError(f"family {family} takes --p, not --k")
        sizes = args.p
        for p in sizes:
            if p > MAX_PRIME:
                raise CommandError(f"prime size {p} exceeds the limit {MAX_PRIME}")
            if not poly_mod.is_odd_prime(p):
                raise CommandError(
                    f"primality check failed: {p} is not an odd prime"
                )
        shapes = [(p, p - 1) for p in sizes]  # (length, sum of |coefficients|)
    else:
        if not args.k:
            raise CommandError("family galois requires at least one --k")
        if args.p:
            raise CommandError("family galois takes --k, not --p")
        sizes = args.k
        for k in sizes:
            if not 2 <= k <= 24:
                raise CommandError(f"field exponent {k} out of range 2..24")
        shapes = [((1 << k) - 1, (1 << k) - 1) for k in sizes]
    for n, abs_sum in shapes:
        reason = capacity_error(n, q, abs_sum, 1)
        if reason:
            raise CommandError(reason)

    shift, shift_ratio = args.shift, args.shift_ratio
    if family == "shifted" and shift is None and shift_ratio is None:
        raise CommandError("shifted family needs --shift or --shift-ratio")
    if family != "shifted" and (shift is not None or shift_ratio is not None):
        raise CommandError("--shift/--shift-ratio apply to the shifted family only")
    if family == "shifted":
        ratios = [shift_ratio] if shift is None else [Fraction(shift, p) for p in sizes]
        for ratio in ratios:
            reason = limits_mod.shifted_limit_error(q, ratio)
            if reason:
                raise CommandError(reason)

    table = poly_mod.convergence_table(
        family, q, sizes, shift=shift, shift_ratio=shift_ratio
    )
    params = {"family": family, "q": q, "sizes": sizes, "format": args.format}
    if shift is not None:
        params["shift"] = shift
    if shift_ratio is not None:
        params["shift_ratio"] = _rat(shift_ratio)
    results = [
        {
            "n": row.n,
            "exact_norm": str(row.exact_norm),
            "ratio": _rat(row.ratio),
            "limit": _rat(row.limit),
            "abs_err": _dec(row.abs_err),
            "rel_err": _dec(row.rel_err),
        }
        for row in table
    ]
    header = ["n", "exact_norm", "ratio_num", "ratio_den", "limit_num",
              "limit_den", "rel_err"]
    rows = [
        [row.n, str(row.exact_norm), str(row.ratio.numerator),
         str(row.ratio.denominator), str(row.limit.numerator),
         str(row.limit.denominator), _dec(row.rel_err)]
        for row in table
    ]
    return params, results, (header, rows)


_HANDLERS = {
    "limits": _cmd_limits,
    "triangle": _cmd_triangle,
    "phi": _cmd_phi,
    "empirical": _cmd_empirical,
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_negative_values(argv))
    started = time.perf_counter()
    try:
        params, results, csv_spec = _HANDLERS[args.command](args)
    except CommandError as exc:
        record = {"schema": SCHEMA_VERSION, "command": args.command, "error": str(exc)}
        print(json.dumps(record, indent=2))
        return 1
    elapsed = time.perf_counter() - started
    if args.format == "json":
        record = {
            "schema": SCHEMA_VERSION,
            "command": args.command,
            "parameters": params,
            "results": results,
            "timing": {"seconds": elapsed},
        }
        print(json.dumps(record, indent=2))
    else:
        writer = csv.writer(sys.stdout, quoting=csv.QUOTE_ALL)
        header, rows = csv_spec
        writer.writerow(header)
        writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
