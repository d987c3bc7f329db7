"""Command-line interface: limits, triangle, phi, and empirical subcommands.

The parser is the one table of commands: each subparser carries its handler
as `args.run`.  A handler returns its parameters and its results once, as the
records of the JSON output (schema "v1", shipped in
littlewood/schema/output.v1.json); `main` alone renders them, as JSON or as
RFC-4180-style CSV streamed from the same records.  A CSV row is by default a
record's values under its keys, a list joined by spaces; triangle, phi --min
and empirical state their own view.
Exact rationals are always "num/den", and decimals carry 12 significant
digits.  Output is byte-identical across identical invocations apart from the
JSON timing field.  Malformed usage exits 2 via argparse; so does --eps
without --min, which `main` checks after parsing.  Every other refusal is
the library's, raised as ValueError before any work starts, and `main`
prints it as an error record and exits 1; the one rule kept here is which of
--p and --k `empirical` was given.  Output that cannot be written exits 1
without a traceback: a closed stdout is refused before any work, a reader
that left (BrokenPipeError) ends it silently, and any other OSError while
writing or flushing prints one line, "littlewood: cannot write the output:
<reason>", to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from littlewood import _check_rational, limits as limits_mod

SCHEMA_VERSION = "v1"


def _rat(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _dec(x) -> str:
    return f"{float(x):.12g}"


def _rational(text: str) -> Fraction:
    # the usage error carries the rule's own message, which names an over-long value by length
    try:
        return _check_rational("value", text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    p_limits.add_argument("--family", choices=limits_mod.FAMILIES, required=True)
    p_limits.add_argument("--qmax", type=int, required=True)
    _add_run_and_format(p_limits, _cmd_limits)

    p_tri = sub.add_parser("triangle", help="triangular integer arrays per family")
    p_tri.add_argument("--family", choices=limits_mod.FAMILIES, required=True)
    p_tri.add_argument("--rows", type=int, required=True)
    _add_run_and_format(p_tri, _cmd_triangle)

    p_phi = sub.add_parser("phi", help="shift-ratio limit functions")
    p_phi.add_argument("--q", type=int, required=True)
    mode = p_phi.add_mutually_exclusive_group(required=True)
    mode.add_argument("--eval", type=_rational, metavar="R", dest="eval_at")
    mode.add_argument("--min", action="store_true", dest="minimize")
    mode.add_argument("--pieces", action="store_true")
    p_phi.add_argument("--eps", type=_rational,
                       help="enclosure width, --min only (default 1/1048576)")
    _add_run_and_format(p_phi, _cmd_phi)

    p_emp = sub.add_parser("empirical", help="exact norms of actual polynomials")
    p_emp.add_argument("--family", choices=("fekete", "shifted", "galois"), required=True)
    p_emp.add_argument("--q", type=int, required=True)
    p_emp.add_argument(
        "--p", type=int, action="append", default=None,
        help="odd prime size (repeatable; fekete/shifted families)",
    )
    p_emp.add_argument(
        "--k", type=int, action="append", default=None,
        help="field exponent (repeatable; galois family)",
    )
    shift = p_emp.add_mutually_exclusive_group()
    shift.add_argument("--shift", type=int, default=None, help="fixed shift r")
    shift.add_argument(
        "--shift-ratio", type=_rational, default=None,
        help="target ratio R; uses r = round(R*p) per prime",
    )
    _add_run_and_format(p_emp, _cmd_empirical)

    return parser


def _add_run_and_format(p: argparse.ArgumentParser, run) -> None:
    """Bind the command's handler, which `main` calls as args.run(args), and add
    the option every command ends with, --format."""
    p.set_defaults(run=run)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _cmd_limits(args):
    table = limits_mod.limit_table(args.family, args.qmax)
    params = {"family": args.family, "qmax": args.qmax, "format": args.format}
    return params, ({"q": q, "limit": _rat(v), "limit_decimal": _dec(v)}
                    for q, v in table.items())


def _cmd_triangle(args):
    table = limits_mod.triangle_table(args.family, args.rows)
    params = {"family": args.family, "rows": args.rows, "format": args.format}
    records = ({"k": k, "values": [str(v) for v in row]} for k, row in enumerate(table, 1))
    # CSV: one row per value
    return params, records, ["k", "m", "value"], lambda r: (
        [r["k"], m, v] for m, v in enumerate(r["values"], start=1))


def _cmd_phi(args):
    q = args.q
    if args.eval_at is not None:
        value = limits_mod.shifted_fekete_limit(q, args.eval_at)
        r = _rat(args.eval_at)
        params = {"q": q, "eval": r, "format": args.format}
        return params, [{"q": q, "r": r, "value": _rat(value), "value_decimal": _dec(value)}]

    if args.minimize:
        eps = Fraction(1, 1 << 20) if args.eps is None else args.eps
        res = limits_mod.phi_min(q, eps)
        params = {"q": q, "min": True, "eps": _rat(eps), "format": args.format}
        a_lo, a_hi, v_lo, v_hi = (_rat(x) for x in (*res.argmin, *res.value))
        record = {"q": q, "argmin_lo": a_lo, "argmin_hi": a_hi, "min_lo": v_lo, "min_hi": v_hi,
                  "min_decimal": _dec(res.value[1]), "alt_flag": bool(res.competitors)}
        # CSV: no min_decimal, and alt_flag as true/false
        header = ["q", "argmin_lo", "argmin_hi", "min_lo", "min_hi", "alt_flag"]
        return params, [record], header, lambda r: [
            [*(r[key] for key in header[:-1]), "true" if r["alt_flag"] else "false"]]

    f = limits_mod.phi_piecewise(q)
    params = {"q": q, "pieces": True, "format": args.format}
    return params, ({"piece": i, "lo": _rat(f.breakpoints[i]), "hi": _rat(f.breakpoints[i + 1]),
                     "coefficients": [_rat(c) for c in piece]}
                    for i, piece in enumerate(f.pieces))


def _cmd_empirical(args):
    # only this command needs the polynomial builders and the norm engine
    from littlewood import polynomials as poly_mod

    family, q = args.family, args.q
    flag, other = ("k", "p") if family == "galois" else ("p", "k")
    sizes = getattr(args, flag)
    if not sizes:
        raise ValueError(f"family {family} requires at least one --{flag}")
    if getattr(args, other):
        raise ValueError(f"family {family} takes --{flag}, not --{other}")
    shift, shift_ratio = args.shift, args.shift_ratio
    table = poly_mod.convergence_table(family, q, sizes, shift=shift, shift_ratio=shift_ratio)
    params = {"family": family, "q": q, "sizes": sizes, "format": args.format}
    if shift is not None:
        params["shift"] = shift
    if shift_ratio is not None:
        params["shift_ratio"] = _rat(shift_ratio)
    records = ({"n": row.n, "exact_norm": str(row.exact_norm), "ratio": _rat(row.ratio),
                "limit": _rat(row.limit), "abs_err": _dec(row.abs_err),
                "rel_err": _dec(row.rel_err)} for row in table)
    # CSV: ratio and limit split at "/", and no abs_err
    header = ["n", "exact_norm", "ratio_num", "ratio_den", "limit_num", "limit_den", "rel_err"]
    return params, records, header, lambda r: [
        [r["n"], r["exact_norm"], *r["ratio"].split("/"), *r["limit"].split("/"), r["rel_err"]]]


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_negative_values(argv))
    if getattr(args, "eps", None) is not None and not args.minimize:
        parser.error("argument --eps: allowed with --min only")
    if sys.stdout is None:
        return _cannot_write("stdout is closed")
    started = time.perf_counter()
    try:
        try:
            params, records, *csv_view = args.run(args)
            if args.format == "csv":
                _write_csv(records, *csv_view)
            else:
                _write_json({"schema": SCHEMA_VERSION, "command": args.command,
                             "parameters": params, "results": list(records),
                             "timing": {"seconds": time.perf_counter() - started}})
            code = 0
        except ValueError as exc:
            _write_json({"schema": SCHEMA_VERSION, "command": args.command, "error": str(exc)})
            code = 1
        sys.stdout.flush()
    except OSError as exc:
        # the library does no I/O, so this is the output's error.  Python
        # flushes stdout again at exit; pointing it at devnull, as the Python
        # docs advise for SIGPIPE, keeps that flush from failing too
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        # a reader that left wants no message
        return 1 if isinstance(exc, BrokenPipeError) else _cannot_write(exc.strerror or exc)
    return code


def _cannot_write(reason) -> int:
    print(f"littlewood: cannot write the output: {reason}", file=sys.stderr)
    return 1


def _write_json(record) -> None:
    # streamed to stdout; the same bytes as print(json.dumps(record, indent=2))
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _write_csv(records, header=None, to_rows=None) -> None:
    """Stream records as CSV: the given header and rows, or by default the
    record's keys and one row of its values, a list joined by spaces."""
    import csv  # only CSV output needs it

    writer = csv.writer(sys.stdout, quoting=csv.QUOTE_ALL)
    for i, record in enumerate(records):
        if i == 0:
            writer.writerow(header or list(record))
        writer.writerows(to_rows(record) if to_rows else [
            [" ".join(v) if isinstance(v, list) else v for v in record.values()]])
