"""Command-line interface: limits, triangle, phi, and empirical subcommands.

Every command renders either a JSON record (schema "v1", shipped in
littlewood/schema/output.v1.json) or RFC-4180-style CSV.  Exact rationals are
always printed as "num/den" so downstream tools can re-verify without
rounding; decimals carry 12 significant digits.  A handler builds only the
requested format, and JSON is streamed to stdout.  Output is byte-identical
across identical invocations apart from the JSON timing field (CSV carries no
timing).  Malformed usage exits 2 via argparse.  Every other refusal is the
library's: each command calls one library function, which raises ValueError
before any work starts if the request is outside its admission rule, and
`main` prints that message as an error record and exits 1.  The one rule kept
here is which of --p and --k `empirical` was given.
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


def _rat(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _dec(x) -> str:
    return f"{float(x):.12g}"


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
    p_limits.add_argument("--qmax", type=int, required=True)
    _add_format(p_limits)

    p_tri = sub.add_parser("triangle", help="triangular integer arrays per family")
    p_tri.add_argument("--family", choices=("fekete", "galois"), required=True)
    p_tri.add_argument("--rows", type=int, required=True)
    _add_format(p_tri)

    p_phi = sub.add_parser("phi", help="shift-ratio limit functions")
    p_phi.add_argument("--q", type=int, required=True)
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
    _add_format(p_emp)

    return parser


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _cmd_limits(args):
    table = limits_mod.limit_table(args.family, args.qmax)
    params = {"family": args.family, "qmax": args.qmax, "format": args.format}
    entries = sorted(table.entries.items())
    if args.format == "json":
        return params, [
            {"q": q, "limit": _rat(v), "limit_decimal": _dec(v)} for q, v in entries
        ]
    return params, (["q", "limit", "limit_decimal"],
                    ([q, _rat(v), _dec(v)] for q, v in entries))


def _cmd_triangle(args):
    table = limits_mod.triangle_table(args.family, args.rows)
    params = {"family": args.family, "rows": args.rows, "format": args.format}
    if args.format == "json":
        return params, [{"k": row.k, "values": [str(v) for v in row.values]}
                        for row in table]
    return params, (["k", "m", "value"],
                    ([row.k, m, str(v)] for row in table
                     for m, v in enumerate(row.values, start=1)))


def _cmd_phi(args):
    q = args.q
    json_out = args.format == "json"
    if args.eval_at is not None:
        value = limits_mod.shifted_fekete_limit(q, args.eval_at)
        params = {"q": q, "eval": _rat(args.eval_at), "format": args.format}
        r, v, v_dec = _rat(args.eval_at), _rat(value), _dec(value)
        if json_out:
            return params, [{"q": q, "r": r, "value": v, "value_decimal": v_dec}]
        return params, (["q", "r", "value", "value_decimal"], [[q, r, v, v_dec]])

    if args.minimize:
        res = limits_mod.phi_min(q, args.eps)
        params = {"q": q, "min": True, "eps": _rat(args.eps), "format": args.format}
        a_lo, a_hi, v_lo, v_hi = (_rat(x) for x in (*res.argmin, *res.value))
        if json_out:
            return params, [{
                "q": q,
                "argmin_lo": a_lo,
                "argmin_hi": a_hi,
                "min_lo": v_lo,
                "min_hi": v_hi,
                "min_decimal": _dec(res.value[1]),
                "alt_flag": res.alt_flag,
            }]
        header = ["q", "argmin_lo", "argmin_hi", "min_lo", "min_hi", "alt_flag"]
        return params, (header, [[q, a_lo, a_hi, v_lo, v_hi,
                                  "true" if res.alt_flag else "false"]])

    f = limits_mod.phi_piecewise(q)
    params = {"q": q, "pieces": True, "format": args.format}
    pieces = (
        (i, _rat(f.breakpoints[i]), _rat(f.breakpoints[i + 1]), [_rat(c) for c in piece])
        for i, piece in enumerate(f.pieces)
    )
    if json_out:
        return params, [{"piece": i, "lo": lo, "hi": hi, "coefficients": coeffs}
                        for i, lo, hi, coeffs in pieces]
    return params, (["piece", "lo", "hi", "coefficients"],
                    ([i, lo, hi, " ".join(coeffs)] for i, lo, hi, coeffs in pieces))


def _cmd_empirical(args):
    # only this command needs the polynomial builders and the norm engine
    from littlewood import polynomials as poly_mod

    family, q = args.family, args.q
    if family in ("fekete", "shifted"):
        if not args.p:
            raise ValueError(f"family {family} requires at least one --p")
        if args.k:
            raise ValueError(f"family {family} takes --p, not --k")
        sizes = args.p
    else:
        if not args.k:
            raise ValueError("family galois requires at least one --k")
        if args.p:
            raise ValueError("family galois takes --k, not --p")
        sizes = args.k
    shift, shift_ratio = args.shift, args.shift_ratio
    table = poly_mod.convergence_table(
        family, q, sizes, shift=shift, shift_ratio=shift_ratio
    )
    params = {"family": family, "q": q, "sizes": sizes, "format": args.format}
    if shift is not None:
        params["shift"] = shift
    if shift_ratio is not None:
        params["shift_ratio"] = _rat(shift_ratio)
    if args.format == "json":
        return params, [
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
    rows = (
        [row.n, str(row.exact_norm), str(row.ratio.numerator),
         str(row.ratio.denominator), str(row.limit.numerator),
         str(row.limit.denominator), _dec(row.rel_err)]
        for row in table
    )
    return params, (header, rows)


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
        params, body = _HANDLERS[args.command](args)
    except ValueError as exc:
        _write_json({"schema": SCHEMA_VERSION, "command": args.command, "error": str(exc)})
        return 1
    elapsed = time.perf_counter() - started
    if args.format == "json":
        _write_json({
            "schema": SCHEMA_VERSION,
            "command": args.command,
            "parameters": params,
            "results": body,
            "timing": {"seconds": elapsed},
        })
    else:
        writer = csv.writer(sys.stdout, quoting=csv.QUOTE_ALL)
        header, rows = body
        writer.writerow(header)
        writer.writerows(rows)
    return 0


def _write_json(record) -> None:
    # streamed to stdout; the same bytes as print(json.dumps(record, indent=2))
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    sys.exit(main())
