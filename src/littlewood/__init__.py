"""Exact limiting L^2q norm ratios of Fekete, shifted Fekete, and Galois
polynomials, with the machinery behind them: exact special numbers, exact
piecewise polynomials with certified minimization, set-partition profiles,
and exact integer norms of the actual polynomials at finite sizes.

Every public name, and every module in `_EXPORTS`, is imported on first
access (PEP 562), so a bare `import littlewood` loads no submodule and each
command loads only the modules it runs.  Nothing here imports numpy; only
the quadrature oracle `norm_2q_quadrature` loads it, when called.

The rules every module shares live here: `_check_int` for an integer
argument, `_check_rational` for a rational one, and `_check_digits` for an
exact integer that must print within the int/str conversion limit.
"""
import sys
from fractions import Fraction
from importlib import import_module
from math import isfinite

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "gf2k": ("galois", "primitive_polynomial"),
    "intconv": ("norm_2q_exact",),
    "limits": (
        "fekete_limit_direct", "fekete_limit_recursive", "fekete_triangle_row",
        "galois_limit_direct", "galois_limit_recursive", "galois_triangle_row",
        "limit_table", "phi_min", "phi_piecewise", "shifted_fekete_limit",
        "triangle_table",
    ),
    "partitions": (
        "enumerate_set_partitions", "even_block_profiles", "even_size_profiles",
        "galois_size_profiles",
    ),
    "piecewise": ("MinimizeResult", "PiecewisePoly", "pw_minimize"),
    "polynomials": (
        "ConvergenceRow", "convergence_table", "fekete", "legendre",
        "norm_2q_quadrature", "shifted_fekete",
    ),
    "special_numbers": (
        "carlitz_numbers", "composition_count", "eulerian_general",
        "eulerian_polynomial", "tangent_numbers",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _digit_limit() -> int:
    """L, the digits an exact rule lets an integer parse or print with: the running
    int/str limit (`sys.get_int_max_str_digits()`), or CPython's default of 4300
    when that is 0 (off) or above 4300, past which int() and str() are quadratic."""
    return min(sys.get_int_max_str_digits() or sys.maxsize, sys.int_info.default_max_str_digits)


def _check_int(name: str, n, lo: int | None = None, hi: int | None = None) -> None:
    """Raise ValueError unless n is an int with lo <= n <= hi, either bound optional: the
    one integer rule, with the one message "{name} {n!r} out of range {lo}..{hi}" (a bound
    left out is blank).  An int of over 3L bits, L = `_digit_limit()`, may have more
    digits than repr() may print, so it is named "{name} of {bits} bits" instead."""
    if not isinstance(n, int) or lo is not None and n < lo or hi is not None and n > hi:
        big = isinstance(n, int) and n.bit_length() > 3 * _digit_limit()
        shown = f"of {n.bit_length()} bits" if big else repr(n)
        bounds = "..".join("" if b is None else str(b) for b in (lo, hi))
        raise ValueError(f"{name} {shown} out of range {bounds}")


def _check_rational(name: str, x) -> Fraction:
    """x as a Fraction, by the one rational rule: an int, a Fraction, a finite float, or a
    str that Fraction reads with a nonzero denominator and no exponent ("3", "-1/4",
    "0.125"); Fraction would expand an exponent in full before any cost rule could
    refuse it.  Anything else raises ValueError "{name} {x!r} is not an exact rational
    (...)", the parenthesis naming the admitted forms.  A str of over 2L + 2 characters,
    L = `_digit_limit()` (two L-digit numerals, a sign and a slash), is refused before
    Fraction reads it, and named "{name} of {len} characters" instead."""
    too_long = isinstance(x, str) and len(x) > 2 * _digit_limit() + 2
    if (isinstance(x, (int, Fraction)) or isinstance(x, float) and isfinite(x)
            or isinstance(x, str) and not too_long and "e" not in x.lower()):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    shown = f"of {len(x)} characters" if too_long else repr(x)
    raise ValueError(f"{name} {shown} is not an exact rational (int, Fraction, finite float, "
                     "or str n/d or decimal without exponent)")


def _check_digits(what: str, low_bits: int, value) -> int:
    """value() if it is below 10^L, L = `_digit_limit()`: the one printed-size rule.
    2^low_bits must be a lower bound on value(); from low_bits >= 4L, as 2^(4L) > 10^L,
    the rule refuses without calling value, so a number too big to print is never
    built, and a value of at most 3L bits, as 2^(3L) < 10^L, is admitted without
    building 10^L.  A refusal raises ValueError "{what} may have more than {L}
    digits, the int/str conversion limit"."""
    limit = _digit_limit()
    if low_bits < 4 * limit:
        v = value()
        if v.bit_length() <= 3 * limit or v < 10**limit:
            return v
    raise ValueError(f"{what} may have more than {limit} digits, the int/str conversion limit")
