"""Exact limiting L^2q norm ratios of Fekete, shifted Fekete, and Galois
polynomials, with the machinery behind them: exact special numbers, exact
piecewise polynomials with certified minimization, set-partition profiles,
and exact integer norms of the actual polynomials at finite sizes.

The limit recursions and the special numbers are imported with the package.
Every other name (partition profiles, piecewise polynomials, the Galois
polynomials, polynomial construction and exact norms) is imported on first
access, so the `limits`, `triangle`, `phi --eval` and `empirical` commands
skip the piecewise, profile and root modules, and no command loads the
profile module.  Nothing here imports numpy; only the
quadrature oracle `norm_2q_quadrature` loads it, when called.
"""
from importlib import import_module

from littlewood.limits import (
    LimitTable,
    PhiMinResult,
    TriangleRow,
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
)
from littlewood.special_numbers import (
    carlitz_numbers,
    composition_count,
    eulerian_general,
    eulerian_polynomial,
    tangent_numbers,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceRow",
    "EvenBlockProfile",
    "LimitTable",
    "MinimizeResult",
    "PhiMinResult",
    "PiecewisePoly",
    "SizeProfile",
    "TriangleRow",
    "carlitz_numbers",
    "composition_count",
    "convergence_table",
    "enumerate_set_partitions",
    "eulerian_general",
    "eulerian_polynomial",
    "even_block_profiles",
    "even_size_profiles",
    "fekete",
    "fekete_limit_direct",
    "fekete_limit_recursive",
    "fekete_triangle_row",
    "galois",
    "galois_limit_direct",
    "galois_limit_recursive",
    "galois_size_profiles",
    "galois_triangle_row",
    "legendre",
    "limit_table",
    "norm_2q_exact",
    "norm_2q_quadrature",
    "phi_min",
    "phi_piecewise",
    "primitive_polynomial",
    "pw_minimize",
    "shifted_fekete",
    "shifted_fekete_limit",
    "tangent_numbers",
]

# name -> module that defines it; resolved by __getattr__ below (PEP 562)
_LAZY = {
    "EvenBlockProfile": "partitions",
    "SizeProfile": "partitions",
    "enumerate_set_partitions": "partitions",
    "even_block_profiles": "partitions",
    "even_size_profiles": "partitions",
    "galois_size_profiles": "partitions",
    "MinimizeResult": "piecewise",
    "PiecewisePoly": "piecewise",
    "pw_minimize": "piecewise",
    "galois": "gf2k",
    "primitive_polynomial": "gf2k",
    "ConvergenceRow": "polynomials",
    "convergence_table": "polynomials",
    "fekete": "polynomials",
    "legendre": "polynomials",
    "norm_2q_exact": "polynomials",
    "norm_2q_quadrature": "polynomials",
    "shifted_fekete": "polynomials",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f"littlewood.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
