"""Exact limiting L^2q norm ratios of Fekete, shifted Fekete, and Galois
polynomials, with the machinery behind them: exact special numbers, piecewise
polynomial algebra over the rationals, set-partition profiles, and exact
integer norms of the actual polynomials at finite sizes.
"""
from littlewood.gf2k import galois, primitive_polynomial
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
from littlewood.partitions import (
    EvenBlockProfile,
    SizeProfile,
    enumerate_set_partitions,
    even_block_profiles,
    even_size_profiles,
    galois_size_profiles,
)
from littlewood.piecewise import (
    MinimizeResult,
    PiecewisePoly,
    eulerian_spline,
    pw_add,
    pw_affine,
    pw_minimize,
    pw_mul,
    pw_restrict,
    pw_scale,
)
from littlewood.polynomials import (
    ConvergenceRow,
    convergence_table,
    fekete,
    legendre,
    norm_2q_exact,
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
    "eulerian_spline",
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
    "pw_add",
    "pw_affine",
    "pw_minimize",
    "pw_mul",
    "pw_restrict",
    "pw_scale",
    "shifted_fekete",
    "shifted_fekete_limit",
    "tangent_numbers",
]
