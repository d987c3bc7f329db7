"""Exact limiting L^2q norm ratios of Fekete, shifted Fekete, and Galois
polynomials, with the machinery behind them: exact special numbers, exact
piecewise polynomials with certified minimization, set-partition profiles,
and exact integer norms of the actual polynomials at finite sizes.

Every public name, and every module in `_EXPORTS`, is imported on first
access (PEP 562), so a bare `import littlewood` loads no submodule and each
command loads only the modules it runs.  Nothing here imports numpy; only
the quadrature oracle `norm_2q_quadrature` loads it, when called.
"""
from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "gf2k": ("galois", "primitive_polynomial"),
    "limits": (
        "LimitTable", "PhiMinResult", "TriangleRow", "fekete_limit_direct",
        "fekete_limit_recursive", "fekete_triangle_row", "galois_limit_direct",
        "galois_limit_recursive", "galois_triangle_row", "limit_table",
        "phi_min", "phi_piecewise", "shifted_fekete_limit", "triangle_table",
    ),
    "partitions": (
        "EvenBlockProfile", "SizeProfile", "enumerate_set_partitions",
        "even_block_profiles", "even_size_profiles", "galois_size_profiles",
    ),
    "piecewise": ("MinimizeResult", "PiecewisePoly", "pw_minimize"),
    "polynomials": (
        "ConvergenceRow", "convergence_table", "fekete", "legendre",
        "norm_2q_exact", "norm_2q_quadrature", "shifted_fekete",
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
