"""Exact arithmetic in the monoid of integrally closed monomial ideals,
Newton polyhedra, and the 2D integral polytope group.

The public names are resolved on first use (PEP 562): `import icm` loads
no submodule, and `icm.star` or `from icm import star` loads only
`icm.monoid` and the modules it imports.  The submodules themselves
(`icm.newton`, `icm.cli`, ...) are attributes too, loaded the same way.
So a process, a CLI command above all, pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("BudgetExceededError", "DimensionMismatchError",
               "IdealParseError", "NotIntegrallyClosedError",
               "NotStarMultipleError", "SearchBudget"),
    "ideals": ("MonomialIdeal", "colon", "contains", "intersection",
               "minimalize", "normalize_translation", "ord_valuation",
               "principal_ideal", "product", "translate", "unit_ideal"),
    "newton": ("NewtonPolyhedron", "integral_closure", "is_integrally_closed",
               "member", "mink_sum", "np_equal", "np_of", "reduce_points",
               "vertices"),
    "monoid": ("Factorization", "all_factorizations", "divides",
               "factor_atoms", "is_star_irreducible", "quotient_cancel",
               "star", "star_power"),
    "polytopes": ("BasisElement", "ColonFactorization", "IdealClassElement",
                  "IntegralPolytope", "PolytopeGroupElement", "basis_segment",
                  "basis_triangle", "class_equal", "class_equal_ideal",
                  "colon_factorization_2d", "decompose_2d",
                  "edge_vector_counts", "group_add", "group_element",
                  "group_negate", "height", "hull", "ideal_class",
                  "ideal_to_polytope", "p_mink_sum", "phi", "phi_group",
                  "shadow"),
    "parsing": ("parse_ideal", "render_ideal"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "feasibility", "properties", "cli")

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
