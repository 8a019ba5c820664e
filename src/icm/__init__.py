"""Exact arithmetic in the monoid of integrally closed monomial ideals,
Newton polyhedra, and the 2D integral polytope group."""

from .errors import (BudgetExceededError, DimensionMismatchError,
                     IdealParseError, NotIntegrallyClosedError,
                     NotStarMultipleError)
from .ideals import (MonomialIdeal, colon, contains, intersection, minimalize,
                     normalize_translation, ord_valuation, principal_ideal,
                     product, translate, unit_ideal)
from .newton import (NewtonPolyhedron, integral_closure, is_integrally_closed,
                     member, mink_sum, np_equal, np_of, reduce_points,
                     vertices)
from .monoid import (Factorization, SearchBudget, all_factorizations, divides,
                     factor_atoms, is_star_irreducible, quotient_cancel, star,
                     star_power)
from .polytopes import (BasisElement, ColonFactorization, IdealClassElement,
                        IntegralPolytope, PolytopeGroupElement, basis_segment,
                        basis_triangle, class_equal, class_equal_ideal,
                        colon_factorization_2d, decompose_2d,
                        edge_vector_counts, group_add, group_element,
                        group_negate, height, hull, ideal_class,
                        ideal_to_polytope, p_mink_sum, phi, phi_group, shadow)
from .parsing import parse_ideal, render_ideal

__version__ = "0.1.0"
