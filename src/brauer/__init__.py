"""Residues of n-torsion Brauer classes over rational function fields.

Exact arithmetic over F_q and F_q(t), cyclic symbol algebras with their
tame residues, an independent Cech-cocycle residue route through the n-th
root cover, finite-group cochain cohomology (edge maps, extension factor
sets), and the n = 2 conic-bundle picture where residues appear as
component torsors of degenerate fibers.
"""

from .cohomology import (Cochain, FiniteAbelianGroup, FormalUnit,
                         TableSizeError, coboundary, cohomology_rank,
                         cocycles_cohomologous, cup_product_boxtimes,
                         epsilon_cocycle, extension_factor_set,
                         identity_character, is_cocycle, lhs_edge_map,
                         verify_coboundary_identity)
from .conic import (ConicBundle, ConicModelError, check_artin,
                    component_torsor, count_fiber_points, degenerate_places)
from .finitefield import (FieldElement, FiniteField, ResidueClass, corestrict,
                          power_residue_character)
from .parsing import (ParseError, parse_place, parse_poly, parse_ratfunc,
                      parse_symbol_sum)
from .poly import Poly
from .ratfunc import Place, RatFunc, degree_one_place, reduce_at, support, \
    valuation
from .residues import (RamificationDivisor, SymbolClass,
                       ramification_divisor, reciprocity_sum,
                       residue_cocycle_route, tame_residue)
from .snf import smith_normal_form

__version__ = "0.1.0"

__all__ = [
    "Cochain", "ConicBundle", "ConicModelError", "FieldElement",
    "FiniteAbelianGroup", "FiniteField", "FormalUnit", "ParseError", "Place",
    "Poly", "RamificationDivisor", "RatFunc", "ResidueClass", "SymbolClass",
    "TableSizeError", "check_artin", "coboundary", "cocycles_cohomologous",
    "cohomology_rank", "component_torsor", "corestrict", "count_fiber_points",
    "cup_product_boxtimes", "degenerate_places", "degree_one_place",
    "epsilon_cocycle", "extension_factor_set", "identity_character",
    "is_cocycle", "lhs_edge_map", "parse_place", "parse_poly",
    "parse_ratfunc", "parse_symbol_sum", "power_residue_character",
    "ramification_divisor", "reciprocity_sum", "reduce_at",
    "residue_cocycle_route", "smith_normal_form", "support", "tame_residue",
    "valuation", "verify_coboundary_identity",
]
