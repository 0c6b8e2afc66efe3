"""0-cohomology workbench for finite semigroups with zero.

Cochains live only on tuples whose product is nonzero, so the degree-2
groups classify projective-representation factor sets, Brauer-monoid
components, and partial factor sets of groups; brute-force twins verify
every computation at desk scale.
"""

__version__ = "0.1.0"

from .abgroups import FinAbGroup, GroupHom, IntMatrix, complex_homology, smith_normal_form
from .cohomology import brute_cohomology, coboundary, cohomology_group, nerve, witness_report
from .modules import (
    ZeroModule,
    corner_module,
    galois_units_module,
    trivial_module,
    validate_module,
)
from .presentations import (
    Presentation,
    enumerate_presentation,
    gown_presentation,
    gown_sequences,
    parse_presentation,
)
from .semigroups import (
    Semigroup,
    adjoin,
    c0s_decompose,
    ideals,
    opposite,
    predicates,
    rees_matrix_semigroup,
    rees_quotient,
    validate_table,
    zero_direct_union,
)

__all__ = [
    "FinAbGroup",
    "GroupHom",
    "IntMatrix",
    "Semigroup",
    "Presentation",
    "ZeroModule",
    "adjoin",
    "brute_cohomology",
    "c0s_decompose",
    "coboundary",
    "cohomology_group",
    "complex_homology",
    "corner_module",
    "enumerate_presentation",
    "galois_units_module",
    "gown_presentation",
    "gown_sequences",
    "ideals",
    "nerve",
    "opposite",
    "parse_presentation",
    "predicates",
    "rees_matrix_semigroup",
    "rees_quotient",
    "smith_normal_form",
    "trivial_module",
    "validate_module",
    "validate_table",
    "witness_report",
    "zero_direct_union",
]
