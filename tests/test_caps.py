"""Every cap in the library raises CapExceeded(quantity, requested, cap).

Each case trips one raise site, either with an input just past a real
cap or with the cap constant lowered, and checks the three attributes
and the message built from them.
"""

import pytest

from zerocohom import brauer, catalog, cohomology, natsys, partial, schur
from zerocohom.abgroups import FinAbGroup
from zerocohom.cohomology import brute_cohomology, cohomology_group, nerve
from zerocohom.errors import CapExceeded
from zerocohom.modules import trivial_module
from zerocohom.natsys import hom_complex_compare, natsys_cohomology, trivial_Z
from zerocohom.semigroups import adjoin

C2 = FinAbGroup([2])
Z = FinAbGroup([0])


def nil_square_c2():
    S = catalog.nil_square_semigroup()
    return S, trivial_module(S, C2)


def coboundary_cells():
    S, M = nil_square_c2()
    rows, cols = len(nerve(S, 2)), len(nerve(S, 1))
    return lambda: cohomology_group(S, M, 1), f"coboundary matrix ({rows}x{cols}) cell count", rows * cols


def brute_degree_cochains():
    S, M = nil_square_c2()
    total = 2 ** len(nerve(S, 1))
    return lambda: brute_cohomology(S, M, 1), "degree-1 cochain count", total


def brute_lower_cochains():
    # a null semigroup has no degree-2 tuples but three degree-1 ones, so
    # only the lower cochains pass a cap of 1
    S = catalog.null_semigroup(3)
    M = trivial_module(S, C2)
    return lambda: brute_cohomology(S, M, 2), "degree-1 cochain count", 2 ** len(nerve(S, 1))


def brute_infinite():
    S = catalog.nil_square_semigroup()
    M = trivial_module(S, Z)
    return lambda: brute_cohomology(S, M, 1), "degree-1 cochain count (infinite coefficients)", None


def natsys_degree():
    S = adjoin(catalog.cyclic_group(1), "zero")
    return lambda: natsys_cohomology(S, trivial_Z(S), 4), "degree", 4


def compare_degree():
    S = adjoin(catalog.cyclic_group(1), "zero")
    return lambda: hom_complex_compare(S, trivial_Z(S), 3), "comparison degree", 3


def bar_degree():
    # B_4 lives on level 6 (T's holds 50,995,008 tuples); on C1^0, whose
    # levels hold one tuple each, the uncapped call would be instant
    S = adjoin(catalog.cyclic_group(1), "zero")
    return lambda: natsys.bar_exactness_report(S, 4), "bar degree", 4


def cohomology_degree():
    S, M = nil_square_c2()
    return lambda: cohomology_group(S, M, 5), "degree", 5


def modifications_found():
    # Z3 has four modifications; the second one found passes a cap of 1
    return lambda: brauer.enumerate_modifications(catalog.cyclic_group(3)), "modifications found", 2


def modifications_lower_bound():
    # Z13: m = 132 cells with xy != e, 132 * 87 / 2 two-cell modifications
    return lambda: brauer.enumerate_modifications(catalog.cyclic_group(13)), "modifications (lower bound)", 5742


def weak_cocycle_candidates():
    # GF(2^4)/GF(2): 3 x 3 free cells, each None or one of 15 exponents
    return lambda: brauer.enumerate_weak_cocycles(2, 4), "weak-cocycle candidate count", 16**9


def t_subsets():
    # Z2 x Z2 has three closed subsets; the second one found passes a cap of 1
    return lambda: partial.enumerate_t_subsets(catalog.cyclic_group(2)), "closed subsets found", 2


def exel_order():
    return lambda: partial.exel_monoid(catalog.cyclic_group(7)), "group order", 7


def schur_order():
    return lambda: schur.schur_multiplier(catalog.cyclic_group(13), C2), "monoid order", 13


def factor_set_assignments():
    # the two-element chain monoid's search tests 14 partial assignments on
    # its empty zero set and 2 on the next, so the count trips a cap of 15 there
    quantity = "factor-set search nodes"
    return lambda: schur.enumerate_factor_sets(catalog.two_chain_monoid(), C2), quantity, 16


def factor_set_infinite():
    quantity = "factor-set search nodes (infinite coefficients)"
    return lambda: schur.enumerate_factor_sets(catalog.cyclic_group(2), Z), quantity, None


# (case, module holding the cap, its constant, value to patch in or None, cap seen)
CASES = [
    (cohomology_degree, cohomology, "DEGREE_CAP", None, 4),
    (coboundary_cells, cohomology, "COBOUNDARY_CELL_CAP", 5, 5),
    (brute_infinite, cohomology, "BRUTE_COCHAIN_CAP", None, 2_000_000),
    (brute_degree_cochains, cohomology, "BRUTE_COCHAIN_CAP", 3, 3),
    (brute_lower_cochains, cohomology, "BRUTE_COCHAIN_CAP", 1, 1),
    (natsys_degree, natsys, "NATSYS_DEGREE_CAP", None, 3),
    (compare_degree, None, None, None, 2),
    (bar_degree, natsys, "NATSYS_DEGREE_CAP", None, 3),
    (modifications_found, brauer, "MODIFICATION_CAP", 1, 1),
    (modifications_lower_bound, brauer, "MODIFICATION_CAP", None, 4096),
    (weak_cocycle_candidates, brauer, "WEAK_COCYCLE_CAP", None, 2_000_000),
    (t_subsets, partial, "T_SUBSET_CAP", 1, 1),
    (exel_order, partial, "EXEL_ORDER_CAP", None, 6),
    (schur_order, schur, "SCHUR_ORDER_CAP", None, 12),
    (factor_set_infinite, schur, "FACTOR_SET_CAP", None, 6_000_000),
    (factor_set_assignments, schur, "FACTOR_SET_CAP", 15, 15),
]


@pytest.mark.parametrize("case, module, constant, patched, cap", CASES, ids=[c[0].__name__ for c in CASES])
def test_cap_reports_quantity_request_and_cap(monkeypatch, case, module, constant, patched, cap):
    if patched is not None:
        monkeypatch.setattr(module, constant, patched)
    elif module is not None:
        assert getattr(module, constant) == cap
    attempt, quantity, requested = case()
    with pytest.raises(CapExceeded) as exc:
        attempt()
    assert (exc.value.quantity, exc.value.requested, exc.value.cap) == (quantity, requested, cap)
    shown = "unbounded" if requested is None else str(requested)
    assert str(exc.value) == f"{quantity} {shown} exceeds cap {cap}"

