from itertools import product

import pytest

from zerocohom import brauer, catalog
from zerocohom.abgroups import GroupHom, QuotientPresentation
from zerocohom.brauer import (
    WeakCocycle,
    brauer_class_count_bridge,
    brauer_monoid,
    crossed_product_associative,
    enumerate_modifications,
    enumerate_weak_cocycles,
    galois_group,
    idempotent_from_modification,
    idempotent_weak_cocycle,
    modification_from_idempotent,
    modification_structure,
    validate_weak_cocycle,
    weak_cocycle_to_zero_cocycle,
    weak_cocycles_equivalent,
    zero_cocycle_to_weak_cocycle,
)
from zerocohom.cohomology import brute_cohomology, cohomology_group
from zerocohom.errors import AssociativityError, CapExceeded, CertificateError, InvalidFactorSet, ZerocohomError
from zerocohom.modules import galois_units_module
from zerocohom.semigroups import is_group, subsemigroup, validate_table


def all_one_cocycle(q, n):
    G = galois_group(n)
    values = {(s, t): 0 for s in range(n) for t in range(n)}
    return WeakCocycle(G, q, n, values)


def test_trivial_weak_cocycle_valid():
    for q, n in ((2, 2), (3, 2), (2, 3)):
        f = all_one_cocycle(q, n)
        assert validate_weak_cocycle(f) is None
        assert crossed_product_associative(f)


def test_normalization_violation():
    G = galois_group(2)
    values = {(s, t): 0 for s in range(2) for t in range(2)}
    values[(0, 1)] = None
    f = WeakCocycle(G, 2, 2, values)
    v = validate_weak_cocycle(f)
    assert v is not None and v[0] == "normalization"


def test_identity_agrees_with_structure_constants():
    # the corrected cocycle identity is exactly basis associativity
    import itertools

    G = galois_group(2)
    for vals in itertools.product([None, 0, 1, 2], repeat=1):
        values = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): vals[0]}
        f = WeakCocycle(G, 2, 2, values)
        assert (validate_weak_cocycle(f) is None) == crossed_product_associative(f)


def test_idempotent_cocycles_are_valid():
    G = galois_group(2)
    for mod in enumerate_modifications(G):
        f = idempotent_from_modification(mod, 2)
        assert validate_weak_cocycle(f) is None


def test_modification_round_trip():
    G = galois_group(2)
    for mod in enumerate_modifications(G):
        f = idempotent_from_modification(mod, 2)
        assert modification_from_idempotent(f).pattern == mod.pattern


def test_modification_from_idempotent_refuses_an_invalid_weak_cocycle():
    G = galois_group(2)
    values = {(s, t): 0 for s in range(2) for t in range(2)}
    values[(0, 1)] = None
    f = WeakCocycle(G, 2, 2, values)
    with pytest.raises(ZerocohomError, match="normalization") as exc:
        modification_from_idempotent(f)
    assert isinstance(exc.value, InvalidFactorSet)
    assert exc.value.witness == validate_weak_cocycle(f)[1] == 1


def test_modification_from_trivial_idempotent():
    G = galois_group(3)
    f = idempotent_weak_cocycle(G, 2, 3, frozenset())
    mod = modification_from_idempotent(f)
    S = mod.semigroup
    assert S.order == 4 and S.has_zero
    # G^0: products of nonzero elements never vanish
    for x in range(3):
        for y in range(3):
            assert S.mul(x, y) != S.zero


def test_enumerate_modifications_z2():
    G = galois_group(2)
    mods = enumerate_modifications(G)
    assert len(mods) == 2
    patterns = {m.pattern for m in mods}
    assert frozenset() in patterns
    assert frozenset({(1, 1)}) in patterns
    # g o g = 0 is associative
    m = [x for x in mods if x.pattern][0]
    S = m.semigroup
    assert S.mul(1, 1) == S.zero


@pytest.mark.parametrize("name, count", [("Z2", 2), ("Z3", 4), ("Z4", 14), ("V4", 14)])
def test_enumerate_modifications_matches_a_scan_of_every_zero_pattern(name, count):
    # independent of the search: every subset of the free cells, kept when
    # its table passes validate_table
    G = catalog.named_group(name)
    n, e = G.order, G.identity
    free = [(x, y) for x in range(n) for y in range(n) if x != e and y != e]
    scanned = []
    for bits in product((False, True), repeat=len(free)):
        pattern = frozenset(c for c, zero in zip(free, bits) if zero)
        table = [[n if (x, y) in pattern else G.mul(x, y) for y in range(n)] + [n] for x in range(n)]
        try:
            validate_table([str(i) for i in range(n + 1)], table + [[n] * (n + 1)], n)
        except AssociativityError:
            continue
        scanned.append(pattern)
    assert len(scanned) == count
    found = [m.pattern for m in enumerate_modifications(G)]
    assert found == sorted(scanned, key=lambda p: (len(p), sorted(p)))


def test_two_cell_modifications_meet_the_refusal_bound():
    # enumerate_modifications refuses G up front when m(m - 1 - 4(n - 2))/2,
    # m = (n - 1)(n - 2), exceeds the cap: a lower bound on the modifications
    # with exactly two nonzero free cells, which Z6 and S3 must meet
    for G in (galois_group(6), catalog.named_group("S3")):
        n = G.order
        m = (n - 1) * (n - 2)
        two = [mod for mod in enumerate_modifications(G) if len(mod.pattern) == (n - 1) ** 2 - 2]
        assert len(two) >= m * (m - 1 - 4 * (n - 2)) // 2 > 0


def test_modification_structure_theorems():
    # units form a subgroup, complement is a nilpotent ideal,
    # and every modification is 0-cancellative
    for G in catalog.groups_of_order_up_to(6):
        for mod in enumerate_modifications(G):
            units, non_units, nil_class, zero_canc = modification_structure(mod)
            assert zero_canc is True
            assert nil_class is not None
            H, _ = subsemigroup(mod.semigroup, units)
            assert is_group(H)
            assert len(units) + len(non_units) + 1 == mod.semigroup.order


def test_brauer_monoid_gf4():
    sl = brauer_monoid(2, 2)
    assert len(sl.indices) == 2
    for k in sl.indices:
        assert sl.components[k].is_trivial()


def test_brauer_components_match_brute_cochain_oracle():
    # direct 2-cochain computation over both modifications of Z/2
    G = galois_group(2)
    for mod in enumerate_modifications(G):
        M = galois_units_module(2, 2, mod.semigroup, {0: 0, 1: 1})
        fast = cohomology_group(mod.semigroup, M, 2, "zero").group.invariants()
        slow = brute_cohomology(mod.semigroup, M, 2, "zero").invariants()
        assert fast == slow == ()


def test_trivial_modification_component_is_group_cohomology():
    # e == 1 component: H^2(G, units) via the adjoined-zero bridge
    for q, n in ((2, 2), (3, 2), (2, 3)):
        sl = brauer_monoid(q, n)
        triv = frozenset()
        G0_component = sl.components[triv]
        # compare against H^2 of the group with the twisted action, via em
        G = galois_group(n)
        M = galois_units_module(q, n, G, {i: i for i in range(n)})
        H = cohomology_group(G, M, 2, "em").group
        assert G0_component.invariants() == H.invariants()
        # finite fields have trivial Brauer groups
        assert G0_component.is_trivial()


def test_weak_cocycle_enumeration_gf4():
    cocycles = enumerate_weak_cocycles(2, 2)
    # free cell f(g,g) must be 0 or 1 (exponent 0)
    assert len(cocycles) == 2
    patterns = {frozenset(p for p, v in f.values.items() if v is None) for f in cocycles}
    assert patterns == {frozenset(), frozenset({(1, 1)})}


def test_bridge_bijection_gf4_and_gf9():
    for q, n in ((2, 2), (3, 2)):
        out = brauer_class_count_bridge(q, n)
        assert len(out) == 2
        for pattern, (classes, horder) in out.items():
            assert classes == horder, (q, n, pattern)


def test_cocycle_bridge_round_trip():
    for f in enumerate_weak_cocycles(2, 2):
        mod, coch = weak_cocycle_to_zero_cocycle(f)
        g = zero_cocycle_to_weak_cocycle(mod, 2, coch)
        assert g == f


def test_bridge_certificate_survives_optimize(run_python):
    # under python -O: a 0-cochain whose extension by zeros is not normalized
    # must still raise CertificateError, so the check cannot rest on an assert
    script = """
from zerocohom.brauer import enumerate_weak_cocycles, weak_cocycle_to_zero_cocycle, zero_cocycle_to_weak_cocycle
from zerocohom.errors import CertificateError

f = enumerate_weak_cocycles(2, 2)[0]
mod, coch = weak_cocycle_to_zero_cocycle(f)
e = f.group.identity
coch.values[(e, e)] = (1,)
try:
    zero_cocycle_to_weak_cocycle(mod, 2, coch)
except CertificateError as exc:
    print("CertificateError", exc.witness)
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "CertificateError ('normalization', 0)"


def test_equivalence_exhaustive_pairs_gf4():
    # equivalence of weak cocycles iff 0-cohomologous restrictions
    cocycles = enumerate_weak_cocycles(2, 2)
    from zerocohom.cohomology import witness_report
    from zerocohom.modules import galois_units_module

    for f in cocycles:
        for g in cocycles:
            equiv = weak_cocycles_equivalent(f, g)
            zf = {p for p, v in f.values.items() if v is None}
            zg = {p for p, v in g.values.items() if v is None}
            if zf != zg:
                assert not equiv
                continue
            mod, cf = weak_cocycle_to_zero_cocycle(f)
            _, cg = weak_cocycle_to_zero_cocycle(g)
            M = galois_units_module(2, 2, mod.semigroup, {0: 0, 1: 1})
            diff_vals = {
                t: M.group.add(cf.values[t], M.group.neg(cg.values[t])) for t in cf.values
            }
            from zerocohom.cohomology import Cochain

            rep = witness_report(mod.semigroup, M, Cochain(2, diff_vals), "zero")
            assert rep["is_coboundary"] == equiv


def test_idempotent_skeleton_is_meet_semilattice():
    sl = brauer_monoid(2, 2)
    for k1 in sl.indices:
        for k2 in sl.indices:
            assert k1 | k2 in sl.indices
    # ordered by support inclusion: pattern union = meet of supports
    low, high = frozenset(), frozenset({(1, 1)})
    assert low | high == high and high in sl.indices
    # (2, 4) has one nontrivial component, C3, so its one stored link is
    # that component's identity
    sl = brauer_monoid(2, 4)
    (c3,) = [k for k in sl.indices if sl.components[k].rank]
    assert sl.components[c3].invariants() == (3,)
    assert list(sl.links) == [(c3, c3)]
    assert sl.links[(c3, c3)].equals(GroupHom.identity(sl.components[c3]))


def test_zero_patterns_not_closed_under_union_raise_a_certificate_error(monkeypatch):
    mods = enumerate_modifications(galois_group(3))
    keys = [m.pattern for m in mods]
    dropped = next(
        p for p in keys if any(a | b == p for a in keys for b in keys if p not in (a, b))
    )
    kept = [m for m in mods if m.pattern != dropped]
    monkeypatch.setattr(brauer, "enumerate_modifications", lambda G: kept)
    with pytest.raises(CertificateError) as exc:
        brauer_monoid(2, 3)
    k1, k2 = exc.value.witness
    assert k1 | k2 == dropped
    assert "zero patterns not closed under union" in str(exc.value)


def test_brauer_restriction_that_is_not_a_cocycle_raises_a_certificate_error(monkeypatch):
    # (2, 4) has a C3 component, so some link restricts a witness
    monkeypatch.setattr(QuotientPresentation, "coords", lambda self, v: None)
    with pytest.raises(CertificateError) as exc:
        brauer_monoid(2, 4)
    assert exc.value.witness == 0
    assert "restriction of a cocycle is not a cocycle" in str(exc.value)


def test_brauer_link_not_well_defined_raises_a_certificate_error(monkeypatch):
    # the one link built for (2, 4) is the identity of its C3 component
    c3 = next(k for k, H in brauer_monoid(2, 4).components.items() if H.rank)
    monkeypatch.setattr(GroupHom, "well_defined", lambda self: False)
    with pytest.raises(CertificateError) as exc:
        brauer_monoid(2, 4)
    assert exc.value.witness == (c3, c3)


def test_brauer_monoid_refuses_by_the_bound_before_building_the_group(monkeypatch):
    def no_table(n):
        raise AssertionError("galois_group built before the modification bound")

    monkeypatch.setattr(brauer, "galois_group", no_table)
    with pytest.raises(CapExceeded) as exc:
        brauer_monoid(2, 40)
    assert (exc.value.quantity, exc.value.requested) == ("modifications (lower bound)", 984789)
