import os
import random
import subprocess
import sys

import pytest

from zerocohom import catalog
from zerocohom.abgroups import FinAbGroup
from zerocohom.errors import UncertifiedInput
from zerocohom.partial import (
    PFactorSet,
    build_t_semigroup,
    cohomological_eq_check,
    enumerate_t_subsets,
    exel_matches_presentation,
    exel_monoid,
    idempotent_pfactor,
    induced_hom,
    is_idempotent_pfactor,
    partial_hom_violations,
    pfactor_inverse,
    pfactor_product,
    sigma_from_rho,
    t_action_relation_report,
    t_closure,
)
from zerocohom.schur import FactorSet, enumerate_factor_sets
from zerocohom.semigroups import ReesDecomposition, sandwich_equivalent


def test_build_t_semigroup_constants():
    data = build_t_semigroup()
    S = data.semigroup
    assert S.order == 25
    assert len(data.unit_indices) == 6
    assert len(data.ideal_indices) == 19
    dec = data.decomposition
    assert dec.group.order == 2 and (dec.rows, dec.cols) == (3, 3)
    Z2 = catalog.cyclic_group(2)
    # zero pattern: one zero per row and per column (permutation pattern)
    for row in dec.sandwich:
        assert sum(1 for x in row if x is None) == 1
    for j in range(3):
        assert sum(1 for row in dec.sandwich if row[j] is None) == 1
    # full scalar equivalence holds for the corrected matrix (one entry is
    # the nontrivial unit), not for the all-ones refinement
    corrected = ReesDecomposition(Z2, 3, 3, ((0, 0, None), (0, None, 1), (None, 0, 0)))
    displayed = ReesDecomposition(Z2, 3, 3, ((0, 0, None), (0, None, 0), (None, 0, 0)))
    assert sandwich_equivalent(dec, corrected)
    assert not sandwich_equivalent(dec, displayed)


def test_t_structure_certificate_survives_optimize():
    # under python -O: a complement that is not completely 0-simple must
    # still be refused with a typed error, so the check cannot rest on an assert
    script = """
from zerocohom import partial
from zerocohom.errors import CertificateError

partial.c0s_decompose = lambda U: None
try:
    partial.build_t_semigroup()
except CertificateError as exc:
    print("CertificateError", len(exc.witness), exc)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("CertificateError 19 ideal is not completely 0-simple"), proc.stdout


def test_t_action_satisfies_relations():
    for G in (catalog.cyclic_group(2), catalog.cyclic_group(3), catalog.symmetric_group_3()):
        rep = t_action_relation_report(G)
        assert all(rep.values()), rep


def test_t_closure_z2():
    G = catalog.cyclic_group(2)
    g = 1
    # a single off-diagonal pair pulls in everything
    assert t_closure(G, {(g, g)}) == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert t_closure(G, set()) == frozenset()
    e = G.identity
    assert t_closure(G, {(e, e)}) == frozenset({(e, e)})


def test_enumerate_t_subsets_z2():
    G = catalog.cyclic_group(2)
    subsets = enumerate_t_subsets(G)
    assert len(subsets) == 3
    assert frozenset() in subsets
    assert frozenset({(0, 0)}) in subsets
    assert frozenset((x, y) for x in range(2) for y in range(2)) in subsets
    # exhaustive oracle over all 16 subsets
    brute = []
    pairs = [(x, y) for x in range(2) for y in range(2)]
    for bits in range(16):
        sub = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        if t_closure(G, sub) == sub:
            brute.append(sub)
    assert sorted(map(sorted, subsets)) == sorted(map(sorted, brute))


def test_t_subsets_closed_under_intersection():
    for G in (catalog.cyclic_group(3), catalog.klein_four()):
        subsets = set(enumerate_t_subsets(G))
        for a in subsets:
            for b in subsets:
                assert a & b in subsets


def test_t_subsets_match_closure_definition():
    for G in (catalog.cyclic_group(2), catalog.cyclic_group(3), catalog.klein_four()):
        for X in enumerate_t_subsets(G):
            assert t_closure(G, X) == X


def order8_blocked_sigma():
    """Indicator of the complement of (H-1)x(H-1) minus the diagonal,
    H = the subgroup generated by b, c in the elementary group of order 8."""
    G = catalog.elementary_abelian_8()
    H = {G.index(n) for n in ("1", "b", "c", "bc")}
    one = G.identity
    F = {
        (x, y)
        for x in H - {one}
        for y in H - {one}
        if x != y
    }
    values = {}
    for x in range(8):
        for y in range(8):
            values[(x, y)] = None if (x, y) in F else ()
    return G, values, F


def test_order8_sigma_is_idempotent_factor_set():
    G, values, F = order8_blocked_sigma()
    ok, _ = is_idempotent_pfactor(G, values)
    assert ok
    support = frozenset(p for p, v in values.items() if v is not None)
    assert t_closure(G, support) == support
    assert support in enumerate_t_subsets(G)


def test_order8_sigma_fails_cocycle_equation():
    G, values, F = order8_blocked_sigma()
    sigma = PFactorSet(G, FinAbGroup([]), values, provenance="idempotent")
    failures = cohomological_eq_check(sigma)
    a, b, c = G.index("a"), G.index("b"), G.index("c")
    ac = G.mul(a, c)
    target = (b, a, ac)
    hits = [f for f in failures if f[0] == target]
    assert len(hits) == 1
    triple, lhs, rhs = hits[0]
    assert lhs == () and rhs is None  # sides 1 versus 0


def test_total_cocycle_has_no_failures():
    G = catalog.cyclic_group(2)
    values = {(x, y): (0,) for x in range(2) for y in range(2)}
    values[(1, 1)] = (1,)
    sigma = PFactorSet(G, FinAbGroup([2]), values, provenance="derived")
    assert cohomological_eq_check(sigma) == []


def test_sigma_ones_everywhere():
    G = catalog.cyclic_group(2)
    ok, _ = is_idempotent_pfactor(G, {(x, y): () for x in range(2) for y in range(2)})
    assert ok


def test_idempotent_violation_witness():
    G = catalog.cyclic_group(2)
    values = {(x, y): () for x in range(2) for y in range(2)}
    values[(0, 1)] = None  # sigma(1, g) = 0 while sigma(g, g) = 1 forces failure
    ok, witness = is_idempotent_pfactor(G, values)
    assert not ok and witness is not None


def test_closure_equivalence_exhaustive_small():
    # condition (7) <=> support closed, over ALL sigma for |G| <= 3
    for G in (catalog.cyclic_group(1), catalog.cyclic_group(2), catalog.cyclic_group(3)):
        pairs = [(x, y) for x in range(G.order) for y in range(G.order)]
        for bits in range(2 ** len(pairs)):
            values = {p: (() if bits >> i & 1 else None) for i, p in enumerate(pairs)}
            if values[(G.identity, G.identity)] is None:
                continue
            ok, _ = is_idempotent_pfactor(G, values)
            support = frozenset(p for p, v in values.items() if v is not None)
            assert ok == (t_closure(G, support) == support)


def test_closure_equivalence_sampled_larger():
    rng = random.Random(17)
    for G in (catalog.klein_four(), catalog.symmetric_group_3()):
        pairs = [(x, y) for x in range(G.order) for y in range(G.order)]
        candidates = []
        for X in enumerate_t_subsets(G):
            candidates.append(X)
        for _ in range(400):
            sub = frozenset(p for p in pairs if rng.random() < 0.5)
            candidates.append(sub)
        for X in candidates:
            values = {p: (() if p in X else None) for p in pairs}
            if values[(G.identity, G.identity)] is None:
                continue
            ok, _ = is_idempotent_pfactor(G, values)
            assert ok == (t_closure(G, X) == X)


def test_exel_monoid_z2():
    model = exel_monoid(catalog.cyclic_group(2))
    assert len(model.elements) == 3
    S = model.semigroup
    f = model.f_map
    e = 0  # identity of Z/2
    assert S.identity == f[e]
    # f(1) idempotent and f(x) f(1) = f(x)
    assert S.mul(f[e], f[e]) == f[e]
    for x in range(2):
        assert S.mul(f[x], f[e]) == f[x]


def test_exel_monoid_sizes():
    assert len(exel_monoid(catalog.cyclic_group(3)).elements) == 8
    assert len(exel_monoid(catalog.klein_four()).elements) == 20


def test_exel_matches_presentation():
    assert exel_matches_presentation(catalog.cyclic_group(2))
    assert exel_matches_presentation(catalog.cyclic_group(3))


def test_partial_hom_laws_for_canonical_map():
    for G in (catalog.cyclic_group(2), catalog.cyclic_group(3)):
        model = exel_monoid(G)
        phi = {x: model.f_map[x] for x in range(G.order)}
        assert partial_hom_violations(G, model.semigroup, phi) is None


def test_universal_property_battery():
    G = catalog.cyclic_group(2)
    model = exel_monoid(G)
    # 1) identity map through the projection (A, g) -> g
    phi_proj = {x: x for x in range(2)}
    hom = induced_hom(model, G, phi_proj)
    assert hom is not None
    assert [hom[model.f_map[x]] for x in range(2)] == [0, 1]
    # 2) constant-identity map
    phi_triv = {x: 0 for x in range(2)}
    assert induced_hom(model, G, phi_triv) is not None
    # 3) semilattice target e_g <= e_1
    chain = catalog.two_chain_monoid()
    phi_chain = {0: 0, 1: 1}
    assert induced_hom(model, chain, phi_chain) is not None
    # 4) the canonical map into the model itself
    phi_can = {x: model.f_map[x] for x in range(2)}
    hom = induced_hom(model, model.semigroup, phi_can)
    assert hom == tuple(range(len(model.elements)))  # identity homomorphism
    # a non-partial-homomorphism is rejected
    bad = {0: 1, 1: 1}
    assert partial_hom_violations(G, G, bad) is not None
    assert induced_hom(model, G, bad) is None


def test_sigma_from_rho_trivial():
    G = catalog.cyclic_group(2)
    model = exel_monoid(G)
    S = model.semigroup
    A = FinAbGroup([2])
    rho = FactorSet(S, A, {(i, j): (0,) for i in range(3) for j in range(3)})
    sigma = sigma_from_rho(model, rho)
    assert all(v == (0,) for v in sigma.values.values())
    assert sigma.provenance == "derived"


def test_sigma_from_rho_idempotent_has_closed_support():
    from zerocohom.schur import fs_product

    G = catalog.cyclic_group(2)
    model = exel_monoid(G)
    A = FinAbGroup([2])
    for rho in enumerate_factor_sets(model.semigroup, A):
        if fs_product(rho, rho) == rho:  # idempotent
            sigma = sigma_from_rho(model, rho)
            support = sigma.support()
            assert t_closure(G, support) == support
            ok, _ = is_idempotent_pfactor(G, sigma.values)
            # sigma == 0 has empty support and fails the sigma(1,1) = 1
            # hypothesis; every other support contains (1,1)
            assert ok == bool(support)


def test_sigma_from_rho_multiplicative():
    # products map to products pointwise on the common support
    G = catalog.cyclic_group(2)
    model = exel_monoid(G)
    A = FinAbGroup([2])
    from zerocohom.schur import fs_product

    sets = enumerate_factor_sets(model.semigroup, A)
    for r1 in sets:
        for r2 in sets:
            s1 = sigma_from_rho(model, r1)
            s2 = sigma_from_rho(model, r2)
            s12 = sigma_from_rho(model, fs_product(r1, r2))
            prod = pfactor_product(s1, s2)
            for p, v in s12.values.items():
                if prod.values[p] is not None and v is not None:
                    assert prod.values[p] == v


def test_certified_supports_are_closed_subsets():
    G = catalog.cyclic_group(2)
    model = exel_monoid(G)
    closed = set(enumerate_t_subsets(G))
    for A in (FinAbGroup([2]), FinAbGroup([3])):
        supports = set()
        for rho in enumerate_factor_sets(model.semigroup, A):
            sigma = sigma_from_rho(model, rho)
            supports.add(sigma.support())
        for s in supports:
            assert s in closed


def test_pfactor_inverse_semigroup_law():
    G = catalog.cyclic_group(2)
    model = exel_monoid(G)
    A = FinAbGroup([2])
    for rho in enumerate_factor_sets(model.semigroup, A):
        sigma = sigma_from_rho(model, rho)
        star = pfactor_inverse(sigma)
        back = pfactor_product(pfactor_product(sigma, star), sigma)
        assert back.values == sigma.values


def test_pfactor_product_certification():
    G = catalog.cyclic_group(2)
    A = FinAbGroup([2])
    raw = PFactorSet(G, A, {(x, y): (0,) for x in range(2) for y in range(2)})
    ok = idempotent_pfactor(G, t_closure(G, {(0, 0)}), A)
    with pytest.raises(UncertifiedInput):
        pfactor_product(raw, ok)
    # idempotent * idempotent: support is the intersection
    full = idempotent_pfactor(G, frozenset((x, y) for x in range(2) for y in range(2)), A)
    prod = pfactor_product(ok, full)
    assert prod.support() == ok.support() & full.support()
    # product with the all-ones idempotent is the identity
    sigma = idempotent_pfactor(G, frozenset({(0, 0)}), A)
    assert pfactor_product(sigma, full).values == sigma.values
