import random

import pytest

from zerocohom import catalog, schur
from zerocohom.abgroups import FinAbGroup, GroupHom, IntMatrix, QuotientPresentation
from zerocohom.brauer import brauer_monoid
from zerocohom.cohomology import brute_cohomology, cohomology_group
from zerocohom.errors import CertificateError, CoefficientMismatch, NotAnIdeal, ShapeMismatch
from zerocohom.modules import Violation, trivial_module
from zerocohom.partial import build_t_semigroup
from zerocohom.schur import (
    FactorSet,
    brute_multiplier,
    enumerate_factor_sets,
    epsilon_factor_set,
    equivalent,
    fs_inverse_on_support,
    fs_product,
    multipliers_agree,
    schur_multiplier,
    support_ideal,
    twist,
    validate_factor_set,
)
from zerocohom.semigroups import adjoin, ideals, rees_quotient


def total_cocycle_z2():
    """The nontrivial total 2-cocycle on the group Z/2 with values in Z/2."""
    G = catalog.cyclic_group(2)
    A = FinAbGroup([2])
    values = {(x, y): (0,) for x in range(2) for y in range(2)}
    values[(1, 1)] = (1,)
    return FactorSet(G, A, values)


def test_group_cocycle_is_factor_set():
    rho = total_cocycle_z2()
    assert validate_factor_set(rho) is None
    assert support_ideal(rho) == frozenset()


def test_epsilon_is_factor_set():
    S = adjoin(catalog.nil_square_semigroup(), "identity")
    A = FinAbGroup([2])
    for I in ideals(S):
        eps = epsilon_factor_set(S, A, I)
        assert validate_factor_set(eps) is None
        assert support_ideal(eps) == I


def test_normalization_violation():
    S = catalog.two_chain_monoid()
    A = FinAbGroup([2])
    values = {(x, y): (0,) for x in range(2) for y in range(2)}
    values[(0, 1)] = None  # rho(1, e) = 0 but rho(e, e) != 0
    v = validate_factor_set(FactorSet(S, A, values))
    assert v is not None and v.kind == "normalization"


def test_missing_value_is_a_violation():
    # the first pair without a value, in scan order, before any law is read
    S = catalog.cyclic_group(2)
    A = FinAbGroup([2])
    assert validate_factor_set(FactorSet(S, A, {})) == Violation("missing", (0, 0))
    values = {(x, y): (0,) for x in range(2) for y in range(2)}
    del values[(1, 0)]
    assert validate_factor_set(FactorSet(S, A, values)) == Violation("missing", (1, 0))


def test_cocycle_violation_reports_first_triple():
    # on Z2 with rho(1, g) = g and rho = 1 elsewhere the law first fails at (1, 1, g)
    S = catalog.cyclic_group(2)
    A = FinAbGroup([2])
    values = {(x, y): (0,) for x in range(2) for y in range(2)}
    values[(0, 1)] = (1,)
    v = validate_factor_set(FactorSet(S, A, values))
    assert (v.kind, v.witness) == ("cocycle", (0, 0, 1))


def test_epsilon_product_is_union():
    S = adjoin(catalog.nil_square_semigroup(), "identity")
    A = FinAbGroup([3])
    ids = ideals(S)
    for I in ids:
        for J in ids:
            eps = fs_product(epsilon_factor_set(S, A, I), epsilon_factor_set(S, A, J))
            assert support_ideal(eps) == I | J


def test_support_of_product_is_union():
    # m_I * m_J <= m_{I u J} on a small monoid with coefficients Z/2
    S = catalog.two_chain_monoid()
    A = FinAbGroup([2])
    sets = enumerate_factor_sets(S, A)
    for r in sets:
        for s in sets:
            assert support_ideal(fs_product(r, s)) == support_ideal(r) | support_ideal(s)


def test_inverse_on_support_gives_epsilon():
    rho = total_cocycle_z2()
    eps = fs_product(rho, fs_inverse_on_support(rho))
    assert eps == epsilon_factor_set(rho.semigroup, rho.group, frozenset())


def test_support_ideal_examples():
    S1 = adjoin(catalog.nil_square_semigroup(), "identity")
    A = FinAbGroup([2])
    # full-support factor set on the monoid Z/2
    assert support_ideal(total_cocycle_z2()) == frozenset()
    # nonzero exactly off {0, w}
    I = frozenset({S1.index("0"), S1.index("w")})
    eps = epsilon_factor_set(S1, A, I)
    assert support_ideal(eps) == I
    # invalid zero pattern
    bad_vals = {p: (0,) for p in eps.values}
    bad_vals[(S1.index("u"), S1.index("u"))] = None
    with pytest.raises(NotAnIdeal):
        support_ideal(FactorSet(S1, A, bad_vals))


def test_equivalence_reflexive_and_twist():
    rng = random.Random(13)
    S = catalog.two_chain_monoid()
    A = FinAbGroup([3])
    for rho in enumerate_factor_sets(S, A):
        ok, alpha = equivalent(rho, rho)
        assert ok
        assert all(not any(v) for v in alpha.values())
        alpha = {s: (rng.randrange(3),) for s in range(S.order)}
        tw = twist(rho, alpha)
        assert validate_factor_set(tw) is None
        ok, _ = equivalent(rho, tw)
        assert ok


def test_equivalence_different_supports():
    S = catalog.two_chain_monoid()
    A = FinAbGroup([2])
    e0 = epsilon_factor_set(S, A, frozenset())
    e1 = epsilon_factor_set(S, A, frozenset({1}))
    assert equivalent(e0, e1) == (False, None)


def test_equivalence_alpha_reconstructs():
    rho = total_cocycle_z2()
    alpha = {0: (1,), 1: (1,)}
    sigma = twist(rho, alpha)
    ok, a = equivalent(rho, sigma)
    assert ok
    # rho == twist(sigma, a)
    assert twist(sigma, a) == rho
    # a value longer than the rank is refused, not cut to the rank
    with pytest.raises(ShapeMismatch):
        twist(rho, {0: (1,), 1: (1, 0)})
    longer = FactorSet(sigma.semigroup, sigma.group, {**sigma.values, (1, 1): sigma.values[1, 1] + (0,)})
    for pair in ((rho, longer), (longer, rho)):
        with pytest.raises(ShapeMismatch):
            equivalent(*pair)


def test_equivalence_is_congruence_randomized():
    rng = random.Random(31)
    S = catalog.two_chain_monoid()
    A = FinAbGroup([2])
    sets = enumerate_factor_sets(S, A)
    for _ in range(60):
        r, s, t = rng.choice(sets), rng.choice(sets), rng.choice(sets)
        ok_rs, _ = equivalent(r, s)
        if ok_rs:
            ok_sr, _ = equivalent(s, r)
            assert ok_sr  # symmetric
            p1 = fs_product(r, t)
            p2 = fs_product(s, t)
            ok_p, _ = equivalent(p1, p2)
            assert ok_p  # congruence
        ok_st, _ = equivalent(s, t)
        if ok_rs and ok_st:
            ok_rt, _ = equivalent(r, t)
            assert ok_rt  # transitive


def test_closure_under_product_exhaustive():
    S = catalog.two_chain_monoid()
    A = FinAbGroup([2])
    sets = enumerate_factor_sets(S, A)
    for r in sets:
        for s in sets:
            assert validate_factor_set(fs_product(r, s)) is None


def test_idempotents_biject_with_ideals():
    # {0,1}-valued factor sets are exactly the epsilon_I
    from itertools import product as iproduct

    A = FinAbGroup([2])
    for S in [catalog.two_chain_monoid()] + catalog.monoids_of_order(3)[:3]:
        idems = []
        pairs = [(x, y) for x in range(S.order) for y in range(S.order)]
        for bits in iproduct([None, (0,)], repeat=len(pairs)):
            rho = FactorSet(S, A, dict(zip(pairs, bits)))
            if validate_factor_set(rho) is None:
                if fs_product(rho, rho) == rho:
                    idems.append(rho)
        ids = ideals(S)
        assert len(idems) == len(ids)
        assert {support_ideal(r) for r in idems} == set(ids)


def test_schur_multiplier_group_z2():
    # the group Z/2 with A = Z/4: component at the empty ideal is
    # H^2(Z/2, Z/4) = Z/2, at the full ideal trivial
    G = catalog.cyclic_group(2)
    A = FinAbGroup([4])
    sl = schur_multiplier(G, A)
    assert len(sl.indices) == 2
    empty = frozenset()
    full = frozenset(range(2))
    assert sl.components[empty].invariants() == (2,)
    assert sl.components[full].invariants() == ()
    assert brute_cohomology(
        adjoin(G, "zero"), trivial_module(adjoin(G, "zero"), A), 2, "zero"
    ).invariants() == (2,)


def test_schur_component_count_is_ideal_count():
    for S in (catalog.two_chain_monoid(), adjoin(catalog.nil_square_semigroup(), "identity")):
        sl = schur_multiplier(S, FinAbGroup([2]))
        assert len(sl.indices) == len(ideals(S))


def test_schur_components_match_quotient_cohomology():
    S = catalog.monoids_of_order(3)[2]
    A = FinAbGroup([2])
    sl = schur_multiplier(S, A)
    for I in sl.indices:
        Q = rees_quotient(S, I)
        H = cohomology_group(Q, trivial_module(Q, A), 2, "zero").group
        assert sl.components[I].invariants() == H.invariants()


def test_brute_multiplier_two_element_monoids():
    A = FinAbGroup([2])
    for S in catalog.monoids_of_order(2):
        sl = schur_multiplier(S, A)
        br = brute_multiplier(S, A)
        rep = multipliers_agree(sl, br)
        assert rep["ok"], rep


def test_brute_multiplier_group_z2_component_order():
    G = catalog.cyclic_group(2)
    A = FinAbGroup([2])
    br = brute_multiplier(G, A)
    empty = frozenset()
    assert br.components[empty].invariants == (2,)
    # empty-support component: M_0(S^0) cross-check via cohomology
    S0 = adjoin(G, "zero")
    assert brute_cohomology(S0, trivial_module(S0, A), 2, "zero").invariants() == (2,)


def test_brute_multiplier_rejects_supports_that_are_not_the_ideals(monkeypatch):
    # an extra "ideal" that no factor set is supported on is named as the witness
    G = catalog.cyclic_group(2)
    real = schur.ideals
    monkeypatch.setattr(schur, "ideals", lambda S: real(S) + [frozenset({0})])
    with pytest.raises(CertificateError) as exc:
        brute_multiplier(G, FinAbGroup([2]))
    assert exc.value.witness == [0]


def test_full_dumb_enumeration_cross_check():
    # |S| = 2, A = Z/2: all 3^4 total maps, filtered directly
    from itertools import product as iproduct

    S = catalog.two_chain_monoid()
    A = FinAbGroup([2])
    pairs = [(x, y) for x in range(2) for y in range(2)]
    dumb = []
    for combo in iproduct([None, (0,), (1,)], repeat=4):
        rho = FactorSet(S, A, dict(zip(pairs, combo)))
        if validate_factor_set(rho) is None:
            dumb.append(rho.key())
    smart = {rho.key() for rho in enumerate_factor_sets(S, A)}
    assert set(dumb) == smart and len(dumb) == len(smart)


def _scan_factor_sets(S, A):
    # the reference: every assignment on every candidate support, in
    # product order, kept when the cocycle law holds on every triple
    # (zero absorbing), and then confirmed by the validator
    from itertools import product as iproduct

    n = S.order
    pairs = [(x, y) for x in range(n) for y in range(n)]
    flat = {p: i for i, p in enumerate(pairs)}
    triples = [
        (flat[x, y], flat[S.mul(x, y), z], flat[x, S.mul(y, z)], flat[y, z])
        for x in range(n)
        for y in range(n)
        for z in range(n)
    ]

    def side(u, v):
        return None if u is None or v is None else A.add(u, v)

    out = []
    for bits in range(2**n):
        Z = {i for i in range(n) if bits >> i & 1}
        support = [flat[x, y] for x, y in pairs if S.mul(x, y) not in Z]
        for combo in iproduct(A.elements(), repeat=len(support)):
            v = [None] * len(pairs)
            for i, c in zip(support, combo):
                v[i] = c
            if all(side(v[a], v[b]) == side(v[c], v[d]) for a, b, c, d in triples):
                rho = FactorSet(S, A, dict(zip(pairs, v)))
                assert validate_factor_set(rho) is None
                out.append(rho)
    return out


def test_factor_set_search_matches_the_scan():
    chain = next(S for S in catalog.monoid_catalogue(4) if S.elements == ("1", "e", "f", "g"))
    cases = [(S, FinAbGroup([p])) for S in catalog.monoid_catalogue(3) for p in (2, 3)]
    cases.append((chain, FinAbGroup([2])))
    for S, A in cases:
        found = [rho.key() for rho in enumerate_factor_sets(S, A)]
        assert found == [rho.key() for rho in _scan_factor_sets(S, A)], (S.elements, A.factors)


def test_schur_links_that_fail_to_compose_raise_a_certificate_error(monkeypatch):
    monkeypatch.setattr(schur.SemilatticeOfGroups, "check_links_compose", lambda self: ("i", "j", "k"))
    with pytest.raises(CertificateError) as exc:
        schur_multiplier(catalog.cyclic_group(2), FinAbGroup([2]))
    assert exc.value.witness == ("i", "j", "k")


def test_check_links_compose_compares_every_nonvacuous_triple():
    # i < j < k with C2 at i and k and j trivial: link(i, k) must factor
    # through 0, so only the triple with the trivial middle catches a
    # nonzero link(i, k)
    C2, C1 = FinAbGroup([2]), FinAbGroup([])
    i, j, k = frozenset(), frozenset({1}), frozenset({1, 2})
    components = {i: C2, j: C1, k: C2}
    identity, zero = GroupHom.identity(C2), GroupHom(C2, C2, IntMatrix(1, 1, [[0]]))

    def semilattice(link_ik, link_ii):
        links = {
            (a, b): GroupHom(components[a], components[b], IntMatrix(components[b].rank, components[a].rank))
            for a, b in ((i, j), (j, k), (j, j))
        }
        links.update({(i, i): link_ii, (i, k): link_ik, (k, k): identity})
        return schur.SemilatticeOfGroups([i, j, k], components, links)

    sl = semilattice(identity, identity)
    assert sl.check_links_compose() == (i, j, k)
    # a link that is not stored is read as the zero map
    sl.links = {pair: hom for pair, hom in sl.links.items() if j not in pair}
    assert sl.check_links_compose() == (i, j, k)
    # every triple holds, but the self-link at i is not the identity
    assert semilattice(zero, zero).check_links_compose() == (i, i, i)
    assert semilattice(zero, identity).check_links_compose() is None


@pytest.mark.parametrize(
    "build",
    [
        lambda: brauer_monoid(2, 6),
        lambda: schur_multiplier(adjoin(adjoin(catalog.klein_four(), "zero"), "zero"), FinAbGroup([2])),
    ],
    ids=["brauer(2,6)", "schur (V4^0)^0 C2"],
)
def test_links_are_stored_only_between_nontrivial_groups(build):
    sl = build()
    pairs = [(I, J) for I in sl.indices for J in sl.indices if I <= J]
    nontrivial = {(I, J) for I, J in pairs if sl.components[I].rank and sl.components[J].rank}
    assert nontrivial and set(sl.links) == nontrivial
    for I, J in pairs:
        if (I, J) not in nontrivial:
            hom = sl.link(I, J)
            assert (hom.source, hom.target) == (sl.components[I], sl.components[J])
            assert hom.is_zero()


def test_restriction_that_is_not_a_cocycle_raises_a_certificate_error(monkeypatch):
    monkeypatch.setattr(QuotientPresentation, "coords", lambda self, v: None)
    with pytest.raises(CertificateError) as exc:
        schur_multiplier(catalog.cyclic_group(2), FinAbGroup([2]))
    assert exc.value.witness == 0
    assert "restriction of a cocycle is not a cocycle" in str(exc.value)


def test_fs_product_mismatch_checks_survive_optimize(run_python):
    # under python -O: factor sets over different semigroups or with
    # different coefficients must still be refused with a typed error, by
    # fs_product and by equivalent (the idempotent factor sets of one
    # ideal over C2 and C3 are not equivalent, whatever their values)
    script = """
from zerocohom import catalog
from zerocohom.abgroups import FinAbGroup, GroupHom, IntMatrix, QuotientPresentation
from zerocohom.errors import CoefficientMismatch, SemigroupMismatch
from zerocohom.schur import epsilon_factor_set, equivalent, fs_product

S = catalog.two_chain_monoid()
rho = epsilon_factor_set(S, FinAbGroup([2]), frozenset())
for f in (fs_product, equivalent):
    for sigma in (
        epsilon_factor_set(S, FinAbGroup([3]), frozenset()),
        epsilon_factor_set(catalog.cyclic_group(2), FinAbGroup([2]), frozenset()),
    ):
        try:
            print(f(rho, sigma))
        except CoefficientMismatch as exc:
            print("CoefficientMismatch", [A.factors for A in exc.witness])
        except SemigroupMismatch as exc:
            print("SemigroupMismatch", [S.elements for S in exc.witness])
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:4] == [
        "CoefficientMismatch [(2,), (3,)]",
        "SemigroupMismatch [('1', 'e'), ('1', 'g')]",
    ] * 2


def test_fs_product_coefficient_mismatch_carries_both_groups():
    S = catalog.two_chain_monoid()
    C2, C3 = FinAbGroup([2]), FinAbGroup([3])
    with pytest.raises(CoefficientMismatch) as exc:
        fs_product(epsilon_factor_set(S, C2, frozenset()), epsilon_factor_set(S, C3, frozenset()))
    assert exc.value.witness == (C2, C3)


@pytest.mark.parametrize("entry", [schur_multiplier, brute_multiplier], ids=["schur_multiplier", "brute_multiplier"])
def test_an_input_that_is_not_a_semigroup_is_refused(entry):
    # build_t_semigroup() returns the data around T; its .semigroup is the monoid
    data = build_t_semigroup()
    with pytest.raises(TypeError, match="expected a Semigroup, got TSemigroupData"):
        entry(data, FinAbGroup([2]))


def test_same_support_factor_sets_of_different_classes_are_not_equivalent():
    # H^2(Z2; C2) = C2: the nontrivial cocycle and the trivial one share the full support
    rho = total_cocycle_z2()
    one = epsilon_factor_set(rho.semigroup, rho.group, ())
    assert support_ideal(rho) == support_ideal(one) == frozenset()
    assert equivalent(rho, one) == (False, None)
    assert equivalent(rho, rho)[0]


def test_multipliers_agree_reports_each_mismatch():
    G, C2 = catalog.cyclic_group(2), FinAbGroup([2])
    sl = schur_multiplier(G, C2)
    assert multipliers_agree(sl, brute_multiplier(G, C2))["ok"]
    # other indices: the two-element chain has three ideals, Z2 two
    assert multipliers_agree(sl, brute_multiplier(catalog.two_chain_monoid(), C2)) == {
        "indices": False,
        "components": {},
        "links": {},
        "ok": False,
    }
    # H^2(Z2; C3) = 0 against H^2(Z2; C2) = C2: the component at the empty
    # ideal differs, and so do the images and kernels of its two links
    assert multipliers_agree(sl, brute_multiplier(G, FinAbGroup([3]))) == {
        "indices": True,
        "components": {(): False, (0, 1): True},
        "links": {((), ()): False, ((), (0, 1)): False, ((0, 1), (0, 1)): True},
        "ok": False,
    }
