import random
from itertools import product

import pytest

from zerocohom import catalog, partial
from zerocohom.abgroups import FinAbGroup
from zerocohom.errors import CertificateError, InvalidFactorSet, SemigroupMismatch, UncertifiedInput, ZerocohomError
from zerocohom.partial import (
    ExelModel,
    build_t_semigroup,
    enumerate_t_subsets,
    exel_matches_presentation,
    exel_monoid,
    induced_hom,
    partial_hom_violations,
    t_action_relation_report,
    t_closure,
)
from zerocohom.schur import (
    FactorSet,
    cohomological_eq_check,
    enumerate_factor_sets,
    idempotent_pfactor,
    is_idempotent_pfactor,
    pfactor_inverse,
    pfactor_product,
    sigma_from_rho,
    validate_factor_set,
)
from zerocohom.semigroups import Semigroup, isomorphic_semigroups, rees_matrix_semigroup, subsemigroup


def test_build_t_semigroup_constants():
    data = build_t_semigroup()
    S = data.semigroup
    assert S.order == 25
    assert len(data.unit_indices) == 6
    assert len(data.ideal_indices) == 19
    dec = data.decomposition
    assert dec.group.order == 2 and (dec.rows, dec.cols) == (3, 3)
    # the normalized sandwich, as `zerocohom tsemigroup` prints it: every
    # nonzero entry of the first row and the first column is the identity
    assert dec.group.identity == 0
    assert dec.sandwich == ((0, None, 0), (0, 1, None), (None, 0, 0))
    Z2 = catalog.cyclic_group(2)
    # zero pattern: one zero per row and per column (permutation pattern)
    for row in dec.sandwich:
        assert sum(1 for x in row if x is None) == 1
    for j in range(3):
        assert sum(1 for row in dec.sandwich if row[j] is None) == 1
    # the ideal is the Rees matrix semigroup of the corrected matrix (one
    # entry is the nontrivial unit), not of the all-ones refinement
    ideal, _ = subsemigroup(S, data.ideal_indices)
    corrected = rees_matrix_semigroup(Z2, 3, 3, ((0, 0, None), (0, None, 1), (None, 0, 0)))
    displayed = rees_matrix_semigroup(Z2, 3, 3, ((0, 0, None), (0, None, 0), (None, 0, 0)))
    assert isomorphic_semigroups(ideal, corrected)
    assert not isomorphic_semigroups(ideal, displayed)


def test_t_structure_certificate_survives_optimize(run_python):
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
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("CertificateError 19 ideal is not completely 0-simple"), proc.stdout


def test_remaining_certificates_survive_optimize(run_python):
    # under python -O: the Exel-model check, the coefficient check of
    # pfactor_product and the product of gown merge classes still refuse
    # bad input with typed errors that carry a witness
    script = """
from zerocohom import catalog, partial, schur
from zerocohom.abgroups import FinAbGroup
from zerocohom.errors import CertificateError, CoefficientMismatch
from zerocohom.presentations import GownClasses

G = catalog.cyclic_group(2)
model = partial.exel_monoid(G)
words = model.factorizations
try:
    partial._verify_exel(partial.ExelModel(G, model.elements, model.semigroup, model.f_map, words[1:] + words[:1]))
except CertificateError as exc:
    print("CertificateError", exc.witness[0])
support = frozenset((x, y) for x in range(2) for y in range(2))
try:
    schur.pfactor_product(
        schur.idempotent_pfactor(G, support, FinAbGroup([2])),
        schur.idempotent_pfactor(G, support, FinAbGroup([3])),
    )
except CoefficientMismatch as exc:
    print("CoefficientMismatch", [A.factors for A in exc.witness])
S = catalog.null_semigroup(2)
a, b = S.nonzero()
classes = (frozenset({(a,), (b,)}), frozenset({(a, a), (a, b)}), frozenset({(b, a), (b, b)}))
class_of = {seq: k for k, c in enumerate(classes) for seq in c}
try:
    GownClasses(S, 2, classes, class_of).multiply(0, 0)
except CertificateError as exc:
    print("CertificateError", exc.witness)
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "CertificateError 0",
        "CoefficientMismatch [(2,), (3,)]",
        "CertificateError (0, 0, [1, 2])",
    ], proc.stdout


def test_verify_exel_refuses_a_broken_relation_or_identity():
    model = exel_monoid(catalog.cyclic_group(2))
    G, elements, S, f_map, words = model.group, model.elements, model.semigroup, model.f_map, model.factorizations
    # the model rebuilt from its own fields passes, so each failure below is its mutation's
    partial._verify_exel(ExelModel(G, elements, S, f_map, words))
    with pytest.raises(CertificateError) as exc:
        partial._verify_exel(ExelModel(G, elements, S, f_map[::-1], words))
    assert exc.value.witness == ("left", 0, 0)
    without_identity = Semigroup(S.elements, S.table, S.zero, None)
    with pytest.raises(CertificateError) as exc:
        partial._verify_exel(ExelModel(G, elements, without_identity, f_map, words))
    assert "the monoid identity is not [e]" in str(exc.value)


def test_records_refuse_assignment():
    # a record is immutable after construction, like the tuple fields it holds
    model = exel_monoid(catalog.cyclic_group(2))
    with pytest.raises(AttributeError):
        model.f_map = ()
    with pytest.raises(AttributeError):
        model.semigroup.identity = None
    with pytest.raises(AttributeError):
        del model.group


def test_t_action_satisfies_relations():
    for G in (catalog.cyclic_group(2), catalog.cyclic_group(3), catalog.symmetric_group_3()):
        rep = t_action_relation_report(G)
        assert all(rep.values()), rep


def test_t_action_report_reads_every_relation_of_the_presentation():
    # one key per defining relation, as the presentation writes it, and
    # one for the zero word; each holds for every group tried
    keys = ["AA=1", "BB=1", "ABABAB=1", "CC=C", "AC=C", "CABC=CBAB", "CBC constant"]
    groups = [catalog.cyclic_group(k) for k in range(1, 7)] + [catalog.klein_four(), catalog.symmetric_group_3()]
    for G in groups:
        rep = t_action_relation_report(G)
        assert list(rep) == keys
        assert all(rep.values()), (G.elements, rep)


def test_t_closure_z2():
    G = catalog.cyclic_group(2)
    g = 1
    # a single off-diagonal pair pulls in everything
    assert t_closure(G, {(g, g)}) == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert t_closure(G, set()) == frozenset()
    e = G.identity
    assert t_closure(G, {(e, e)}) == frozenset({(e, e)})


@pytest.mark.parametrize("name, count", [("Z2", 3), ("Z3", 4), ("V4", 10)], ids=["Z2", "Z3", "V4"])
def test_enumerate_t_subsets_against_all_subsets(name, count):
    # exhaustive oracle over all 2^(|G|^2) subsets, independent of the
    # t_closure that the enumeration unions: a subset is closed when it is
    # empty or its indicator passes the closure law of is_idempotent_pfactor
    G = catalog.named_group(name)
    subsets = enumerate_t_subsets(G)
    assert len(subsets) == count
    assert frozenset() in subsets
    assert frozenset({(G.identity, G.identity)}) in subsets
    pairs = [(x, y) for x in range(G.order) for y in range(G.order)]
    assert frozenset(pairs) in subsets
    brute = []
    for bits in range(2 ** len(pairs)):
        values = {p: () if bits >> i & 1 else None for i, p in enumerate(pairs)}
        if not bits or is_idempotent_pfactor(G, values)[0]:
            brute.append(frozenset(p for p, v in values.items() if v is not None))
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
    sigma = FactorSet(G, FinAbGroup([]), values, provenance="idempotent")
    failures = cohomological_eq_check(sigma)
    a, b, c = G.index("a"), G.index("b"), G.index("c")
    ac = G.mul(a, c)
    target = (b, a, ac)
    hits = [f for f in failures if f[0] == target]
    assert len(hits) == 1
    triple, lhs, rhs = hits[0]
    assert lhs == () and rhs is None  # sides 1 versus 0

    # every failing triple, in order, against the sides computed pointwise
    def side(p, q):
        return None if values[p] is None or values[q] is None else ()

    expected = []
    for x, y, z in product(range(8), repeat=3):
        lhs, rhs = side((x, y), (G.mul(x, y), z)), side((x, G.mul(y, z)), (y, z))
        if lhs != rhs:
            expected.append(((x, y, z), lhs, rhs))
    assert failures == expected


def test_total_cocycle_has_no_failures():
    G = catalog.cyclic_group(2)
    values = {(x, y): (0,) for x in range(2) for y in range(2)}
    values[(1, 1)] = (1,)
    sigma = FactorSet(G, FinAbGroup([2]), values, provenance="derived")
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


@pytest.mark.parametrize(
    "support, message, witness",
    [
        ({(1, 1)}, "support lacks the identity pair", (0, 0)),
        ({(0, 0), (1, 1)}, "support is not closed", (1, 1)),
    ],
)
def test_idempotent_pfactor_refuses_a_bad_support_with_a_typed_error(support, message, witness):
    with pytest.raises(ZerocohomError, match=message) as exc:
        idempotent_pfactor(catalog.cyclic_group(3), support)
    assert isinstance(exc.value, InvalidFactorSet)
    assert exc.value.witness == witness


def test_sigma_from_rho_refuses_a_rho_that_is_no_factor_set():
    G = catalog.cyclic_group(2)
    model = exel_monoid(G)
    values = {(i, j): (0,) for i in range(3) for j in range(3)}
    values[(1, 2)] = (1,)
    rho = FactorSet(model.semigroup, FinAbGroup([2]), values)
    with pytest.raises(ZerocohomError, match="cocycle law") as exc:
        sigma_from_rho(model, rho)
    assert isinstance(exc.value, InvalidFactorSet)
    assert exc.value.witness == validate_factor_set(rho).witness == (1, 1, 2)


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
    raw = FactorSet(G, A, {(x, y): (0,) for x in range(2) for y in range(2)})
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


def test_pfactor_product_refuses_factor_sets_of_different_groups():
    A = FinAbGroup([2])
    s2, s3 = (
        idempotent_pfactor(G, frozenset(product(range(G.order), repeat=2)), A)
        for G in (catalog.cyclic_group(2), catalog.cyclic_group(3))
    )
    for left, right in ((s2, s3), (s3, s2)):
        with pytest.raises(SemigroupMismatch) as exc:
            pfactor_product(left, right)
        assert exc.value.witness == (left.semigroup, right.semigroup)


def test_provenance_is_not_compared():
    G = catalog.cyclic_group(2)
    sigma = idempotent_pfactor(G, frozenset({(0, 0)}), FinAbGroup([2]))
    raw = FactorSet(G, sigma.group, dict(sigma.values))
    assert raw == sigma and hash(raw) == hash(sigma)
    assert raw.provenance is None and sigma.provenance == "idempotent"
