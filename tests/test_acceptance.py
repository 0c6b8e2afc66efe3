"""Acceptance gate: each criterion prints one PASS/FAIL line with timing.

Every check is exact (invariant-factor equality, oracle equality, or an
explicitly documented discrepancy) and carries the stated wall-clock
budget.
"""

import random
import time
from itertools import product

from zerocohom import catalog
from zerocohom.abgroups import FinAbGroup, IntMatrix
from zerocohom.cohomology import (
    brute_cohomology,
    cohomology_group,
    coboundary,
    random_cochain,
    witness_report,
    zero_cochain,
)
from zerocohom.modules import (
    ZeroModule,
    corner_module,
    restrict_module,
    scalar_module,
    trivial_module,
    validate_module,
)
from zerocohom.natsys import from_zero_module, hom_complex_compare, natsys_cohomology, trivial_Z
from zerocohom.presentations import enumerate_presentation, parse_presentation, word_value
from zerocohom.semigroups import (
    adjoin,
    ideals,
    isomorphic_semigroups,
    rees_matrix_semigroup,
    zero_direct_union,
)


def criterion(number, budget_seconds, description):
    def wrap(fn):
        def run():
            start = time.monotonic()
            try:
                detail = fn()
            except Exception:
                print(f"FAIL criterion {number}: {description}")
                raise
            elapsed = time.monotonic() - start
            line = f"PASS criterion {number} ({elapsed:.2f}s): {description}"
            if detail:
                line += f" -- {detail}"
            print(line)
            assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"

        run.__name__ = fn.__name__
        return run

    return wrap


@criterion(1, 1.0, "nilpotent 4-element semigroup: H_0^2 = C2 x C2 with certified witness")
def check_1():
    S = catalog.nil_square_semigroup()
    M = trivial_module(S, FinAbGroup([2]))
    H = cohomology_group(S, M, 2, "zero")
    assert H.group.invariants() == (2, 2)
    assert brute_cohomology(S, M, 2, "zero").invariants() == (2, 2)
    f = zero_cochain(S, M, 2)
    f.values[(S.index("u"), S.index("u"))] = (1,)
    rep = witness_report(S, M, f, "zero")
    assert rep["is_cocycle"] and not rep["is_coboundary"]
    return "group (2, 2), witness cocycle not a coboundary, oracle over 16 cochains agrees"


def test_criterion_1():
    check_1()


@criterion(2, 1.0, "collapsed-product quotient: H_0^2(Q, A) = 0 for A in {C2, C4, Z}")
def check_2():
    Q = catalog.mitchell_quotient()
    for factors in ((2,), (4,), (0,)):
        M = trivial_module(Q, FinAbGroup(factors))
        assert cohomology_group(Q, M, 2, "zero").group.is_trivial()
    return None


def test_criterion_2():
    check_2()


def _module_choices(T):
    out = [
        trivial_module(T, FinAbGroup([2])),
        trivial_module(T, FinAbGroup([3])),
        trivial_module(T, FinAbGroup([4])),
        trivial_module(T, FinAbGroup([0])),
        trivial_module(T, FinAbGroup([2, 4])),
    ]
    for m, A in ((3, FinAbGroup([3])), (4, FinAbGroup([4]))):
        hit = None
        for vals in product(range(m), repeat=T.order):
            if all(
                vals[T.table[i][j]] % m == (vals[i] * vals[j]) % m
                for i in range(T.order)
                for j in range(T.order)
            ) and any(v % m != 1 for v in vals):
                hit = scalar_module(T, A, dict(enumerate(vals)))
                break
        if hit is not None and validate_module(hit) is None:
            out.append(hit)
            break
    return out


@criterion(3, 30.0, "adjoined-zero bridge H_0^n(T^0, A) = H^n(T, A), all catalogued monoids |T| <= 4")
def check_3():
    count = 0
    for T in catalog.monoid_catalogue(4):
        T0 = adjoin(T, "zero")
        mods = _module_choices(T)
        assert len(mods) >= 5
        for M in mods:
            M0 = ZeroModule(T0, M.group, dict(M.action))
            for n in (1, 2):
                left = cohomology_group(T0, M0, n, "zero").group.invariants()
                right = cohomology_group(T, M, n, "em").group.invariants()
                assert left == right, (T.elements, n)
                count += 1
    return f"{count} exact invariant-factor equalities"


def test_criterion_3():
    check_3()


@criterion(4, 30.0, "0-direct union splits cohomology, n in {1, 2}, 5 pairs")
def check_4():
    pairs = [
        (catalog.cyclic_group(2), catalog.cyclic_group(2)),
        (catalog.cyclic_group(2), catalog.cyclic_group(3)),
        (catalog.two_chain_monoid(), catalog.cyclic_group(2)),
        (catalog.cyclic_group(4), catalog.two_chain_monoid()),
        (catalog.two_chain_monoid(), catalog.two_chain_monoid()),
    ]
    checked = 0
    for S, T in pairs:
        S0, T0 = adjoin(S, "zero"), adjoin(T, "zero")
        U = zero_direct_union(S0, T0)
        for factors in ((2,), (4,)):
            A = FinAbGroup(factors)
            for n in (1, 2):
                hu = cohomology_group(U, trivial_module(U, A), n, "zero").group
                hs = cohomology_group(S0, trivial_module(S0, A), n, "zero").group
                ht = cohomology_group(T0, trivial_module(T0, A), n, "zero").group
                assert hu.invariants() == hs.direct_sum(ht).invariants()
                checked += 1
    return f"{checked} direct-sum equalities"


def test_criterion_4():
    check_4()


@criterion(5, 5.0, "classifying monoid constants: order 25, units S3, Rees data")
def check_5():
    from zerocohom.partial import build_t_semigroup
    from zerocohom.semigroups import subsemigroup

    data = build_t_semigroup()
    assert data.semigroup.order == 25
    assert len(data.unit_indices) == 6
    H_units, _ = subsemigroup(data.semigroup, data.unit_indices)
    # nonabelian of order 6
    assert any(
        H_units.mul(a, b) != H_units.mul(b, a) for a in range(6) for b in range(6)
    )
    dec = data.decomposition
    assert dec.group.order == 2 and (dec.rows, dec.cols) == (3, 3)
    Z2 = catalog.cyclic_group(2)
    ideal, _ = subsemigroup(data.semigroup, data.ideal_indices)
    displayed = rees_matrix_semigroup(Z2, 3, 3, ((0, 0, None), (0, None, 0), (None, 0, 0)))
    corrected = rees_matrix_semigroup(Z2, 3, 3, ((0, 0, None), (0, None, 1), (None, 0, 0)))
    assert isomorphic_semigroups(ideal, corrected)
    pattern_note = ""
    if not isomorphic_semigroups(ideal, displayed):
        # documented discrepancy: the displayed matrix has the right zero
        # pattern but the wrong unit refinement (see the decisions ledger);
        # the zero pattern itself must still match up to permutation
        for row in dec.sandwich:
            assert sum(1 for x in row if x is None) == 1
        for j in range(3):
            assert sum(1 for row in dec.sandwich if row[j] is None) == 1
        pattern_note = (
            "zero pattern matches the displayed sandwich; scalar refinement "
            "requires one nontrivial unit entry (documented discrepancy)"
        )
    return pattern_note


def test_criterion_5():
    check_5()


@criterion(6, 1.0, "order-8 elementary group: idempotent sigma passes, cocycle equation fails at (b, a, ac)")
def check_6():
    from zerocohom.abgroups import FinAbGroup as FA
    from zerocohom.schur import FactorSet, cohomological_eq_check, is_idempotent_pfactor

    G = catalog.elementary_abelian_8()
    H = {G.index(n) for n in ("1", "b", "c", "bc")}
    one = G.identity
    F = {(x, y) for x in H - {one} for y in H - {one} if x != y}
    values = {}
    for x in range(8):
        for y in range(8):
            values[(x, y)] = None if (x, y) in F else ()
    ok, _ = is_idempotent_pfactor(G, values)
    assert ok
    sigma = FactorSet(G, FA([]), values, provenance="idempotent")
    failures = cohomological_eq_check(sigma)
    a, b, c = G.index("a"), G.index("b"), G.index("c")
    target = (b, a, G.mul(a, c))
    hit = [f for f in failures if f[0] == target]
    assert len(hit) == 1
    _, lhs, rhs = hit[0]
    assert lhs == () and rhs is None  # sides 1 vs 0
    return None


def test_criterion_6():
    check_6()


@criterion(7, 300.0, "multiplier oracle equality for all monoids |S| <= 3, A in {C2, C3}")
def check_7():
    from zerocohom.schur import brute_multiplier, multipliers_agree, schur_multiplier

    monoids = []
    for n in (1, 2, 3):
        monoids.extend(catalog.monoids_of_order(n))
    checked = 0
    for A in (FinAbGroup([2]), FinAbGroup([3])):
        for S in monoids:
            sl = schur_multiplier(S, A)
            br = brute_multiplier(S, A)
            rep = multipliers_agree(sl, br)
            assert rep["ok"], (S.elements, A.factors, rep)
            checked += 1
    return f"{checked} (monoid, A) pairs, components and links agree"


def test_criterion_7():
    check_7()


@criterion(8, 10.0, "GF(4)/GF(2): two modifications, both components trivial, by own enumeration")
def check_8():
    from zerocohom.brauer import brauer_monoid, enumerate_weak_cocycles

    sl = brauer_monoid(2, 2)
    assert len(sl.indices) == 2
    for k in sl.indices:
        assert sl.components[k].is_trivial()
    # verified by brute-force weak-cocycle enumeration, not assumed
    cocycles = enumerate_weak_cocycles(2, 2)
    assert len(cocycles) == 2
    patterns = {frozenset(p for p, v in f.values.items() if v is None) for f in cocycles}
    assert patterns == set(sl.indices)
    return "2 weak cocycles total, one per modification"


def test_criterion_8():
    check_8()


@criterion(9, 60.0, "weak-cocycle classes biject with H_0^2 classes for (q, n) = (2, 2)")
def check_9():
    from zerocohom.brauer import brauer_class_count_bridge

    out = brauer_class_count_bridge(2, 2)
    assert len(out) == 2
    for pattern, (classes, horder) in out.items():
        assert classes == horder
    return "exhaustive over all weak cocycles and all twists"


def test_criterion_9():
    check_9()


@criterion(10, 120.0, "bar-complex comparison: degreewise iso and equal cohomology, n <= 2, 3 monoids")
def check_10():
    cases = []
    S1 = adjoin(catalog.cyclic_group(1), "zero")  # {1, 0}
    cases.append((S1, trivial_Z(S1)))
    S2 = adjoin(catalog.nil_square_semigroup(), "identity")  # 5 elements
    cases.append((S2, from_zero_module(trivial_module(S2, FinAbGroup([2])))))
    S3 = adjoin(catalog.cyclic_group(2), "zero")
    cases.append((S3, from_zero_module(trivial_module(S3, FinAbGroup([4])))))
    for S, D in cases:
        report = hom_complex_compare(S, D, 2)
        assert report["ok"], (S.elements, report)
        # the hom side's groups equal those of the cochain complex
        assert report["groups"] == [natsys_cohomology(S, D, n).invariants() for n in range(3)]
    return "naturality, differentials, and groups all match"


def test_criterion_10():
    check_10()


@criterion(11, 240.0, "property suites: dd = 0, theorem isomorphisms, bijections, structure checks")
def check_11():
    notes = []
    # dd = 0 randomized, >= 100 trials, both complexes
    rng = random.Random(2024)
    semis = [
        catalog.nil_square_semigroup(),
        catalog.mitchell_quotient(),
        adjoin(catalog.cyclic_group(2), "zero"),
    ]
    trials = 0
    for _ in range(110):
        S = rng.choice(semis)
        M = trivial_module(S, FinAbGroup(rng.choice([(4,), (2, 2), (3,)])))
        f = random_cochain(rng, S, M, rng.choice([0, 1, 2]))
        ddf = coboundary(M, coboundary(M, f))
        assert all(not any(v) for v in ddf.values.values())
        trials += 1
    notes.append(f"dd=0 x{trials}")
    from zerocohom.cohomology import Nerve
    from zerocohom.natsys import natsys_coboundary_hom

    count = 0
    for _ in range(110):
        S = semis[2]
        M = trivial_module(S, FinAbGroup(rng.choice([(2,), (4,)])))
        D = from_zero_module(M)
        n = rng.choice([0, 1])
        N = Nerve(S)
        comp = natsys_coboundary_hom(N, D, n + 1).compose(natsys_coboundary_hom(N, D, n))
        for j in range(comp.source.rank):
            e = [1 if i == j else 0 for i in range(comp.source.rank)]
            assert not any(comp.apply(e))
        count += 1
    notes.append(f"DD=0 x{count}")

    # left ideal possessing an identity: all three groups agree
    S1 = catalog.two_chain_monoid()
    proj = IntMatrix(2, 2, [[1, 0], [0, 0]])
    cat2 = [
        (S1, [1], 1, ZeroModule(S1, FinAbGroup([2, 2]), {0: IntMatrix.identity(2), 1: proj})),
        (S1, [0, 1], 0, trivial_module(S1, FinAbGroup([3]))),
        (
            catalog.right_zero_with_identity(2),
            [0],
            0,
            ZeroModule(
                catalog.right_zero_with_identity(2),
                FinAbGroup([4]),
                {2: IntMatrix.identity(1), 0: IntMatrix(1, 1, [[0]]), 1: IntMatrix(1, 1, [[0]])},
            ),
        ),
    ]
    for S, I, e, M in cat2:
        MI = restrict_module(M, I)
        eA, _ = corner_module(M, e, I)
        for n in (1, 2):
            a = cohomology_group(S, M, n, "em").group.invariants()
            b = cohomology_group(MI.semigroup, MI, n, "em").group.invariants()
            c = cohomology_group(eA.semigroup, eA, n, "em").group.invariants()
            assert a == b == c
    notes.append("Thm2 x3")

    # completely simple semigroup reduces to its basic group in degree 3
    Z2 = catalog.cyclic_group(2)
    S_a = catalog.completely_simple(Z2, 2, 1)
    triv = catalog.cyclic_group(1)
    S_b = catalog.completely_simple(triv, 1, 2)
    cases3 = [
        (S_a, Z2, trivial_module(S_a, FinAbGroup([2])), trivial_module(Z2, FinAbGroup([2]))),
        (S_b, triv, trivial_module(S_b, FinAbGroup([3])), trivial_module(triv, FinAbGroup([3]))),
    ]
    for S, G, MS, MG in cases3:
        a = cohomology_group(S, MS, 3, "em").group.invariants()
        b = cohomology_group(G, MG, 3, "em").group.invariants()
        assert a == b
    notes.append("Thm3 x2")

    # idempotent factor sets biject with ideals
    from zerocohom.schur import (
        enumerate_factor_sets,
        fs_product,
        support_ideal,
    )

    S = catalog.two_chain_monoid()
    A = FinAbGroup([2])
    idems = [r for r in enumerate_factor_sets(S, A) if fs_product(r, r) == r]
    assert len(idems) == len(ideals(S))
    assert {support_ideal(r) for r in idems} == set(ideals(S))
    notes.append("Lemma1")

    # closure-condition equivalence, exhaustive for |G| <= 3, sampled above
    from zerocohom.partial import enumerate_t_subsets, t_closure
    from zerocohom.schur import is_idempotent_pfactor

    for G in (catalog.cyclic_group(2), catalog.cyclic_group(3)):
        pairs = [(x, y) for x in range(G.order) for y in range(G.order)]
        for bits in range(2 ** len(pairs)):
            values = {p: (() if bits >> i & 1 else None) for i, p in enumerate(pairs)}
            if values[(G.identity, G.identity)] is None:
                continue
            ok, _ = is_idempotent_pfactor(G, values)
            supp = frozenset(p for p, v in values.items() if v is not None)
            assert ok == (t_closure(G, supp) == supp)
    for G in (catalog.klein_four(), catalog.cyclic_group(5), catalog.cyclic_group(6), catalog.symmetric_group_3()):
        pairs = [(x, y) for x in range(G.order) for y in range(G.order)]
        cands = list(enumerate_t_subsets(G))
        for _ in range(300):
            cands.append(frozenset(p for p in pairs if rng.random() < 0.5))
        for X in cands:
            values = {p: (() if p in X else None) for p in pairs}
            if values[(G.identity, G.identity)] is None:
                continue
            ok, _ = is_idempotent_pfactor(G, values)
            assert ok == (t_closure(G, X) == X)
    notes.append("Cor6")

    # modification structure for all groups of order <= 6
    from zerocohom.brauer import enumerate_modifications, modification_structure
    from zerocohom.semigroups import is_group, subsemigroup

    total = 0
    for G in catalog.groups_of_order_up_to(6):
        for mod in enumerate_modifications(G):
            units, non_units, nil_class, zero_canc = modification_structure(mod)
            assert zero_canc is True and nil_class is not None
            H, _ = subsemigroup(mod.semigroup, units)
            assert is_group(H)
            total += 1
    notes.append(f"modifications x{total}")
    return ", ".join(notes)


def test_criterion_11():
    check_11()


@criterion(12, 30.0, "degree-1 formula audit for the cyclic-plus-nilpotent semigroup (p=2, q=3)")
def check_12():
    P = parse_presentation("gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy")
    E = enumerate_presentation(P, bound=10)
    S = E.semigroup
    assert S.order == 4
    x = word_value(E, (0,))
    report_lines = []
    mods = [
        ("trivial C2", trivial_module(S, FinAbGroup([2]))),
        ("trivial C4", trivial_module(S, FinAbGroup([4]))),
        ("trivial C3", trivial_module(S, FinAbGroup([3]))),
        ("trivial Z", trivial_module(S, FinAbGroup([0]))),
        ("x acts by 2 on C4", scalar_module(S, FinAbGroup([4]), {x: 2, S.mul(x, x): 0, S.index("y"): 0})),
    ]
    all_h1_match = True
    all_h2_zero = True
    h0_nonzero_seen = False
    for name, M in mods:
        assert validate_module(M) is None
        # stated formula: H^1 = A / {m : a m = 2 m}, a = the generator x
        A = M.group
        act = M.matrix(x)
        from dense_twin import lattice_basis
        from zerocohom.abgroups import QuotientPresentation, _relations

        k = A.rank
        rows, eye = act.a, IntMatrix.identity(k).a
        diff = IntMatrix(k, k, [[rows[i][j] - 2 * eye[i][j] for j in range(k)] for i in range(k)])
        from zerocohom.abgroups import kernel_mod

        sub = kernel_mod(diff, A.factors)  # {m : (a - 2) m = 0}
        full = lattice_basis([[1 if i == j else 0 for i in range(k)] for j in range(k)], k)
        pres = QuotientPresentation(k, full, sub + _relations(A.factors))
        formula = pres.group.invariants()
        h0 = cohomology_group(S, M, 0, "zero").group.invariants()
        h1 = cohomology_group(S, M, 1, "zero").group.invariants()
        h2 = cohomology_group(S, M, 2, "zero").group.invariants()
        match1 = h1 == formula
        all_h1_match &= match1
        all_h2_zero &= h2 == ()
        h0_nonzero_seen |= h0 != ()
        report_lines.append(
            f"{name}: H0={h0} H1={h1} formula={formula} ({'match' if match1 else 'MISMATCH'}) H2={h2}"
        )
    print("conformance report:")
    for line in report_lines:
        print("  " + line)
    assert all_h1_match, report_lines
    assert all_h2_zero, report_lines
    # the blanket claim 'vanishes for n >= 0' cannot be literal: degree 0
    # (and the degree-1 formula itself) are nonzero; documented, not patched
    assert h0_nonzero_seen
    print(
        "  note: groups vanish for n >= 2; the blanket vanishing claim"
        " must be read as n >= 2 (degree 0 and 1 are nonzero above)"
    )
    return "H1 formula matches on all modules; H2 = 0; discrepancy documented"


def test_criterion_12():
    check_12()
