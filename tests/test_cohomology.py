import gc
import random
import weakref
from functools import reduce
from itertools import product

import pytest

from zerocohom import catalog
from zerocohom.abgroups import FinAbGroup, GroupHom, IntMatrix, complex_homology, same_map
from zerocohom.cohomology import (
    Cochain,
    Nerve,
    _brute_cocycles,
    brute_cohomology,
    coboundary,
    coboundary_hom,
    coboundary_preimage,
    cohomology_group,
    nerve,
    random_cochain,
    witness_report,
    zero_cochain,
)
from zerocohom.errors import CapExceeded, DegreeMismatch, InvalidModule, NoZero, SemigroupMismatch
from zerocohom.modules import (
    ZeroModule,
    corner_module,
    restrict_module,
    scalar_module,
    trivial_bimodule,
    trivial_module,
    validate_module,
)
from zerocohom.natsys import from_zero_module, hom_complex_compare, natsys_cohomology
from zerocohom.partial import build_t_semigroup
from zerocohom.presentations import enumerate_presentation, parse_presentation
from zerocohom.schur import schur_multiplier
from zerocohom.semigroups import adjoin, zero_direct_union


def nil4():
    return catalog.nil_square_semigroup()


def test_nerve_nil_square():
    S = nil4()
    assert nerve(S, 1) == [(0,), (1,), (2,)]
    assert nerve(S, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert nerve(S, 3) == []
    assert nerve(S, 0) == [()]


def test_unknown_variant_is_refused_everywhere():
    # the right action belongs to the module: "bimodule" is no nerve; only
    # the entry points take a variant
    S = nil4()
    B = trivial_bimodule(S, FinAbGroup([2]))
    f = zero_cochain(S, B, 1)
    for call in (
        lambda: cohomology_group(S, B, 1, "bimodule"),
        lambda: brute_cohomology(S, B, 1, "bimodule"),
        lambda: witness_report(S, B, f, "bimodule"),
    ):
        with pytest.raises(ValueError, match="unknown variant 'bimodule'"):
            call()


def on_s0(S, M):
    """S^0 and M over it: the em nerve of S is the zero nerve of S^0."""
    S0 = adjoin(S, "zero")
    return S0, transport_module(M, S0)


def _assert_faces_match_the_tuple_formula(S, N, m):
    # row i of N.faces(m) is the face d_i written out on tuples: drop the
    # first letter, merge letters i - 1 and i (in S), or drop the last
    # letter; the rows grow from the index form, checked first
    _assert_index_form_matches_the_tuples(S, N, m)
    upper, lower = N.level(m), N.level(m - 1)
    rows = N.faces(m)
    assert len(rows) == m + 1
    assert [[lower[q] for q in row] for row in rows] == [
        [t[1:] for t in upper],
        *[[t[: i - 1] + (S.mul(t[i - 1], t[i]),) + t[i + 1 :] for t in upper] for i in range(1, m)],
        [t[:-1] for t in upper],
    ], (S.elements, m)


def _assert_index_form_matches_the_tuples(S, N, m):
    # tuple p is (heads[p],) + lower[tails[p]] and lasts[p] is its last
    # letter; every cell of slots and rslots holds the position of the
    # tuple it names, or -1 when that tuple is not in the nerve
    upper, lower, letters = N.level(m), N.level(m - 1), range(N.semigroup.order)
    assert [(x,) + lower[j] for x, j in zip(N.heads(m), N.tails(m))] == upper, (S.elements, m)
    assert N.lasts(m) == [t[-1] for t in upper], (S.elements, m)
    where = {t: p for p, t in enumerate(upper)}
    assert N.slots(m) == [where.get((x,) + t, -1) for x in letters for t in lower], (S.elements, m)
    assert N.rslots(m) == [where.get(t + (y,), -1) for t in lower for y in letters], (S.elements, m)


def test_the_em_nerve_is_the_zero_nerve_of_s0():
    # the zero nerve of S^0 is all of S^n, in product order, with the
    # faces of S itself
    semigroups = catalog.monoid_catalogue(4) + [
        nil4(),
        catalog.mitchell_quotient(),
        catalog.brandt_b2(),
        catalog.null_semigroup(2),
    ]
    for S in semigroups:
        S0 = adjoin(S, "zero")
        for m in (1, 2, 3):
            assert nerve(S0, m) == list(product(range(S.order), repeat=m)), (S.elements, m)
            _assert_faces_match_the_tuple_formula(S, Nerve(S0), m)
    T = catalog.cyclic_group(2)
    assert len(nerve(adjoin(T, "zero"), 3)) == 8
    with pytest.raises(NoZero):
        nerve(T, 2)


def test_nerve_levels_are_the_product_scan():
    # Nerve grows each level from the one below, and the fast path and the
    # brute twins read the same levels: only a scan that shares no code
    # with it can catch a level built out of order
    semigroups = [adjoin(S, "zero") for S in catalog.monoid_catalogue(4)] + [
        nil4(),
        catalog.mitchell_quotient(),
        catalog.brandt_b2(),
        catalog.null_semigroup(2),
    ]
    for S, top in [(S, 4) for S in semigroups] + [(build_t_semigroup().semigroup, 3)]:
        N = Nerve(S)
        for m in range(top + 1):
            scan = [t for t in product(S.nonzero(), repeat=m) if not t or reduce(S.mul, t) != S.zero]
            assert N.level(m) == scan == nerve(S, m), (S.elements, m)
            assert N.products(m) == [reduce(S.mul, t) if t else S.identity for t in scan], (S.elements, m)


def test_a_module_or_natural_system_over_another_semigroup_is_refused():
    S, M = nil4(), trivial_module(catalog.mitchell_quotient(), FinAbGroup([2]))
    f = zero_cochain(S, trivial_module(S, FinAbGroup([2])), 2)
    C2_0, C3_0 = adjoin(catalog.cyclic_group(2), "zero"), adjoin(catalog.cyclic_group(3), "zero")
    D = from_zero_module(trivial_module(C3_0, FinAbGroup([2])))
    calls = [
        (S, M, lambda: cohomology_group(S, M, 2)),
        (S, M, lambda: cohomology_group(S, M, 2, "em")),
        (S, M, lambda: witness_report(S, M, f)),
        (S, M, lambda: brute_cohomology(S, M, 2)),
        (S, M, lambda: coboundary_preimage(S, M, f)),
        (C2_0, D, lambda: hom_complex_compare(C2_0, D, 2)),
    ] + [(C2_0, D, lambda n=n: natsys_cohomology(C2_0, D, n)) for n in (0, 1, 2)]
    for base, X, call in calls:
        with pytest.raises(SemigroupMismatch) as exc:
            call()
        assert exc.value.witness == (base, X.semigroup)
    # an equal copy of the semigroup is the same semigroup
    assert cohomology_group(nil4(), trivial_module(nil4(), FinAbGroup([2])), 2).group.invariants() == (2, 2)


def test_nerve_subproducts_nonzero():
    # every contiguous subproduct of a zero-nerve tuple is nonzero
    for S in (nil4(), catalog.mitchell_quotient(), catalog.brandt_b2()):
        for n in (2, 3):
            for t in nerve(S, n):
                for i in range(n):
                    for j in range(i, n):
                        assert S.mul_word(t[i : j + 1]) != S.zero


def test_face_maps_match_the_tuple_formula():
    # an empty level (level 2 of the null semigroup) has m + 1 empty rows;
    # the nerves of S^0 are checked in test_the_em_nerve_is_the_zero_nerve_of_s0.
    # T (25 elements) has levels of 24, 468 and 8640 tuples, whose first
    # letters run over several blocks of tails each
    semigroups = catalog.monoid_catalogue(4) + [nil4(), catalog.null_semigroup(2), catalog.brandt_b2()]
    for S in semigroups + [build_t_semigroup().semigroup]:
        if S.has_zero:
            for m in (1, 2, 3):
                _assert_faces_match_the_tuple_formula(S, Nerve(S), m)


def test_coboundary_formula_trivial_action():
    # trivial action, degree 1: (df)(x,y) = f(y) - f(xy) + f(x)
    S = nil4()
    M = trivial_module(S, FinAbGroup([8]))
    f = Cochain(1, {(0,): (1,), (1,): (2,), (2,): (5,)})
    df = coboundary(M, f)
    u, v, w = 0, 1, 2
    assert df.values[(u, v)] == ((2 - 5 + 1) % 8,)
    assert df.values[(u, u)] == ((1 - 5 + 1) % 8,)


def test_dd_zero_randomized():
    rng = random.Random(42)
    semis = [nil4(), catalog.mitchell_quotient(), adjoin(catalog.cyclic_group(2), "zero")]
    trials = 0
    for _ in range(120):
        S = rng.choice(semis)
        A = FinAbGroup(rng.choice([(4,), (2, 2), (3,), (0,)]))
        M = trivial_module(S, A)
        n = rng.choice([0, 1, 2])
        f = random_cochain(rng, S, M, n)
        ddf = coboundary(M, coboundary(M, f))
        assert all(not any(v) for v in ddf.values.values())
        trials += 1
    assert trials >= 100


def test_dd_zero_em_and_bimodule():
    rng = random.Random(7)
    S = nil4()
    A = FinAbGroup([4])
    S0, M0 = on_s0(S, trivial_module(S, A))
    for n in (0, 1, 2):
        for _ in range(20):
            f = random_cochain(rng, S0, M0, n)
            ddf = coboundary(M0, coboundary(M0, f))
            assert all(not any(v) for v in ddf.values.values())
    B = trivial_bimodule(S, A)
    for n in (0, 1, 2):
        for _ in range(20):
            f = random_cochain(rng, S, B, n)
            ddf = coboundary(B, coboundary(B, f))
            assert all(not any(v) for v in ddf.values.values())


def test_dd_zero_degree_three():
    rng = random.Random(3)
    S = adjoin(catalog.cyclic_group(2), "zero")
    M = trivial_module(S, FinAbGroup([4]))
    for _ in range(100):
        f = random_cochain(rng, S, M, 3)
        ddf = coboundary(M, coboundary(M, f))
        assert all(not any(v) for v in ddf.values.values())


def test_h2_nil_square_is_four_group():
    S = nil4()
    M = trivial_module(S, FinAbGroup([2]))
    H = cohomology_group(S, M, 2, "zero")
    assert H.group.invariants() == (2, 2)
    assert brute_cohomology(S, M, 2, "zero").invariants() == (2, 2)


def test_nil_square_witness_cochain():
    # the cochain with value a at (u, u) and 0 elsewhere: cocycle, not coboundary
    S = nil4()
    M = trivial_module(S, FinAbGroup([2]))
    f = zero_cochain(S, M, 2)
    f.values[(0, 0)] = (1,)
    rep = witness_report(S, M, f, "zero")
    assert rep["is_cocycle"] and not rep["is_coboundary"]
    # over Z/4 and Z as well (any A with a nonzero element)
    for A in (FinAbGroup([4]), FinAbGroup([0])):
        M2 = trivial_module(S, A)
        f2 = zero_cochain(S, M2, 2)
        f2.values[(0, 0)] = (1,)
        rep2 = witness_report(S, M2, f2, "zero")
        assert rep2["is_cocycle"] and not rep2["is_coboundary"]


def test_any_coboundary_is_coboundary():
    rng = random.Random(5)
    S = nil4()
    M = trivial_module(S, FinAbGroup([4]))
    for _ in range(10):
        g = random_cochain(rng, S, M, 1)
        f = coboundary(M, g)
        rep = witness_report(S, M, f, "zero")
        assert rep["is_cocycle"] and rep["is_coboundary"]
        pre = rep["preimage"]
        assert coboundary(M, pre).values == f.values


def test_mitchell_h2_vanishes():
    Q = catalog.mitchell_quotient()
    for factors in ((2,), (4,), (0,)):
        M = trivial_module(Q, FinAbGroup(factors))
        H = cohomology_group(Q, M, 2, "zero")
        assert H.group.is_trivial()


def test_mitchell_explicit_preimage():
    # phi(a) = f(a,b), phi(c) = f(c,d), else 0 cobounds any 2-cocycle
    Q = catalog.mitchell_quotient()
    M = trivial_module(Q, FinAbGroup([4]))
    rng = random.Random(9)
    for _ in range(10):
        f = random_cochain(rng, Q, M, 2)
        # all 2-cochains are cocycles here (empty 3-nerve)
        a, b, c, d = Q.index("a"), Q.index("b"), Q.index("c"), Q.index("d")
        phi = zero_cochain(Q, M, 1)
        phi.values[(a,)] = f.values[(a, b)]
        phi.values[(c,)] = f.values[(c, d)]
        assert coboundary(M, phi).values == f.values


def test_a_preimage_of_a_cochain_off_the_nerve_is_a_degree_mismatch():
    # a cochain missing a nerve tuple, or with a value on the pair of
    # zeros, which is not in the nerve, is refused as witness_report does
    S = adjoin(catalog.klein_four(), "zero")
    M = trivial_module(S, FinAbGroup([2]))
    missing, extra = zero_cochain(S, M, 2), zero_cochain(S, M, 2)
    del missing.values[nerve(S, 2)[0]]
    extra.values[S.zero, S.zero] = (0,)
    for f in (missing, extra):
        for call in (coboundary_preimage, witness_report):
            with pytest.raises(DegreeMismatch):
                call(S, M, f)


def test_em_vanishes_on_semigroups_with_zero():
    for S in (nil4(), adjoin(catalog.cyclic_group(2), "zero"), catalog.mitchell_quotient()):
        M = trivial_module(S, FinAbGroup([4]))
        for n in (1, 2):
            H = cohomology_group(S, M, n, "em")
            assert H.group.is_trivial(), (S, n)


def test_em_group_cohomology_z2():
    G = catalog.cyclic_group(2)
    M = trivial_module(G, FinAbGroup([2]))
    assert cohomology_group(G, M, 2, "em").group.invariants() == (2,)
    assert brute_cohomology(G, M, 2, "em").invariants() == (2,)
    # H^2(C2, Z/4) = Z/2, H^1(C2, Z/4) = Z/2
    M4 = trivial_module(G, FinAbGroup([4]))
    assert cohomology_group(G, M4, 2, "em").group.invariants() == (2,)
    assert cohomology_group(G, M4, 1, "em").group.invariants() == (2,)


@pytest.mark.parametrize("two_sided", [False, True], ids=["left", "right"])
def test_em_checks_the_module_law_at_zero_products(two_sided):
    # on C2^0 the scalar g -> -1, 0 -> 1 breaks g.0 = 0 on C3; the zero nerve never reads that product,
    # and the zero nerve of (C2^0)^0, the em nerve of C2^0, does
    S = adjoin(catalog.cyclic_group(2), "zero")
    g, z = S.index("g"), S.zero
    M = scalar_module(S, FinAbGroup([3]), {S.index("1"): 1, g: -1, z: 1})
    if two_sided:
        M = ZeroModule(S, M.group, trivial_module(S, M.group).action, M.action)
    assert validate_module(M) is None
    v = validate_module(on_s0(S, M)[1])
    assert (v.kind, v.witness) == (("right-" if two_sided else "") + "composition", (g, z))
    for n in (1, 2):
        for compute in (cohomology_group, brute_cohomology):
            with pytest.raises(InvalidModule, match="module axioms violated"):
                compute(S, M, n, "em")
        assert cohomology_group(S, M, n, "zero").group.invariants() == brute_cohomology(S, M, n, "zero").invariants()


def module_choices(T):
    """At least five coefficient modules for a monoid T."""
    out = [
        trivial_module(T, FinAbGroup([2])),
        trivial_module(T, FinAbGroup([3])),
        trivial_module(T, FinAbGroup([4])),
        trivial_module(T, FinAbGroup([0])),
        trivial_module(T, FinAbGroup([2, 4])),
    ]
    # scalar actions: semigroup homs T -> (Z/m, *)
    found = 0
    for m, A in ((3, FinAbGroup([3])), (4, FinAbGroup([4]))):
        for combo in _scalar_homs(T, m):
            M = scalar_module(T, A, combo)
            if validate_module(M) is None and any(c % m != 1 for c in combo.values()):
                out.append(M)
                found += 1
                break
        if found:
            break
    return out


def _scalar_homs(T, m):
    from itertools import product as iproduct

    n = T.order
    for vals in iproduct(range(m), repeat=n):
        if all(vals[T.table[i][j]] % m == (vals[i] * vals[j]) % m for i in range(n) for j in range(n)):
            yield dict(enumerate(vals))


def two_sided_choices(T):
    """Each nontrivial choice for T acting on the right alone, and on both sides."""
    out = [trivial_bimodule(T, FinAbGroup([2]))]
    for M in module_choices(T):
        trivial = trivial_module(T, M.group)
        if M.action != trivial.action:
            out += [ZeroModule(T, M.group, trivial.action, M.action), ZeroModule(T, M.group, M.action, M.action)]
    return out


def transport_module(M, T0):
    """A module over T as a 0-module over T0 = T with a zero adjoined."""
    return ZeroModule(T0, M.group, dict(M.action), None if M.right is None else dict(M.right))


def test_adjoined_zero_bridge_catalogue():
    # H_0^n(T^0, A) == H^n(T, A) for every catalogued monoid, n in {1, 2},
    # for one-sided and two-sided modules
    for T in catalog.monoid_catalogue(4):
        T0 = adjoin(T, "zero")
        for M in module_choices(T) + two_sided_choices(T):
            assert validate_module(M) is None
            M0 = transport_module(M, T0)
            for n in (1, 2):
                left = cohomology_group(T0, M0, n, "zero").group.invariants()
                right = cohomology_group(T, M, n, "em").group.invariants()
                assert left == right, (T.elements, n)


def test_zero_direct_union_splits_cohomology():
    pairs = [
        (catalog.cyclic_group(2), catalog.cyclic_group(2)),
        (catalog.cyclic_group(2), catalog.cyclic_group(3)),
        (catalog.two_chain_monoid(), catalog.cyclic_group(2)),
        (catalog.cyclic_group(4), catalog.two_chain_monoid()),
        (catalog.two_chain_monoid(), catalog.two_chain_monoid()),
    ]
    for A_factors in ((2,), (4,)):
        for S, T in pairs:
            S0, T0 = adjoin(S, "zero"), adjoin(T, "zero")
            U = zero_direct_union(S0, T0)
            MU = trivial_module(U, FinAbGroup(A_factors))
            MS = trivial_module(S0, FinAbGroup(A_factors))
            MT = trivial_module(T0, FinAbGroup(A_factors))
            for n in (1, 2):
                hu = cohomology_group(U, MU, n, "zero").group
                hs = cohomology_group(S0, MS, n, "zero").group
                ht = cohomology_group(T0, MT, n, "zero").group
                assert hu.invariants() == hs.direct_sum(ht).invariants(), (n, A_factors)


def left_ideal_corner_catalogue():
    """(S, I, e, module) with I a left ideal of S having identity e."""
    out = []
    S1 = catalog.two_chain_monoid()
    A = FinAbGroup([2, 2])
    proj = IntMatrix(2, 2, [[1, 0], [0, 0]])
    M1 = ZeroModule(S1, A, {0: IntMatrix.identity(2), 1: proj})
    out.append((S1, [1], 1, M1))
    S2 = catalog.right_zero_with_identity(2)
    M2 = ZeroModule(
        S2,
        FinAbGroup([4]),
        {S2.identity: IntMatrix.identity(1), 0: IntMatrix(1, 1, [[0]]), 1: IntMatrix(1, 1, [[0]])},
    )
    out.append((S2, [0], 0, M2))
    S3 = adjoin(catalog.cyclic_group(2), "zero")
    M3 = ZeroModule(
        S3,
        FinAbGroup([2, 2]),
        {
            S3.identity: IntMatrix.identity(2),
            1: IntMatrix.identity(2),
            S3.zero: proj,
        },
    )
    out.append((S3, [S3.zero], S3.zero, M3))
    out.append((S1, [0, 1], 0, trivial_module(S1, FinAbGroup([3]))))
    return out


def test_left_ideal_corner_isomorphism():
    for S, I, e, M in left_ideal_corner_catalogue():
        assert validate_module(M) is None
        # I is a left ideal with identity e
        for s in range(S.order):
            for x in I:
                assert S.table[s][x] in I
        for x in I:
            assert S.table[e][x] == x and S.table[x][e] == x
        MI = restrict_module(M, I)
        eA, sub = corner_module(M, e, I)
        for n in (1, 2):
            h_s = cohomology_group(S, M, n, "em").group.invariants()
            h_i = cohomology_group(MI.semigroup, MI, n, "em").group.invariants()
            h_ie = cohomology_group(eA.semigroup, eA, n, "em").group.invariants()
            assert h_s == h_i == h_ie, (S.elements, n)


def test_completely_simple_reduces_to_group():
    # S = rectangular band x group; H^3(S, A) == H^3(G, eA)
    Z2 = catalog.cyclic_group(2)
    cases = []
    S_a = catalog.completely_simple(Z2, 2, 1)
    cases.append((S_a, Z2, trivial_module(S_a, FinAbGroup([2])), trivial_module(Z2, FinAbGroup([2]))))
    triv = catalog.cyclic_group(1)
    S_b = catalog.completely_simple(triv, 1, 2)
    cases.append((S_b, triv, trivial_module(S_b, FinAbGroup([3])), trivial_module(triv, FinAbGroup([3]))))
    # sign action through the group coordinate
    sgn = {}
    for i, name in enumerate(S_a.elements):
        sgn[i] = -1 if ",g," in name else 1
    Msgn = scalar_module(S_a, FinAbGroup([3]), sgn)
    Gsgn = scalar_module(Z2, FinAbGroup([3]), {0: 1, 1: -1})
    cases.append((S_a, Z2, Msgn, Gsgn))
    for S, G, MS, MG in cases:
        assert validate_module(MS) is None and validate_module(MG) is None
        left = cohomology_group(S, MS, 3, "em").group.invariants()
        right = cohomology_group(G, MG, 3, "em").group.invariants()
        assert left == right


def test_bimodule_h2_nonzero_for_nil4():
    S = nil4()
    mods = [trivial_bimodule(S, FinAbGroup([2])), trivial_bimodule(S, FinAbGroup([4]))]
    minus = IntMatrix(1, 1, [[-1]])
    one = IntMatrix.identity(1)
    mods.append(ZeroModule(S, FinAbGroup([4]), {0: minus, 1: minus, 2: one}, {0: one, 1: one, 2: one}))
    mods.append(ZeroModule(S, FinAbGroup([3]), {0: one, 1: one, 2: one}, {0: minus, 1: minus, 2: one}))
    for B in mods:
        assert validate_module(B) is None
        H = cohomology_group(S, B, 2, "zero")
        assert not H.group.is_trivial()
    # and HH^2(S, 0) = 0 for the zero bimodule, as a sanity bound
    Bz = trivial_bimodule(S, FinAbGroup([]))
    assert cohomology_group(S, Bz, 2, "zero").group.is_trivial()


def test_two_sided_brute_oracle_on_both_nerves():
    # the right action is read on the zero and the em nerve alike
    one, minus, zero = IntMatrix.identity(1), IntMatrix(1, 1, [[-1]]), IntMatrix(1, 1, [[0]])
    C2, C2_0, chain = catalog.cyclic_group(2), adjoin(catalog.cyclic_group(2), "zero"), catalog.two_chain_monoid()
    A = FinAbGroup([4])
    cases = [
        (nil4(), ZeroModule(nil4(), A, {0: one, 1: one, 2: one}, {0: minus, 1: minus, 2: one}), "zero", [(2,), (2,), (4, 4)]),
        (C2_0, ZeroModule(C2_0, A, {0: one, 1: one}, {0: one, 1: minus}), "zero", [(2,), (2,), (2,)]),
        (C2_0, ZeroModule(C2_0, A, {0: one, 1: one, 2: zero}, {0: one, 1: minus, 2: zero}), "em", [(2,), (2,), (2,)]),
        (C2, ZeroModule(C2, A, {0: one, 1: one}, {0: one, 1: minus}), "em", [(2,), (2,), (2,)]),
        (C2, ZeroModule(C2, A, {0: one, 1: minus}, {0: one, 1: minus}), "em", [(4,), (2,), (2,)]),
        (chain, ZeroModule(chain, A, {0: one, 1: one}, {0: one, 1: zero}), "em", [(), (), ()]),
    ]
    for S, M, variant, want in cases:
        assert validate_module(M) is None
        for n in (0, 1, 2):
            fast = cohomology_group(S, M, n, variant).group.invariants()
            assert fast == brute_cohomology(S, M, n, variant).invariants() == want[n], (S.elements, variant, n)


def test_zero_free_monoids_have_trivial_h2():
    texts = [
        "gens: a; zeros: aa",
        "gens: a; zeros: aaa",
        "gens: a b; zeros: aa, ab, ba, bb",
    ]
    for text in texts:
        E = enumerate_presentation(parse_presentation(text), bound=10, mode="monoid")
        S = E.semigroup
        for factors in ((2,), (3,), (0,)):
            M = trivial_module(S, FinAbGroup(factors))
            H = cohomology_group(S, M, 2, "zero")
            assert H.group.is_trivial(), (text, factors)


def test_degree_cap():
    S = nil4()
    M = trivial_module(S, FinAbGroup([2]))
    with pytest.raises(CapExceeded):
        cohomology_group(S, M, 5, "zero")


def test_h0_is_invariants():
    S = nil4()
    M = trivial_module(S, FinAbGroup([4]))
    assert cohomology_group(S, M, 0, "zero").group.invariants() == (4,)


def test_brute_oracle_matches_snf_path():
    cases = [
        (nil4(), (2,), 2, "zero"),
        (nil4(), (3,), 2, "zero"),
        (catalog.mitchell_quotient(), (2,), 2, "zero"),
        (adjoin(catalog.cyclic_group(2), "zero"), (2,), 2, "zero"),
        (catalog.cyclic_group(2), (2,), 2, "em"),
        (catalog.cyclic_group(2), (4,), 1, "em"),
        (catalog.two_chain_monoid(), (2,), 2, "em"),
    ]
    for S, factors, n, variant in cases:
        M = trivial_module(S, FinAbGroup(factors))
        fast = cohomology_group(S, M, n, variant).group.invariants()
        slow = brute_cohomology(S, M, n, variant).invariants()
        assert fast == slow, (S.elements, factors, n, variant)


def test_cocycle_search_matches_the_scan():
    # the reference: every cochain in product order, kept when its full
    # coboundary vanishes; the em cases on S^0
    minus = IntMatrix(1, 1, [[-1]])
    one = IntMatrix.identity(1)
    Z2_0 = adjoin(catalog.cyclic_group(2), "zero")
    cases = [
        (nil4(), trivial_module(nil4(), FinAbGroup([2]))),
        (Z2_0, scalar_module(Z2_0, FinAbGroup([3]), {0: 1, 1: -1})),
        on_s0(catalog.cyclic_group(2), scalar_module(catalog.cyclic_group(2), FinAbGroup([3]), {0: 1, 1: -1})),
        on_s0(catalog.two_chain_monoid(), trivial_module(catalog.two_chain_monoid(), FinAbGroup([2]))),
        (nil4(), trivial_bimodule(nil4(), FinAbGroup([2]))),
        (nil4(), ZeroModule(nil4(), FinAbGroup([3]), {0: one, 1: one, 2: one}, {0: minus, 1: minus, 2: one})),
    ]
    for S, M in cases:
        for n in (0, 1, 2):
            tuples = nerve(S, n)
            scan = []
            for combo in product(M.group.elements(), repeat=len(tuples)):
                f = Cochain(n, dict(zip(tuples, combo)))
                if not any(any(v) for v in coboundary(M, f).values.values()):
                    scan.append(f)
            assert _brute_cocycles(Nerve(S), M, n) == scan, (S.elements, n)


def test_witnesses_generate_cohomology():
    S = nil4()
    M = trivial_module(S, FinAbGroup([2]))
    H = cohomology_group(S, M, 2, "zero")
    assert len(H.witnesses) == 2
    for wcocycle in H.witnesses:
        rep = witness_report(S, M, wcocycle, "zero")
        assert rep["is_cocycle"] and not rep["is_coboundary"]
    # coordinates of the witnesses are the unit vectors
    coords = [H.coords(w, S, M) for w in H.witnesses]
    assert sorted(coords) == [(0, 1), (1, 0)]


def _pointwise_matrix(S, M, n):
    """The degree-n coboundary as an IntMatrix, one column per unit cochain.

    Built from the pointwise ``coboundary`` only, independently of the
    sparse builder behind ``coboundary_hom``.
    """
    k = M.group.rank
    upper = nerve(S, n + 1)
    height = k * len(upper)
    cols = []
    for t in nerve(S, n):
        for i in range(k):
            f = zero_cochain(S, M, n)
            f.values[t] = M.group.reduce([int(r == i) for r in range(k)])
            df = coboundary(M, f)
            cols.append([x for u in upper for x in M.group.reduce(df.values[u])])
    return IntMatrix.from_columns(cols, height) if cols else IntMatrix(height, 0)


def test_sparse_coboundaries_against_dense_complexes():
    # the columns of coboundary_hom against a matrix built from the
    # pointwise coboundary; complex_homology on both agrees
    rng = random.Random(41)
    semigroups = [nil4(), catalog.null_semigroup(2), catalog.mitchell_quotient(),
                  adjoin(catalog.cyclic_group(2), "zero"), catalog.cyclic_group(2)]
    groups = [FinAbGroup(f) for f in ((2,), (4,), (0,), (2, 3), (2, 2))]
    cases = []
    for _ in range(40):
        S = rng.choice(semigroups)
        A = rng.choice(groups)
        # the third choice is a two-sided module on the zero nerve
        kind = "em" if not S.has_zero else rng.choice(("zero", "em", "two-sided"))
        variant = "zero" if kind == "two-sided" else kind
        M = trivial_bimodule(S, A) if kind == "two-sided" else trivial_module(S, A)
        cases.append((S, M, rng.randint(0, 2), variant))
    # the generator of Z2^0 acts on C3 x C3 by an involution that is not
    # its own transpose, so an action applied transposed on either side
    # shows; one-sided and two-sided
    S = adjoin(catalog.cyclic_group(2), "zero")
    action = {0: IntMatrix.identity(2), 1: IntMatrix.from_rows([[1, 1], [0, -1]])}
    for right in (None, action):
        M = ZeroModule(S, FinAbGroup([3, 3]), action, right)
        assert validate_module(M) is None
        cases += [(S, M, n, "zero") for n in range(3)]
    for S, M, n, variant in cases:
        # the entry point reads the em nerve of S as the zero nerve of S^0
        Z, MZ = (S, M) if variant == "zero" else on_s0(S, M)
        d_out = coboundary_hom(Nerve(Z), MZ, n)
        assert isinstance(d_out.matrix, IntMatrix)
        dense_out = GroupHom(d_out.source, d_out.target, _pointwise_matrix(Z, MZ, n))
        assert same_map(d_out.target, d_out.matrix, dense_out.matrix)
        if n:
            d_in = coboundary_hom(Nerve(Z), MZ, n - 1)
            dense_in = GroupHom(d_in.source, d_in.target, _pointwise_matrix(Z, MZ, n - 1))
            assert same_map(d_in.target, d_in.matrix, dense_in.matrix)
        else:
            d_in = GroupHom(FinAbGroup(()), d_out.source, IntMatrix.from_sparse(d_out.source.rank, []))
            dense_in = GroupHom(FinAbGroup(()), d_out.source, IntMatrix(d_out.source.rank, 0))
        H = complex_homology(d_in, d_out)
        H_dense = complex_homology(dense_in, dense_out)
        assert H.group.factors == H_dense.group.factors
        assert H.group.factors == cohomology_group(S, M, n, variant).group.factors
        for P in (H, H_dense):
            k = len(P.witnesses)
            for i, w in enumerate(P.witnesses):
                assert P.coords(w) == tuple(int(i == j) for j in range(k))


def test_complex_at_holds_no_nerve_piece_through_the_elimination():
    # once both maps are built every piece is dropped, level n + 1 and its
    # face maps included, and a dropped Nerve is freed by reference
    # counting alone: its pieces do not refer back to it.  The faces of
    # level 2 grow from those of level 1 and the index form, and no level
    # is written out as tuples
    S = nil4()
    M = trivial_module(S, FinAbGroup([2]))
    N = Nerve(S)
    d_in, d_out = N.complex_at(1, lambda k: coboundary_hom(N, M, k))
    assert (d_in.source.rank, d_in.target.rank, d_out.target.rank) == (1, 3, 4)
    assert N.pieces == {}
    assert N.faces(2) is N.faces(2)
    built = [("faces", 1), ("faces", 2), ("products", 1), ("slots", 1), ("split", 1), ("split", 2)]
    assert sorted(N.pieces) == built
    ref = weakref.ref(N)
    gc.disable()
    try:
        del N
        assert ref() is None
    finally:
        gc.enable()


def test_the_top_level_is_never_written_out_as_tuples(monkeypatch):
    # the coboundary out of degree n reads level n + 1 by index form only
    # (heads, tails, lasts, faces); its tuples, the largest piece, are
    # asked for neither by cohomology_group nor by schur_multiplier
    asked = []
    real = Nerve._piece
    monkeypatch.setattr(Nerve, "_piece", lambda N, name, m, build: asked.append((name, m)) or real(N, name, m, build))
    S = adjoin(catalog.cyclic_group(2), "zero")
    M = scalar_module(S, FinAbGroup([3]), {0: 1, 1: -1})
    for n in range(4):
        asked.clear()
        cohomology_group(S, M, n)
        assert ("split", n + 1) in asked and ("level", n + 1) not in asked, n
    asked.clear()
    schur_multiplier(catalog.two_chain_monoid(), FinAbGroup([2]))
    assert ("split", 3) in asked and ("level", 3) not in asked
