import hashlib
import random
from itertools import combinations, permutations, product

import pytest

from zerocohom import catalog
from zerocohom.abgroups import FinAbGroup
from zerocohom.errors import (
    AssociativityError,
    DegenerateSandwich,
    DuplicateName,
    MissingZero,
    NotAGroup,
    NotAnIdeal,
    TableError,
    ZeroError,
)
from zerocohom.schur import epsilon_factor_set
from zerocohom.semigroups import (
    _isomorphisms,
    _profile,
    adjoin,
    backtrack,
    c0s_decompose,
    closure,
    ideals,
    is_group,
    is_ideal,
    isomorphic_semigroups,
    isomorphism_classes,
    opposite,
    predicates,
    principal_ideal,
    rees_matrix_semigroup,
    rees_quotient,
    subsemigroup,
    validate_table,
    zero_direct_union,
)


def nil4():
    return catalog.nil_square_semigroup()


def test_validate_nil_square():
    S = nil4()
    assert S.order == 4
    assert S.zero == 3
    assert S.identity is None
    u, v, w = 0, 1, 2
    assert S.mul(u, u) == w and S.mul(v, v) == w and S.mul(u, v) == w
    assert S.mul(u, w) == S.zero and S.mul(w, w) == S.zero


def test_validate_associativity_witness():
    # x*x = y, everything else x: (xy)y = x*y = y but x(yy) = x*x = y ... build
    # a genuine violation instead: 2-element left-zero-ish broken table
    with pytest.raises(AssociativityError) as err:
        validate_table(["x", "y"], [[1, 0], [0, 0]])
    i, j, k = err.value.witness
    assert 0 <= i < 2 and 0 <= j < 2 and 0 <= k < 2


def test_validate_zero_error():
    # declared zero z with z*x != z
    with pytest.raises(ZeroError):
        validate_table(["z", "x"], [[0, 1], [1, 1]], zero="z")


def test_validate_duplicate_name():
    with pytest.raises(DuplicateName):
        validate_table(["a", "a"], [[0, 0], [0, 0]])


def test_adjoin_zero_to_group():
    Z2 = catalog.cyclic_group(2)
    S = adjoin(Z2, "zero")
    assert S.order == 3
    assert S.has_zero
    z = S.zero
    for i in range(3):
        assert S.mul(z, i) == z and S.mul(i, z) == z
    assert predicates(S).has_zero


def test_adjoin_identity_to_nil_square():
    S = adjoin(nil4(), "identity")
    assert S.order == 5
    assert S.is_monoid and S.has_zero
    e = S.identity
    for i in range(5):
        assert S.mul(e, i) == i and S.mul(i, e) == i


def test_opposite():
    S = catalog.mitchell_quotient()
    T = opposite(S)
    # transpose oracle
    for i in range(S.order):
        for j in range(S.order):
            assert T.mul(i, j) == S.mul(j, i)
    assert opposite(T).table == S.table
    C = catalog.cyclic_group(3)
    assert opposite(C).table == C.table


def brute_force_ideals(S):
    out = []
    elems = list(range(S.order))
    for r in range(S.order + 1):
        for sub in combinations(elems, r):
            if is_ideal(S, sub):
                out.append(frozenset(sub))
    return sorted(out, key=lambda I: (len(I), sorted(I)))


def test_ideals_nil_square():
    S = nil4()
    got = ideals(S)
    assert got == brute_force_ideals(S)
    named = [sorted(S.elements[i] for i in I) for I in got]
    assert named == [[], ["0"], ["0", "w"], ["0", "u", "w"], ["0", "v", "w"], ["0", "u", "v", "w"]]


def test_ideals_null_semigroup():
    S = catalog.null_semigroup(2)
    got = ideals(S)
    assert len(got) == 5
    assert got == brute_force_ideals(S)


def test_ideals_of_group():
    G = catalog.symmetric_group_3()
    assert ideals(G) == [frozenset(), frozenset(range(6))]


def test_ideals_closed_under_union_and_intersection():
    for S in [nil4(), catalog.null_semigroup(3), catalog.mitchell_quotient()]:
        ids = set(ideals(S))
        for I in ids:
            for J in ids:
                assert I | J in ids
                assert I & J in ids
        assert frozenset().union(*ids) == frozenset(range(S.order))


def test_rees_quotient_collapse():
    S = nil4()
    I = frozenset({S.zero, 2})  # {0, w}
    Q = rees_quotient(S, I)
    assert Q.order == 3
    # all products are zero in the quotient
    z = Q.zero
    for a in range(3):
        for b in range(3):
            if a != z and b != z:
                assert Q.mul(a, b) == z


def test_rees_quotient_empty_is_adjoined_zero():
    S = catalog.cyclic_group(2)
    Q = rees_quotient(S, frozenset())
    assert Q.order == 3 and Q.has_zero
    assert Q.elements[:2] == S.elements


def test_ideal_indices_must_be_elements():
    S = nil4()
    for subset in ([3, -1], [3, 9]):
        assert not is_ideal(S, subset)
        with pytest.raises(NotAnIdeal):
            rees_quotient(S, subset)
    for indices in ([3, 7], [3, -1]):
        with pytest.raises(TableError):
            subsemigroup(S, indices)


def test_a_malformed_ideal_is_refused_with_a_typed_error():
    # members that do not compare with the indices are refused as a
    # non-ideal, not with the TypeError of sorting them for the witness
    for S, subset, call in (
        (nil4(), [3, "a"], rees_quotient),
        (catalog.two_chain_monoid(), [1, "x"], lambda S, I: epsilon_factor_set(S, FinAbGroup([2]), I)),
    ):
        with pytest.raises(NotAnIdeal) as err:
            call(S, subset)
        assert sorted(err.value.witness, key=repr) == err.value.witness
        assert set(err.value.witness) == set(subset)
    # a subset of indices keeps its sorted witness
    with pytest.raises(NotAnIdeal) as err:
        rees_quotient(nil4(), [3, 0])
    assert err.value.witness == [0, 3]


def test_rees_quotient_full_and_errors():
    S = nil4()
    Q = rees_quotient(S, frozenset(range(4)))
    assert Q.order == 1 and Q.has_zero
    with pytest.raises(NotAnIdeal):
        rees_quotient(S, frozenset({0}))  # {u} is not an ideal


def test_rees_quotient_tower():
    S = nil4()
    I = frozenset({3})
    J = frozenset({2, 3})
    Q1 = rees_quotient(S, J)
    QI = rees_quotient(S, I)
    image_of_J = frozenset(
        QI.index(S.elements[x]) for x in J - I
    ) | {QI.zero}
    Q2 = rees_quotient(QI, image_of_J)
    assert isomorphic_semigroups(Q1, Q2)


def test_predicates_nil_square():
    S = nil4()
    p = predicates(S)
    assert p.has_zero and not p.is_monoid
    assert p.categorical_at_zero is False
    x, y, w = p.categorical_witness
    # witness triple: xyw = 0 with both partial products nonzero
    assert S.mul(S.mul(x, y), w) == S.zero
    assert S.mul(x, y) != S.zero and S.mul(y, w) != S.zero
    assert (x, y, w) == (0, 0, 0)


def test_predicates_brandt_and_null():
    assert predicates(catalog.brandt_b2()).categorical_at_zero is True
    assert predicates(catalog.null_semigroup(2)).categorical_at_zero is True
    assert predicates(catalog.cyclic_group(3)).categorical_at_zero is None


def test_zero_direct_union():
    S = adjoin(catalog.cyclic_group(2), "zero")
    T = adjoin(catalog.cyclic_group(2), "zero")
    U = zero_direct_union(S, T)
    assert U.order == 5
    z = U.zero
    for a in range(2):
        for b in range(2, 4):
            assert U.mul(a, b) == z and U.mul(b, a) == z
    assert predicates(U).categorical_at_zero is True
    with pytest.raises(MissingZero):
        zero_direct_union(catalog.cyclic_group(2), T)


def test_zero_direct_union_commutative_associative():
    A = adjoin(catalog.cyclic_group(2), "zero")
    B = adjoin(catalog.two_chain_monoid(), "zero")
    C = adjoin(catalog.cyclic_group(3), "zero")
    assert isomorphic_semigroups(zero_direct_union(A, B), zero_direct_union(B, A))
    left = zero_direct_union(zero_direct_union(A, B), C)
    right = zero_direct_union(A, zero_direct_union(B, C))
    assert isomorphic_semigroups(left, right)


def test_rees_matrix_sizes():
    Z2 = catalog.cyclic_group(2)
    P = [[0, 0, None], [0, None, 0], [None, 0, 0]]
    S = rees_matrix_semigroup(Z2, 3, 3, P)
    assert S.order == 19
    triv = catalog.cyclic_group(1)
    assert rees_matrix_semigroup(triv, 1, 1, [[0]]).order == 2
    assert predicates(S).categorical_at_zero is True
    with pytest.raises(DegenerateSandwich):
        rees_matrix_semigroup(Z2, 2, 2, [[0, 0], [None, None]])
    with pytest.raises(NotAGroup):
        rees_matrix_semigroup(catalog.two_chain_monoid(), 1, 1, [[0]])


def test_c0s_decompose_roundtrip():
    Z2 = catalog.cyclic_group(2)
    P = [[0, 0, None], [0, None, 0], [None, 0, 0]]
    S = rees_matrix_semigroup(Z2, 3, 3, P)
    dec = c0s_decompose(S)
    assert dec is not None
    assert (dec.rows, dec.cols, dec.group.order) == (3, 3, 2)
    assert isomorphic_semigroups(rebuilt(dec), S)


def test_c0s_decompose_group_with_zero():
    G = catalog.cyclic_group(3)
    S = adjoin(G, "zero")
    dec = c0s_decompose(S)
    assert dec is not None
    assert (dec.rows, dec.cols) == (1, 1)
    assert isomorphic_semigroups(dec.group, G)


def test_c0s_decompose_null_is_none():
    S = catalog.null_semigroup(1)  # {a, 0} with a*a = 0
    assert c0s_decompose(S) is None
    assert c0s_decompose(catalog.nil_square_semigroup()) is None


def test_c0s_recovers_random_sandwiches():
    Z2 = catalog.cyclic_group(2)
    for P in (
        [[0, 1], [None, 0]],
        [[0, None], [None, 0]],
        [[0, 0], [0, 1]],
    ):
        S = rees_matrix_semigroup(Z2, 2, 2, P)
        dec = c0s_decompose(S)
        assert dec is not None
        assert (dec.rows, dec.cols, dec.group.order) == (2, 2, 2)
        assert normalized(dec)
        assert isomorphic_semigroups(rebuilt(dec), S)


def test_brandt_decomposition():
    dec = c0s_decompose(catalog.brandt_b2())
    assert dec is not None
    assert dec.group.order == 1 and dec.rows == 2 and dec.cols == 2
    assert normalized(dec)


def rebuilt(dec):
    # the Rees matrix semigroup of the decomposition's own group and sandwich
    return rees_matrix_semigroup(dec.group, dec.rows, dec.cols, dec.sandwich)


def normalized(dec):
    # every nonzero entry of the first row and the first column is the identity
    e = dec.group.identity
    return all(x in (None, e) for x in dec.sandwich[0]) and all(row[0] in (None, e) for row in dec.sandwich)


def regular_sandwich(D, rows, cols, rng):
    # a random cols x rows sandwich with a nonzero entry in every row and column
    while True:
        P = [[rng.choice([None, *range(D.order)]) for _ in range(rows)] for _ in range(cols)]
        if all(any(x is not None for x in row) for row in P) and all(
            any(row[j] is not None for row in P) for j in range(rows)
        ):
            return P


def test_c0s_decompose_normalizes_seeded_random_sandwiches():
    rng = random.Random(3)
    for _ in range(40):
        D = rng.choice([catalog.cyclic_group(1), catalog.cyclic_group(2), catalog.cyclic_group(3), catalog.klein_four()])
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        P = regular_sandwich(D, rows, cols, rng)
        S = rees_matrix_semigroup(D, rows, cols, P)
        # list the elements in a random order, so no class is found in product order
        perm = rng.sample(range(S.order), S.order)
        at = {old: new for new, old in enumerate(perm)}
        shuffled = validate_table([S.elements[a] for a in perm], [[at[S.table[a][b]] for b in perm] for a in perm])
        dec = c0s_decompose(shuffled)
        assert (dec.rows, dec.cols, dec.group.order) == (rows, cols, D.order)
        assert normalized(dec)
        assert isomorphic_semigroups(rebuilt(dec), shuffled)


def test_rees_matrix_semigroups_isomorphic_up_to_permutation_scaling_and_automorphism():
    # Rees's theorem: data equal up to a group automorphism, permutations
    # of the rows and the columns, and scalings give isomorphic semigroups
    rng = random.Random(5)
    for D in (catalog.cyclic_group(3), catalog.klein_four()):
        inverse = [next(y for y in range(D.order) if D.mul(x, y) == D.identity) for x in range(D.order)]
        for _ in range(8):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            P = regular_sandwich(D, rows, cols, rng)
            rperm, cperm = rng.sample(range(rows), rows), rng.sample(range(cols), cols)
            g = [rng.randrange(D.order) for _ in range(rows)]
            h = [rng.randrange(D.order) for _ in range(cols)]
            # Q[lam][i] = h_lam * theta(P[cperm lam][rperm i]) * g_i, theta the inversion automorphism
            Q = [
                [
                    None if P[cperm[lam]][rperm[i]] is None else D.mul(D.mul(h[lam], inverse[P[cperm[lam]][rperm[i]]]), g[i])
                    for i in range(rows)
                ]
                for lam in range(cols)
            ]
            S, T = (rees_matrix_semigroup(D, rows, cols, X) for X in (P, Q))
            assert isomorphic_semigroups(S, T)


def test_rees_matrix_refuses_degenerate_data():
    # a zero row or a zero column of the sandwich
    Z2 = catalog.cyclic_group(2)
    for P in ([[None]], [[0, None], [0, None]]):
        with pytest.raises(DegenerateSandwich):
            rees_matrix_semigroup(Z2, len(P[0]), len(P), P)


def test_rees_matrix_refuses_entries_outside_the_group():
    Z2 = catalog.cyclic_group(2)
    for entry in (-1, 2, 5, True, 1.0, "h", [0]):
        with pytest.raises(TableError):
            rees_matrix_semigroup(Z2, 1, 1, [[entry]])
    with pytest.raises(TableError):
        catalog.completely_simple(Z2, 2, 1, [[0]])
    with pytest.raises(TableError):
        catalog.completely_simple(Z2, 1, 1, [[-1]])
    # element names, "0" and None are entries
    named = rees_matrix_semigroup(Z2, 2, 2, [["g", "0"], [None, "1"]])
    assert named == rees_matrix_semigroup(Z2, 2, 2, [[1, None], [None, 0]])


def test_completely_simple_is_the_nonzero_part_of_the_rees_matrix_semigroup():
    V4 = catalog.klein_four()
    P = [[0, 1], [2, 3], [1, 1]]
    S = catalog.completely_simple(V4, 2, 3, P)
    M = rees_matrix_semigroup(V4, 2, 3, P)
    assert S.elements == M.elements[:-1] and S.zero is None
    assert S.table == tuple(row[:-1] for row in M.table[:-1])


def test_group_isomorphism():
    assert not isomorphic_semigroups(catalog.cyclic_group(4), catalog.klein_four())
    assert not isomorphic_semigroups(catalog.cyclic_group(2), catalog.cyclic_group(3))
    assert isomorphic_semigroups(catalog.cyclic_group(3), catalog.cyclic_group(3))
    assert is_group(catalog.symmetric_group_3())
    assert not is_group(catalog.two_chain_monoid())


@pytest.mark.parametrize(
    "name, count",
    [("Z1", 1), ("Z2", 1), ("Z3", 2), ("Z4", 2), ("Z5", 4), ("Z6", 2), ("V4", 6), ("S3", 6), ("Z2^3", 168)],
)
def test_group_automorphism_counts(name, count):
    # the search behind isomorphic_semigroups, with no labels to prune by,
    # finds every automorphism, once and in lexicographic order
    G = catalog.named_group(name)
    autos = list(_isomorphisms(G, G, [0] * G.order, [0] * G.order))
    assert len(autos) == count
    assert len({tuple(a.values()) for a in autos}) == count
    assert autos == sorted(autos, key=lambda a: list(a.values()))


def _relabeled(S, rng):
    """S with its elements listed in a seeded random order."""
    perm = rng.sample(range(S.order), S.order)
    at = {old: new for new, old in enumerate(perm)}
    return validate_table([S.elements[a] for a in perm], [[at[S.table[a][b]] for b in perm] for a in perm])


def test_isomorphisms_are_the_permutation_scan():
    # the search files each product check under the last element it reads;
    # it must find exactly the bijections that respect every product, in
    # lexicographic order
    rng = random.Random(7)
    semigroups = catalog.monoid_catalogue(4) + [
        nil4(),
        catalog.mitchell_quotient(),
        catalog.brandt_b2(),
        catalog.null_semigroup(2),
        catalog.symmetric_group_3(),
    ]
    for S in semigroups:
        T, n = _relabeled(S, rng), S.order
        scan = [
            dict(enumerate(p))
            for p in permutations(range(n))
            if all(T.table[p[a]][p[b]] == p[S.table[a][b]] for a in range(n) for b in range(n))
        ]
        assert scan
        assert list(_isomorphisms(S, T, [0] * n, [0] * n)) == scan, S.elements


def test_isomorphism_classes_keep_the_first_of_each_class():
    rng = random.Random(13)
    Z2, Z4, V4 = catalog.cyclic_group(2), catalog.cyclic_group(4), catalog.klein_four()
    candidates = [Z4, _relabeled(Z2, rng), V4, Z2, _relabeled(Z4, rng), catalog.cyclic_group(3), _relabeled(V4, rng)]
    kept = list(isomorphism_classes(iter(candidates)))
    assert [id(X) for X in kept] == [id(X) for X in candidates[:3] + candidates[5:6]]


def test_seeded_relabelings_are_isomorphic():
    rng = random.Random(11)
    semigroups = catalog.monoid_catalogue(4) + [nil4(), catalog.mitchell_quotient(), catalog.brandt_b2()]
    for D in (catalog.cyclic_group(3), catalog.klein_four(), catalog.symmetric_group_3()):
        for rows, cols in ((2, 3), (3, 3)):
            semigroups.append(rees_matrix_semigroup(D, rows, cols, regular_sandwich(D, rows, cols, rng)))
    for S in semigroups:
        assert isomorphic_semigroups(S, _relabeled(S, rng)), S.elements


def test_backtrack_yields_the_accepted_assignments_in_product_order():
    domains = [range(3), "ab", (True, False)]
    calls = []

    def ok(values):
        calls.append(tuple(values))
        return values[0] != 1

    got = [tuple(v) for v in backtrack(domains, ok)]
    assert got == [t for t in product(*domains) if t[0] != 1]
    # the prefix (1,) is refused at once, so none of its extensions is tried
    assert (1,) in calls and not any(c[0] == 1 and len(c) > 1 for c in calls)
    assert [list(v) for v in backtrack([], ok)] == [[]]
    assert list(backtrack([range(2), []], ok)) == []


def test_closure_yields_seeds_first_then_lifo_discovery_order():
    # on Z/10 under x -> 2x and x -> x + 5, from the seeds 1, 3 and 1 again:
    # 3 is popped first and gives 6, 8; then 8 gives nothing new, 6 gives 2,
    # 2 gives 4, 7, then 7 nothing, 4 gives 9; 0 and 5 are out of reach
    got = list(closure([1, 3, 1], lambda x: [2 * x % 10, (x + 5) % 10]))
    assert got == [1, 3, 6, 8, 2, 4, 7, 9]
    assert list(closure([], lambda x: [x])) == []


def test_subsemigroup():
    G = catalog.symmetric_group_3()
    # A3 = rotations = even permutations
    names = {"012", "120", "201"}
    idx = [i for i in range(6) if G.elements[i] in names]
    A3, _ = subsemigroup(G, idx)
    assert isomorphic_semigroups(A3, catalog.cyclic_group(3))


def test_principal_ideal():
    S = nil4()
    assert principal_ideal(S, 0) == frozenset({0, 2, 3})
    assert principal_ideal(S, 2) == frozenset({2, 3})


def test_monoid_generation_counts():
    assert len(catalog.monoids_of_order(1)) == 1
    assert len(catalog.monoids_of_order(2)) == 2
    m3 = catalog.monoids_of_order(3)
    assert all(m.identity == 0 for m in m3)
    # distinct up to isomorphism
    for i in range(len(m3)):
        for j in range(i + 1, len(m3)):
            assert not isomorphic_semigroups(m3[i], m3[j])
    assert len(m3) == 7
    assert len(catalog.monoids_of_order(4)) == 35


# sha256 of repr([(M.elements, M.table) for n in 1..4 for M in
# monoids_of_order(n)]), recorded while every candidate was tested
# against every kept table with isomorphic_semigroups
MONOID_TABLES_SHA256 = "c22289ffe6088b428d7fb3db1e3fa1887f628bac6b0d581aa4a6de465e73492e"


def test_monoid_generation_profiles_each_table_once(monkeypatch):
    # each candidate is profiled once, and searched against a kept table
    # only when their sorted profiles agree; the tables kept are those
    # that the full pairwise isomorphism test keeps from the same candidates
    profiled, searched = [], []

    def counted_profile(X):
        profiled.append(X)
        return _profile(X)

    def counted_search(S, T, s_label, t_label):
        searched.append(sorted(s_label) == sorted(t_label))
        return _isomorphisms(S, T, s_label, t_label)

    monkeypatch.setattr("zerocohom.semigroups._profile", counted_profile)
    monkeypatch.setattr("zerocohom.semigroups._isomorphisms", counted_search)
    runs = []
    for n in range(1, 5):
        profiled.clear()
        runs.append((catalog.monoids_of_order(n), list(profiled)))
    assert searched and all(searched)
    # isomorphic_semigroups reads the same hooks, so check against it unhooked
    monkeypatch.undo()
    tables = []
    for kept, candidates in runs:
        assert len({id(X) for X in candidates}) == len(candidates)
        pairwise = []
        for X in candidates:
            if not any(isomorphic_semigroups(X, K) for K in pairwise):
                pairwise.append(X)
        assert [M.table for M in kept] == [M.table for M in pairwise], len(candidates)
        tables += [(M.elements, M.table) for M in kept]
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == MONOID_TABLES_SHA256
