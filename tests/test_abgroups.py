import random

import pytest
from dense_twin import kernel_columns, lattice_basis, smith_normal_form, solve_exact

from zerocohom import catalog
from zerocohom.abgroups import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    QuotientPresentation,
    complex_homology,
    finite_invariants_from_orders,
    kernel_mod,
    solve_mod,
    subgroup,
)
from zerocohom.cohomology import Nerve, coboundary_hom
from zerocohom.elimination import _retire, _smith, _substitute
from zerocohom.errors import GroupMismatch, NotAComplex, NotInSubgroup, ShapeMismatch
from zerocohom.modules import trivial_module


# matrices with their Smith divisors: the dense twin checks itself on
# them and the core's Smith form (``_smith``) is checked against the twin
SNF_CASES = {
    # elementary row/column reduction by hand:
    # [[2,4],[6,8]] -> [[2,4],[0,-4]] -> [[2,0],[0,-4]] -> diag(2,4)
    "reduction-example": (IntMatrix.from_rows([[2, 4], [6, 8]]), [2, 4]),
    "identity": (IntMatrix.from_rows([[1, 0], [0, 1]]), [1, 1]),
    "zero": (IntMatrix.from_rows([[0, 0], [0, 0]]), [0, 0]),
    "diag-2-3": (IntMatrix.from_rows([[2, 0], [0, 3]]), [1, 6]),
    "diag-4-6-10": (IntMatrix.from_rows([[4, 0, 0], [0, 6, 0], [0, 0, 10]]), [2, 2, 60]),
    "mixed-signs": (IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]), [2, 6, 12]),
    # 6 | 10 fails, then 2 | 15 fails: more than one divisibility step
    "two-divisibility-steps": (IntMatrix.from_rows([[6, 0, 0], [0, 10, 0], [0, 0, 15]]), [1, 30, 30]),
    "no-rows": (IntMatrix(0, 3), []),
    "no-columns": (IntMatrix(3, 0), []),
    # square and nonsingular: the product of the divisors is |det| = 3 * 18 - 5 = 49
    "det-49": (IntMatrix.from_rows([[3, 1, 0], [1, 4, 1], [0, 2, 5]]), [1, 1, 49]),
}


def snf_ok(M):
    D, U, V, Uinv = smith_normal_form(M)
    assert U.mul(Uinv) == IntMatrix.identity(M.m)
    assert U.mul(M).mul(V) == D
    diag, rows = D.diagonal(), D.a
    for i in range(M.m):
        for j in range(M.n):
            if i != j:
                assert rows[i][j] == 0
    for i in range(len(diag) - 1):
        if diag[i] and diag[i + 1]:
            assert diag[i + 1] % diag[i] == 0
        if diag[i] == 0:
            assert diag[i + 1] == 0
    assert all(d >= 0 for d in diag)
    return diag


def _snf_case(name):
    M, divisors = SNF_CASES[name]
    assert snf_ok(M) == divisors


def test_snf_reduction_example():
    _snf_case("reduction-example")


def test_snf_identity_and_zero():
    _snf_case("identity")
    _snf_case("zero")


def test_snf_divisibility_fix():
    for name in ("diag-2-3", "diag-4-6-10", "mixed-signs", "two-divisibility-steps"):
        _snf_case(name)


def test_snf_empty_shapes():
    _snf_case("no-rows")
    _snf_case("no-columns")


def test_snf_random():
    rng = random.Random(7)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf_ok(IntMatrix.from_rows(rows))


def test_snf_preserves_det_modulus():
    # for square nonsingular M: product of invariants == |det M|
    _snf_case("det-49")
    M = SNF_CASES["det-49"][0]
    prod = 1
    for x in snf_ok(M):
        prod *= x
    assert prod == abs(3 * (4 * 5 - 1 * 2) - 1 * (1 * 5 - 0) + 0)


def _smith_inputs():
    cases = {name: M for name, (M, _) in SNF_CASES.items()}
    rng = random.Random(31)
    for k in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        cases[f"random-{k}"] = IntMatrix(m, n, [[rng.randint(-99, 99) for _ in range(n)] for _ in range(m)])
    cases["negative-pivots"] = IntMatrix.from_rows([[-2, 0, 0], [0, 0, -3], [0, -5, 0]])
    cases["negative-entry"] = IntMatrix.from_rows([[-7]])
    # a core over Z/p^k is factored over Z beside the relation columns p^k e_i
    for q, core in ((8, [[2, 4], [4, 0], [0, 6]]), (9, [[3, 6, 0], [0, 3, 3]])):
        cases[f"core-mod-{q}"] = IntMatrix.from_rows([r + [q * (i == j) for j in range(len(core))] for i, r in enumerate(core)])
    return cases


SMITH_INPUTS = _smith_inputs()


@pytest.mark.parametrize("name", sorted(SMITH_INPUTS))
def test_core_smith_form_against_dense_twin(name):
    M = SMITH_INPUTS[name]
    triples = _smith(M.cols, M.m)
    divisors = [d for d, _, _ in triples]
    twin = smith_normal_form(M)[0].diagonal()
    assert divisors == twin + [0] * (M.m - len(twin))
    U = IntMatrix.from_rows([_dense_col(u, M.m) for _, u, _ in triples], M.m)
    Uinv = IntMatrix.from_columns([_dense_col(c, M.m) for _, _, c in triples], M.m)
    assert U.mul(Uinv) == IntMatrix.identity(M.m)
    for d, row in zip(divisors, U.mul(M).a):
        assert all(x % d == 0 for x in row) if d else not any(row)


def test_solve_and_kernel():
    M = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_exact(M, [4, 9]) == [2, 3]
    assert solve_exact(M, [1, 0]) is None
    K = kernel_columns(IntMatrix.from_rows([[1, 2, 3]]))
    assert len(K) == 2
    for c in K:
        assert c[0] + 2 * c[1] + 3 * c[2] == 0


def test_solve_mod():
    # x == 1 mod 2 in a Z/2 target
    M = IntMatrix.from_rows([[1]])
    x = solve_mod(M, [3], (2,))
    assert x is not None and (x[0] - 3) % 2 == 0
    K = kernel_mod(IntMatrix.from_rows([[1]]), (4,))
    # kernel of Z -> Z/4 is 4Z
    assert lattice_basis(K, 1) == [[4]]


def _padded(M, factors):
    """[M | diag(d)] with one column per finite factor, for the SNF twins."""
    fin = [(i, d) for i, d in enumerate(factors) if d]
    rows = [list(r) + [d if i == k else 0 for k, d in fin] for i, r in enumerate(M.a)]
    return IntMatrix(M.m, M.n + len(fin), rows)


def _congruent(u, v, factors):
    return all((x - y) % d == 0 if d else x == y for x, y, d in zip(u, v, factors))


def test_sparse_elimination_against_snf_twin():
    # kernel_mod and solve_mod share the sparse echelon engine; the dense
    # SNF of the padded matrix is the independent reference
    rng = random.Random(17)

    def entry():
        return rng.randint(-3, 3) if rng.random() < 0.9 else rng.choice((-1, 1)) * rng.randint(10, 10**6)

    solvable = unsolvable = 0
    for _ in range(200):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        M = IntMatrix(m, n, [[entry() for _ in range(n)] for _ in range(m)])
        factors = [rng.choice((0, 1, 2, 3, 4, 6, 9, 12)) for _ in range(m)]
        P = _padded(M, factors)

        K = kernel_mod(M, factors)
        for x in K:
            assert len(x) == n and _congruent(M.vec(x), [0] * m, factors)
        kmat = IntMatrix.from_columns(K, n)
        assert sum(1 for d in smith_normal_form(kmat)[0].diagonal() if d) == len(K)
        twin = IntMatrix.from_columns([c[:n] for c in kernel_columns(P)], n)
        assert all(solve_exact(kmat, c) is not None for c in twin.columns())
        assert all(solve_exact(twin, c) is not None for c in K)

        x0 = [rng.randint(-3, 3) for _ in range(n)]
        b = [v + rng.randint(-3, 3) * d for v, d in zip(M.vec(x0), factors)]
        if rng.random() < 0.4:
            b = [rng.randint(-5, 5) for _ in range(m)]
        x = solve_mod(M, b, factors)
        assert (x is None) == (solve_exact(P, b) is None), (M, factors, b)
        if x is None:
            unsolvable += 1
        else:
            solvable += 1
            assert len(x) == n and _congruent(M.vec(x), b, factors)
    assert solvable > 100 and unsolvable > 10

    # over Z/N with N composite, target factors dividing N (all N in half
    # the draws, so the twin is [M | N I]): the kernel, with N Z^n beside
    # it, and membership against the same dense twins; x -> 4x mod 6
    # scales its pivot by a unit of Z/6, not by 2, the inverse of 4 / 2
    # mod 3
    solvable = unsolvable = 0
    for N in (6, 10, 12, 15, 30, 36):
        divisors = [d for d in range(1, N + 1) if N % d == 0]
        draws = [(IntMatrix.from_rows([[4]]), [6])] if N == 6 else []
        for _ in range(30):
            m, n = rng.randint(1, 4), rng.randint(0, 4)
            factors = [N] * m if rng.random() < 0.5 else [rng.choice(divisors) for _ in range(m)]
            draws.append((IntMatrix(m, n, [[rng.randrange(N) for _ in range(n)] for _ in range(m)]), factors))
        for M, factors in draws:
            m, n = M.m, M.n
            P = _padded(M, factors)
            steps = list(_retire(M.cols, m, factors, N))
            K = [_dense_col(t, n) for i, _, t in steps if i is None]
            for x in K:
                assert _congruent(M.vec(x), [0] * m, factors)
            kmat = IntMatrix.from_columns(K + [[N * (r == j) for r in range(n)] for j in range(n)], n)
            twin = IntMatrix.from_columns([c[:n] for c in kernel_columns(P)], n)
            assert all(solve_exact(kmat, c) is not None for c in twin.columns()), (M, factors)
            assert all(solve_exact(twin, c) is not None for c in K), (M, factors)

            pivots = [s for s in steps if s[0] is not None]
            x0 = [rng.randrange(N) for _ in range(n)]
            b = M.vec(x0) if rng.random() < 0.5 else [rng.randrange(N) for _ in range(m)]
            x = _substitute(pivots, b, N)
            assert (x is None) == (solve_exact(P, b) is None), (M, factors, b)
            if x is None:
                unsolvable += 1
            else:
                solvable += 1
                assert _congruent(M.vec(_dense_col(x, n)), b, factors)
    assert solvable > 60 and unsolvable > 10


def test_lattice_basis():
    basis = lattice_basis([[2, 0], [0, 2], [1, 1]], 2)
    # index-2 sublattice of Z^2
    assert len(basis) == 2
    det = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
    assert abs(det) == 2


def test_finabgroup_normal_form():
    assert FinAbGroup([2, 3]).invariants() == (6,)
    assert FinAbGroup([4, 6]).invariants() == (2, 12)
    assert FinAbGroup([1, 1]).invariants() == ()
    assert FinAbGroup([0, 2]).invariants() == (2, 0)
    assert FinAbGroup([2, 4]).is_invariant_form()
    assert not FinAbGroup([4, 2]).is_invariant_form()
    assert str(FinAbGroup([2, 0])) == "C2 x Z"
    assert str(FinAbGroup([])) == "0"
    # the gcd/lcm pass against the enumeration twin, zero and unit factors included
    rng = random.Random(5)
    for _ in range(80):
        factors = [rng.choice((0, 1, 2, 3, 4, 6, 8, 9, 12)) for _ in range(rng.randint(0, 4))]
        finite = FinAbGroup([d for d in factors if d])
        if finite.order() > 400:
            continue
        enumerated = finite_invariants_from_orders(finite.elements(), finite.add, finite.zero())
        assert FinAbGroup(factors).invariants() == enumerated + (0,) * factors.count(0), factors


def test_finabgroup_arithmetic():
    A = FinAbGroup([4, 0])
    assert A.reduce((5, -3)) == (1, -3)
    assert A.add((3, 1), (2, 2)) == (1, 3)
    assert A.neg((1, 1)) == (3, -1)
    assert FinAbGroup([2, 3]).order() == 6
    assert FinAbGroup([0]).order() is None
    assert len(FinAbGroup([2, 3]).elements()) == 6


def test_grouphom_well_defined():
    src = FinAbGroup([2])
    dst = FinAbGroup([4])
    assert not GroupHom(src, dst, [[1]]).well_defined()
    assert GroupHom(src, dst, [[2]]).well_defined()
    assert GroupHom(src, FinAbGroup([2]), [[1]]).well_defined()


def test_grouphom_equals_and_is_zero_compare_reduced_columns():
    src, tgt = FinAbGroup([0, 2]), FinAbGroup([4, 0])
    f = GroupHom(src, tgt, [[1, 2], [3, 0]])
    # entries differing by multiples of the target factor 4 give the same map
    assert f.equals(GroupHom(src, tgt, [[5, -2], [3, 0]]))
    # a difference of 2 in the C4 row, or any difference in the Z row, does not
    assert not f.equals(GroupHom(src, tgt, [[3, 2], [3, 0]]))
    assert not f.equals(GroupHom(src, tgt, [[1, 2], [3, 4]]))
    assert GroupHom(src, tgt, [[4, -8], [0, 0]]).is_zero()
    assert not GroupHom(src, tgt, [[2, 0], [0, 0]]).is_zero()
    assert not GroupHom(src, tgt, [[4, 0], [0, 4]]).is_zero()
    assert not f.is_zero()


def test_intmatrix_equality_compares_values():
    M = IntMatrix.from_rows([[1, 0], [0, 2]])
    assert M == IntMatrix.from_sparse(2, [{0: 1}, {1: 2}])
    assert M == IntMatrix.from_columns([[1, 0], [0, 2]])
    assert M != IntMatrix.from_rows([[1, 0], [0, 3]])
    assert M != IntMatrix.from_rows([[1, 0, 0], [0, 2, 0]])
    assert M.a == [[1, 0], [0, 2]]
    # the builder's sparse columns equal the same matrix built from its dense rows
    S = catalog.mitchell_quotient()
    d = coboundary_hom(Nerve(S), trivial_module(S, FinAbGroup([2, 3])), 1).matrix
    assert any(d.cols)
    assert d == IntMatrix.from_rows(d.a, d.n)


def test_complex_homology_hand_lattice():
    # d_in: Z -> Z^2, 1 |-> (2, 0);  d_out: Z^2 -> Z, (a,b) |-> b
    d_in = GroupHom(FinAbGroup([0]), FinAbGroup([0, 0]), [[2], [0]])
    d_out = GroupHom(FinAbGroup([0, 0]), FinAbGroup([0]), [[0, 1]])
    H = complex_homology(d_in, d_out)
    assert isinstance(H, QuotientPresentation)
    assert H.group.invariants() == (2,)
    # witness: the class of (1, 0) generates
    assert H.coords([1, 0]) in {(1,), (-1,)} or H.coords([1, 0]) == (1,)


def test_complex_homology_zero_maps():
    G = FinAbGroup([4, 0])
    z = GroupHom(FinAbGroup([]), G, IntMatrix(2, 0))
    z2 = GroupHom(G, FinAbGroup([]), IntMatrix(0, 2))
    H = complex_homology(z, z2)
    assert H.group.invariants() == (4, 0)


def test_complex_homology_exact_pair():
    # Z --2--> Z --proj--> Z/2 has trivial homology at the middle
    d_in = GroupHom(FinAbGroup([0]), FinAbGroup([0]), [[2]])
    d_out = GroupHom(FinAbGroup([0]), FinAbGroup([2]), [[1]])
    assert complex_homology(d_in, d_out).group.is_trivial()


def test_complex_homology_not_a_complex():
    d_in = GroupHom(FinAbGroup([0]), FinAbGroup([0]), [[1]])
    d_out = GroupHom(FinAbGroup([0]), FinAbGroup([0]), [[1]])
    with pytest.raises(NotAComplex):
        complex_homology(d_in, d_out)


def test_complex_homology_not_a_complex_names_the_column():
    # d_out o d_in = [0, 1, 0]: nonzero on generator 1 only
    d_in = GroupHom(FinAbGroup([0, 0, 0]), FinAbGroup([0, 0]), [[1, 0, 2], [0, 1, 0]])
    d_out = GroupHom(FinAbGroup([0, 0]), FinAbGroup([0]), [[0, 1]])
    with pytest.raises(NotAComplex) as exc:
        complex_homology(d_in, d_out)
    assert exc.value.witness == 1


def test_complex_homology_composite_vanishing_mod_target():
    # d_out o d_in = [[4]] is a nonzero integer matrix but the zero map to C4
    d_in = GroupHom(FinAbGroup([0]), FinAbGroup([0, 0]), [[2], [0]])
    d_out = GroupHom(FinAbGroup([0, 0]), FinAbGroup([4]), [[2, 0]])
    # ker = span((2, 0), (0, 1)), im = span((2, 0))
    assert complex_homology(d_in, d_out).group.invariants() == (0,)


def brute_homology(d_in, d_out):
    """Naive oracle: enumerate the middle group, exhaust kernel and image."""
    mid = d_in.target
    kernel = [v for v in mid.elements() if not any(d_out.apply(v))]
    image = {d_in.apply(v) for v in d_in.source.elements()}
    # cosets of image inside kernel
    image = sorted(image)
    coset_of = {}
    cosets = []
    for v in kernel:
        if v in coset_of:
            continue
        cid = len(cosets)
        members = {mid.add(v, w) for w in image}
        for x in members:
            coset_of[x] = cid
        cosets.append(v)
    def add(c1, c2):
        return coset_of[mid.add(cosets[c1], cosets[c2])]
    zero = coset_of[mid.zero()]
    return finite_invariants_from_orders(list(range(len(cosets))), add, zero)


def test_complex_homology_against_brute_force():
    rng = random.Random(11)
    pool = [(2,), (4,), (2, 2), (3,), (2, 4), (8,), (2, 2, 2), (6,)]
    trials = 0
    while trials < 60:
        midf = rng.choice(pool)
        outf = rng.choice(pool)
        inf_ = rng.choice(pool)
        mid = FinAbGroup(midf)
        out = FinAbGroup(outf)
        src = FinAbGroup(inf_)
        if (mid.order() or 100) > 64:
            continue
        B = IntMatrix(out.rank, mid.rank, [[rng.randint(-3, 3) for _ in range(mid.rank)] for _ in range(out.rank)])
        d_out = GroupHom(mid, out, B)
        if not d_out.well_defined():
            continue
        K = kernel_mod(B, out.factors)
        if not K:
            K = [[0] * mid.rank]
        cols = []
        for _ in range(src.rank):
            v = [0] * mid.rank
            for kcol in K:
                c = rng.randint(-2, 2)
                for i in range(mid.rank):
                    v[i] += c * kcol[i]
            cols.append(v)
        d_in = GroupHom(src, mid, IntMatrix.from_columns(cols, mid.rank))
        if not d_in.well_defined():
            continue
        trials += 1
        H = complex_homology(d_in, d_out)
        assert H.group.invariants() == brute_homology(d_in, d_out)


def image_invariants(hom):
    return subgroup(hom.target, hom.matrix.columns()).group.invariants()


def kernel_invariants(hom):
    return subgroup(hom.source, kernel_mod(hom.matrix, hom.target.factors)).group.invariants()


def test_subgroup_and_image_invariants():
    A = FinAbGroup([2, 2])
    assert subgroup(A, [[1, 0]]).group.invariants() == (2,)
    assert subgroup(A, [[1, 0], [0, 1]]).group.invariants() == (2, 2)
    assert subgroup(A, []).group.invariants() == ()
    h = GroupHom(FinAbGroup([4]), FinAbGroup([8]), [[2]])
    assert image_invariants(h) == (4,)
    assert kernel_invariants(h) == ()
    h2 = GroupHom(FinAbGroup([4]), FinAbGroup([2]), [[1]])
    assert kernel_invariants(h2) == (2,)


def test_subgroup_presentation_roundtrip():
    A = FinAbGroup([2, 4])
    # subgroup generated by (1, 2): order 2 elements (0,0),(1,2)
    sub = subgroup(A, [[1, 2]])
    assert sub.group.invariants() == (2,)
    c = sub.coords([1, 2])
    assert c is not None
    embedded = [sum(ci * w[r] for ci, w in zip(c, sub.witnesses)) for r in range(A.rank)]
    assert A.reduce(embedded) == (1, 2)
    assert sub.coords([0, 1]) is None


def test_quotient_presentation_coords():
    # Z^2 / <(2,0),(0,3)> = C2 + C3 = C6
    pres = QuotientPresentation(2, [[1, 0], [0, 1]], [[2, 0], [0, 3]])
    assert pres.group.invariants() == (6,)
    assert pres.coords([0, 0]) == (0,)


def test_quotient_presentation_rejects_relation_outside_subgroup():
    # (1, 0) is not in span((2, 0)); the error names relation column 1
    with pytest.raises(NotInSubgroup) as exc:
        QuotientPresentation(2, [[2, 0]], [[4, 0], [1, 0]])
    assert exc.value.witness == 1


def test_quotient_presentation_over_any_generating_set():
    # (1, 1) = (1, 0) + (0, 1): the relation among the generators is kept,
    # so the quotient is C2 x Z, not C2 x Z x Z
    pres = QuotientPresentation(2, [[1, 0], [0, 1], [1, 1]], [[2, 0]])
    assert pres.group.invariants() == (2, 0)
    assert [pres.coords(w) for w in pres.witnesses] == [(1, 0), (0, 1)]

    # dependent generating sets (duplicates, integer combinations) against
    # an independent basis of the same span, taken by the dense SNF twin
    rng = random.Random(41)
    outside = inside = 0
    for _ in range(200):
        dim = rng.randint(1, 5)
        base = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(0, dim + 1))]
        gens = list(base)
        for _ in range(rng.randint(0, 3)):
            if base and rng.random() < 0.4:
                gens.append(list(rng.choice(base)))
            else:
                coeffs = [rng.randint(-2, 2) for _ in base]
                gens.append([sum(c * g[r] for c, g in zip(coeffs, base)) for r in range(dim)])
        rng.shuffle(gens)
        m_cols = []
        for _ in range(rng.randint(0, 3)):
            p = rng.choice((1, 2, 3, 4))
            coeffs = [p * rng.randint(-2, 2) for _ in gens]
            m_cols.append([sum(c * g[r] for c, g in zip(coeffs, gens)) for r in range(dim)])
        pres = QuotientPresentation(dim, gens, m_cols)
        twin = QuotientPresentation(dim, lattice_basis(gens, dim), m_cols)
        assert pres.group.factors == twin.group.factors, (gens, m_cols)
        k = len(pres.witnesses)
        for i, w in enumerate(pres.witnesses):
            assert pres.coords(w) == tuple(int(i == j) for j in range(k))

        kmat = IntMatrix.from_columns(gens, dim) if gens else IntMatrix(dim, 0)
        mmat = IntMatrix.from_columns(m_cols, dim) if m_cols else IntMatrix(dim, 0)
        for _ in range(4):
            if gens and rng.random() < 0.5:
                coeffs = [rng.randint(-3, 3) for _ in gens]
                v = [sum(c * g[r] for c, g in zip(coeffs, gens)) for r in range(dim)]
            else:
                v = [rng.randint(-5, 5) for _ in range(dim)]
            c = pres.coords(v)
            assert (c is None) == (solve_exact(kmat, v) is None), (gens, v)
            if c is None:
                outside += 1
            else:
                inside += 1
                back = [v[r] - sum(ci * w[r] for ci, w in zip(c, pres.witnesses)) for r in range(dim)]
                assert solve_exact(mmat, back) is not None
    assert outside > 50 and inside > 50


def test_quotient_presentation_against_snf_twin():
    # K is factored on the sparse echelon engine; the dense SNF of K and of
    # the coordinate matrix, taken here, is the independent reference
    rng = random.Random(23)
    outside = inside = rejected = 0
    for _ in range(150):
        dim = rng.randint(1, 6)
        # d * e_i relations, which lie in span(K) by construction
        rels = []
        for i in range(dim):
            if rng.random() < 0.4:
                rels.append([rng.choice((1, 2, 3, 4, 6)) if r == i else 0 for r in range(dim)])
        gens = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randint(0, 3))] + rels
        K = lattice_basis(gens, dim)
        kmat = IntMatrix.from_columns(K, dim)
        m_cols = list(rels)
        for _ in range(rng.randint(0, 3)):
            coeffs = [rng.randint(-2, 2) for _ in gens]
            m_cols.append([sum(c * g[r] for c, g in zip(coeffs, gens)) for r in range(dim)])
        rng.shuffle(m_cols)
        pres = QuotientPresentation(dim, K, m_cols)

        X = IntMatrix.from_columns([solve_exact(kmat, c) for c in m_cols], len(K))
        diag = smith_normal_form(X)[0].diagonal()
        expected = [d for d in diag if d != 1] + [0] * (len(K) - len(diag))
        assert list(pres.group.factors) == expected, (K, m_cols)
        for i, w in enumerate(pres.witnesses):
            assert pres.coords(w) == tuple(int(i == j) for j in range(len(pres.witnesses)))

        mmat = IntMatrix.from_columns(m_cols, dim) if m_cols else IntMatrix(dim, 0)
        for _ in range(4):
            v = [rng.randint(-5, 5) for _ in range(dim)]
            c = pres.coords(v)
            assert (c is None) == (solve_exact(kmat, v) is None), (K, v)
            if c is None:
                outside += 1
                # a column outside span(K) is named by its index
                bad = rng.randint(0, len(m_cols))
                with pytest.raises(NotInSubgroup) as exc:
                    QuotientPresentation(dim, K, m_cols[:bad] + [v] + m_cols[bad:])
                assert exc.value.witness == bad
                rejected += 1
            else:
                inside += 1
                back = [v[r] - sum(ci * w[r] for ci, w in zip(c, pres.witnesses)) for r in range(dim)]
                assert solve_exact(mmat, back) is not None
    assert outside > 50 and inside > 50 and rejected == outside

    # relations X given directly in K-coordinates, m = K X: unit-pivot
    # heavy X, non-unit cores, zero relation columns and empty K, as
    # dense or as sparse columns
    seen = {"all units": 0, "core": 0, "zero column": 0, "empty K": 0}
    for case in range(200):
        dim = rng.randint(0, 6)
        gens = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(0, dim + 1))]
        K = lattice_basis(gens, dim) if dim else []
        r = len(K)
        xcols = []
        for _ in range(rng.randint(0, 2 * r + 2)):
            kind = rng.random()
            if kind < 0.15:
                x = [0] * r
            elif kind < 0.7 and r:
                x = [rng.choice((-1, 0, 0, 1, 2)) for _ in range(r)]
                x[rng.randrange(r)] = rng.choice((-1, 1))
            else:
                p = rng.choice((2, 3, 4))
                x = [p * rng.randint(-2, 2) for _ in range(r)]
            xcols.append(x)
        m_cols = [[sum(x[k] * K[k][row] for k in range(r)) for row in range(dim)] for x in xcols]
        if case % 2:
            m_cols = [{row: y for row, y in enumerate(c) if y} for c in m_cols]
        pres = QuotientPresentation(dim, K, m_cols)

        X = IntMatrix.from_columns(xcols, r) if xcols else IntMatrix(r, 0)
        diag = smith_normal_form(X)[0].diagonal()
        expected = [d for d in diag if d != 1] + [0] * (r - len(diag))
        assert list(pres.group.factors) == expected, (K, xcols)
        k = len(pres.witnesses)
        assert k == len(expected)
        for i, w in enumerate(pres.witnesses):
            assert pres.coords(w) == tuple(int(i == j) for j in range(k))
        # a vector K y has the class of y: its coordinates re-embed to it
        y = [rng.randint(-4, 4) for _ in range(r)]
        v = [sum(y[j] * K[j][row] for j in range(r)) for row in range(dim)]
        c = pres.coords(v)
        back = [v[row] - sum(ci * w[row] for ci, w in zip(c, pres.witnesses)) for row in range(dim)]
        mdense = [_dense_col(col, dim) for col in m_cols]
        mmat = IntMatrix.from_columns(mdense, dim) if mdense else IntMatrix(dim, 0)
        assert solve_exact(mmat, back) is not None
        seen["all units"] += bool(xcols) and not expected
        seen["core"] += any(d > 1 for d in expected)
        seen["zero column"] += any(not any(x) for x in xcols)
        seen["empty K"] += r == 0
    assert all(v >= 10 for v in seen.values()), seen


def _dense_col(c, dim):
    return [c.get(i, 0) for i in range(dim)] if isinstance(c, dict) else list(c)


def test_finite_invariants_from_orders():
    # direct check on C2 x C4 built by hand
    elems = [(a, b) for a in range(2) for b in range(4)]
    def add(x, y):
        return ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4)
    assert finite_invariants_from_orders(elems, add, (0, 0)) == (2, 4)
    elems = [(a, b) for a in range(2) for b in range(2)]
    def add2(x, y):
        return ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2)
    assert finite_invariants_from_orders(elems, add2, (0, 0)) == (2, 2)
    assert finite_invariants_from_orders([0], lambda a, b: 0, 0) == ()
    elems6 = list(range(6))
    assert finite_invariants_from_orders(elems6, lambda a, b: (a + b) % 6, 0) == (6,)


SHAPE_CHECKS = {
    # d_in ends at C2, d_out starts at C4
    "complex_homology": (
        "complex_homology(GroupHom(FinAbGroup([0]), FinAbGroup([2]), [[1]]),"
        " GroupHom(FinAbGroup([4]), FinAbGroup([]), IntMatrix(0, 1)))",
        "GroupMismatch",
    ),
    # a 1x1 matrix for a map C2^2 -> C2
    "GroupHom": ("GroupHom(FinAbGroup([2, 2]), FinAbGroup([2]), IntMatrix(1, 1, [[1]]))", "ShapeMismatch"),
    # a vector of length 2 in a group of rank 1
    "reduce": ("FinAbGroup([2]).reduce([3, 5])", "ShapeMismatch"),
    # a sum of a vector of length 3 and one of length 2 in a group of rank 2
    "add": ("FinAbGroup([2, 3]).add((1, 2, 5), (1, 2))", "ShapeMismatch"),
    # a cochain value of length 2 in a group of rank 1, at (0,), which is
    # never a d_0 face, so that only its first coordinate would be read
    "coboundary": (
        "coboundary(trivial_module(catalog.mitchell_quotient(), FinAbGroup([2])),"
        " Cochain(1, {(x,): (1, 1) if x == 0 else (0,) for x in range(5)}))",
        "ShapeMismatch",
    ),
}


@pytest.mark.parametrize("case", sorted(SHAPE_CHECKS))
def test_shape_checks_survive_optimize(run_python, case):
    call, error = SHAPE_CHECKS[case]
    script = f"""
from zerocohom import catalog
from zerocohom.abgroups import FinAbGroup, GroupHom, IntMatrix, complex_homology
from zerocohom.cohomology import Cochain, coboundary
from zerocohom.errors import {error}
from zerocohom.modules import trivial_module
try:
    print("no error:", {call})
except {error} as e:
    print("raised", type(e).__name__)
"""
    proc = run_python("-O", "-c", script)
    assert proc.stdout.strip() == f"raised {error}", proc.stdout + proc.stderr


def test_shape_errors_are_typed():
    with pytest.raises(ShapeMismatch) as exc:
        IntMatrix(2, 2, [[1, 0], [0]])
    assert exc.value.witness == ([2, 2], [2, 1])
    with pytest.raises(ShapeMismatch):
        IntMatrix(2, 3).mul(IntMatrix(2, 2))
    with pytest.raises(ShapeMismatch):
        IntMatrix(2, 3).vec([1, 2])
    with pytest.raises(ShapeMismatch):
        IntMatrix.from_columns([[1, 2], [3]], 2)
    G = FinAbGroup([2])
    with pytest.raises(GroupMismatch):
        GroupHom.identity(G).compose(GroupHom.identity(FinAbGroup([4])))
