"""Normalized cochains against the full complex.

When the identity 1 != 0 of a monoid with zero acts as the identity,
``support_cohomology`` computes on the cochains that vanish on every
tuple holding 1, from the nerve that skips 1 as a first letter.  Here
that path is compared with the full one, switched on by patching
``cohomology._normalizes``: the groups must agree, and the witnesses of
each side must be read by the other side's ``coords`` as a basis of the
same group.  The full side reads the normalized witnesses as they are;
the normalized side first clears the full witnesses on the tuples that
hold 1 (``NormalizedComplex.read``).
"""

import random
from functools import reduce

import pytest

from zerocohom import catalog, cohomology
from zerocohom.abgroups import FinAbGroup, IntMatrix
from zerocohom.brauer import brauer_components, enumerate_modifications, galois_group, galois_module_for_modification
from zerocohom.cohomology import (
    Cochain,
    Complex,
    Nerve,
    NormalizedComplex,
    brute_cohomology,
    coboundary,
    cohomology_group,
    nerve,
    random_cochain,
    zero_cochain,
)
from zerocohom.errors import CapExceeded, DegreeMismatch
from zerocohom.modules import ZeroModule, scalar_module, trivial_bimodule, trivial_module
from zerocohom.partial import build_t_semigroup
from zerocohom.schur import multiplier_components
from zerocohom.semigroups import adjoin, rees_quotient

C2, C3, C6, Z, C2xC2 = (FinAbGroup(f) for f in ([2], [3], [6], [0], [2, 2]))


def _full(monkeypatch, call):
    with monkeypatch.context() as m:
        m.setattr(cohomology, "_normalizes", lambda S, M, tables: False)
        return call()


def _combination(A, coeffs, cochains):
    """The cochain sum of c_i w_i, on the domain of the first."""
    sums = lambda t: A.reduce([sum(c * w.values[t][r] for c, w in zip(coeffs, cochains)) for r in range(A.rank)])
    return Cochain(cochains[0].degree, {t: sums(t) for t in cochains[0].values})


def _unit(k, i):
    return tuple(int(i == j) for j in range(k))


def _reads_back(S, M, into, out_of):
    """Each witness of ``out_of``, read by ``into`` and summed back over ``out_of``, is itself."""
    for i, w in enumerate(out_of.witnesses):
        c = into.coords(w, S, M)
        assert c is not None
        if into.witnesses:
            assert out_of.coords(_combination(M.group, c, into.witnesses), S, M) == _unit(len(out_of.witnesses), i)
        else:
            assert out_of.group.invariants() == ()


def _agree(S, M, normal, full):
    assert type(normal.complex) is NormalizedComplex and type(full.complex) is Complex
    assert normal.complex.unit == S.identity
    assert normal.group.invariants() == full.group.invariants()
    assert all(S.identity not in t for t in normal.complex.cells)
    for w in normal.witnesses:
        assert set(w.values) == set(full.complex.cells)
        assert not any(any(v) for t, v in w.values.items() if S.identity in t)
    _reads_back(S, M, full, normal)
    _reads_back(S, M, normal, full)


def _monoids_with_zero():
    out = [adjoin(S, "zero") for S in catalog.monoid_catalogue(4)]
    out += [adjoin(catalog.symmetric_group_3(), "zero"), adjoin(catalog.mitchell_quotient(), "identity")]
    return out


@pytest.mark.parametrize("A", [C2, C3, Z, C2xC2], ids=str)
def test_normalized_against_full_on_the_catalogue(monkeypatch, A):
    for S in _monoids_with_zero():
        for n in range(4 if S.order <= 5 else 3):
            for M in (trivial_module(S, A), trivial_bimodule(S, A)):
                normal = cohomology_group(S, M, n)
                _agree(S, M, normal, _full(monkeypatch, lambda: cohomology_group(S, M, n)))
                for w in normal.witnesses:
                    assert set(w.values) == set(nerve(S, n))
                    assert not any(any(v) for v in coboundary(M, w).values.values())


def test_normalized_against_full_with_a_sign_action(monkeypatch):
    # S3 acts on Z/3 and Z/6 by the sign of a permutation: the
    # transpositions, its involutions, by -1
    S = adjoin(catalog.symmetric_group_3(), "zero")
    e = S.identity
    odd = [x for x in S.nonzero() if x != e and S.mul(x, x) == e]
    assert len(odd) == 3
    for A in (C3, C6):
        M = scalar_module(S, A, {s: -1 if s in odd else 1 for s in S.nonzero()})
        for n in (1, 2, 3):
            normal = cohomology_group(S, M, n)
            _agree(S, M, normal, _full(monkeypatch, lambda: cohomology_group(S, M, n)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_normalized_against_full_on_the_brauer_modifications(monkeypatch, n):
    # every modification keeps the identity of G, and its witnesses are
    # read through the module of G^0
    top = enumerate_modifications(galois_group(n))[0]
    M = galois_module_for_modification(top, 2)
    normal = brauer_components(2, n)
    full = _full(monkeypatch, lambda: brauer_components(2, n))
    assert list(normal) == list(full)
    for key in normal:
        _agree(top.semigroup, M, normal[key], full[key])


def test_normalized_against_full_on_the_multiplier_components(monkeypatch):
    for S in catalog.monoid_catalogue(4) + [adjoin(catalog.mitchell_quotient(), "identity")]:
        for A in (C2, Z):
            normal = multiplier_components(S, A)
            full = _full(monkeypatch, lambda: multiplier_components(S, A))
            top = adjoin(S, "zero")
            for key in normal:
                _agree(top, trivial_module(top, A), normal[key], full[key])


@pytest.mark.parametrize("n", [1, 2])
def test_normalized_against_full_on_t(monkeypatch, n):
    # in degree 2 both sides count the full 8640 x 468 cells, over the
    # cell cap, which is raised here for this test only
    T = build_t_semigroup().semigroup
    M = trivial_module(T, C2)
    monkeypatch.setattr(cohomology, "COBOUNDARY_CELL_CAP", 10**7)
    _agree(T, M, cohomology_group(T, M, n), _full(monkeypatch, lambda: cohomology_group(T, M, n)))


def test_the_normalized_levels_are_the_full_levels_without_the_identity():
    semigroups = _monoids_with_zero() + [build_t_semigroup().semigroup]
    for S in semigroups:
        full, normal = Nerve(S), Nerve(S, normalized=True)
        for m in range(4 if S.order <= 5 else 3):
            assert normal.level(m) == [t for t in full.level(m) if S.identity not in t], (S.elements, m)
            assert normal.full_size(m) == full.size(m) == full.full_size(m), (S.elements, m)
            assert normal.products(m) == [reduce(S.mul, t) if t else S.identity for t in normal.level(m)]
        assert normal.size(1) == len(S.nonzero()) - 1


def test_the_normalized_faces_are_minus_one_on_the_dropped_tuples():
    # row i of the faces is d_i on tuples, -1 where the face holds the
    # identity: x_i x_{i+1} = 1 merges a pair of inverses
    groups = (catalog.cyclic_group(3), catalog.symmetric_group_3(), catalog.klein_four())
    for S in [adjoin(G, "zero") for G in groups] + [build_t_semigroup().semigroup]:
        N, e = Nerve(S, normalized=True), S.identity
        for m in (1, 2, 3):
            upper, where = N.level(m), {t: p for p, t in enumerate(N.level(m - 1))}
            want = [
                [t[1:] for t in upper],
                *[[t[: i - 1] + (S.mul(t[i - 1], t[i]),) + t[i + 1 :] for t in upper] for i in range(1, m)],
                [t[:-1] for t in upper],
            ]
            got = N.faces(m)
            assert got == [[where.get(t, -1) for t in row] for row in want], (S.elements, m)
            assert all(q >= 0 for q in got[0] + got[-1])
            assert any(e in t for row in want[1:-1] for t in row) == any(q < 0 for row in got for q in row)


def test_a_module_on_which_the_identity_is_not_the_identity_takes_the_full_path():
    # the identity acts as 0, or as a projection of C2 x C2, which is a
    # valid module; the normalized complex is not a complex for it
    S = adjoin(catalog.cyclic_group(2), "zero")
    P = IntMatrix.from_sparse(2, [{0: 1}, {}])
    modules = [scalar_module(S, A, {s: 0 for s in S.nonzero()}) for A in (C2, C3)]
    modules.append(ZeroModule(S, C2xC2, {s: P for s in S.nonzero()}))
    for M in modules:
        for n in (0, 1, 2, 3):
            H = cohomology_group(S, M, n)
            assert type(H.complex) is Complex
            assert H.group.invariants() == brute_cohomology(S, M, n).invariants()


def test_coords_clear_a_coboundary_on_the_degenerate_tuples():
    # w + dg, for g nonzero on tuples holding 1, has w's class; a cochain
    # that is not a cocycle has none
    rng = random.Random(7)
    V4, S3 = adjoin(catalog.klein_four(), "zero"), adjoin(catalog.symmetric_group_3(), "zero")
    for S, A, n in ((V4, C2, 2), (S3, C6, 3)):
        M = trivial_module(S, A)
        H = cohomology_group(S, M, n)
        assert H.witnesses
        for i, w in enumerate(H.witnesses):
            for _ in range(3):
                g = random_cochain(rng, S, M, n - 1)
                g.values[(S.identity,) * (n - 1)] = (1,) * A.rank
                dg = coboundary(M, g)
                assert any(any(dg.values[t]) for t in dg.values if S.identity in t)
                moved = Cochain(n, {t: A.add(w.values[t], dg.values[t]) for t in w.values})
                assert H.coords(moved, S, M) == _unit(len(H.witnesses), i)
        for _ in range(20):
            f = random_cochain(rng, S, M, n)
            if any(any(v) for v in coboundary(M, f).values.values()):
                assert H.coords(f, S, M) is None


def test_lift_and_read_are_inverse_on_the_cells_of_each_complex_kind(monkeypatch):
    # full, cut, normalized, and normalized and cut: read(lift(v)) is v
    # reduced in A, and a lift's domain is level n of the support's own
    # nerve, 0 on the tuples holding 1 when normalized
    rng = random.Random(11)
    A = FinAbGroup([2, 4])
    nil, V4 = catalog.nil_square_semigroup(), adjoin(catalog.klein_four(), "zero")
    S = catalog.direct_product(catalog.cyclic_group(2), catalog.two_chain_monoid())
    top = rees_quotient(S, ())
    cases = [(Complex, cohomology_group(nil, trivial_module(nil, A), 2), nerve(nil, 2))]
    cut = _full(monkeypatch, lambda: multiplier_components(S, A))
    cases += [(Complex, H, [t for t in nerve(top, 2) if reduce(top.mul, t) not in I]) for I, H in cut.items()]
    assert any(len(H.complex.cells) < len(nerve(top, 2)) for H in cut.values())
    cases.append((NormalizedComplex, cohomology_group(V4, trivial_module(V4, A), 2), nerve(V4, 2)))
    brauer = brauer_components(2, 4)
    for m in enumerate_modifications(galois_group(4)):
        cases.append((NormalizedComplex, brauer[m.pattern], nerve(m.semigroup, 2)))
    assert len({len(level) for _, _, level in cases[-len(brauer) :]}) > 1
    for kind, H, level in cases:
        C = H.complex
        assert type(C) is kind
        B = C.module.group.repeat(len(C.cells))
        for _ in range(3):
            v = [rng.randrange(-9, 10) for _ in range(B.rank)]
            f = C.lift([v])[0]
            assert C.read(f) == list(B.reduce(v))
            assert set(f.values) == set(level)
            if kind is NormalizedComplex:
                assert not any(any(x) for t, x in f.values.items() if C.unit in t)
                assert len(C.cells) < len(level)


def test_coords_of_another_degree_is_a_degree_mismatch():
    S = adjoin(catalog.klein_four(), "zero")
    for M in (trivial_module(S, C2), scalar_module(S, C2, {s: 0 for s in S.nonzero()})):
        H = cohomology_group(S, M, 2)
        with pytest.raises(DegreeMismatch):
            H.coords(zero_cochain(S, M, 1), S, M)
        f = zero_cochain(S, M, 2)
        del f.values[H.complex.cells[0]]
        with pytest.raises(DegreeMismatch):
            H.coords(f, S, M)


def test_coords_of_a_value_off_the_zero_nerve_is_a_degree_mismatch(monkeypatch):
    # a value on a tuple of another length, with a zero letter or with a
    # zero product is refused on either complex kind; a witness of a larger
    # support, on tuples the smaller one cuts away, is still read
    V4, nil = adjoin(catalog.klein_four(), "zero"), catalog.nil_square_semigroup()
    for S, kind in ((V4, NormalizedComplex), (nil, Complex)):
        M = trivial_module(S, C2)
        H = cohomology_group(S, M, 2)
        assert type(H.complex) is kind
        z = S.zero
        zero_products = [(x, y) for x in S.nonzero() for y in S.nonzero() if S.mul(x, y) == z]
        assert bool(zero_products) == (S is nil)
        for t in [(z, z), (0, z), (0, 1, 2), (0,)] + zero_products:
            f = zero_cochain(S, M, 2)
            f.values[t] = (1,) if len(t) != 2 or z in t else (0,)
            with pytest.raises(DegreeMismatch):
                H.coords(f, S, M)
        assert H.coords(zero_cochain(S, M, 2), S, M) == (0,) * len(H.witnesses)
    S = catalog.direct_product(catalog.cyclic_group(2), catalog.two_chain_monoid())
    cut = _full(monkeypatch, lambda: multiplier_components(S, C2))
    wide, narrow = cut[frozenset()], [H for I, H in cut.items() if I and H.group.rank]
    assert wide.witnesses and narrow
    for H in narrow:
        assert len(H.complex.cells) < len(wide.complex.cells)
        assert all(H.coords(w) is not None for w in wide.witnesses)


def test_the_cell_cap_counts_the_full_nerve(monkeypatch):
    # the cap trips on the same requests as the full complex, with its
    # sizes: on S3^0 in degree 2 a cap one below the full cell count
    # would admit the normalized matrix (125 x 25) but still trips
    T = build_t_semigroup().semigroup
    with pytest.raises(CapExceeded) as exc:
        cohomology_group(T, trivial_module(T, C2), 2)
    assert (exc.value.quantity, exc.value.requested) == ("coboundary matrix (8640x468) cell count", 8640 * 468)
    S = adjoin(catalog.symmetric_group_3(), "zero")
    rows, cols = len(nerve(S, 3)), len(nerve(S, 2))
    normal = Nerve(S, normalized=True)
    assert (rows, cols, normal.size(3), normal.size(2)) == (216, 36, 125, 25)
    monkeypatch.setattr(cohomology, "COBOUNDARY_CELL_CAP", rows * cols - 1)
    with pytest.raises(CapExceeded) as exc:
        cohomology_group(S, trivial_module(S, C2), 2)
    assert (exc.value.quantity, exc.value.requested) == ("coboundary matrix (216x36) cell count", rows * cols)
