"""Property tests: complex_homology against the dense Smith-form twin,
and its finite complexes, solved over Z/e, against the integral path."""

from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from dense_twin import kernel_columns, lattice_basis, smith_normal_form, solve_exact

from zerocohom.abgroups import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    QuotientPresentation,
    complex_homology,
    kernel_mod,
    subgroup,
)

SMALL = st.integers(-3, 3)


def _columns(cols, m):
    return IntMatrix.from_columns(cols, m) if cols else IntMatrix(m, 0)


def _kernel_twin(B, factors):
    """Basis of {x : B x = 0 mod factors} from the dense SNF of [B | diag(d)]."""
    fin = [(i, d) for i, d in enumerate(factors) if d]
    rows = [row + [d if i == r else 0 for r, d in fin] for i, row in enumerate(B.a)]
    padded = IntMatrix(B.m, B.n + len(fin), rows)
    return lattice_basis([c[: B.n] for c in kernel_columns(padded)], B.n)


@st.composite
def two_step_complexes(draw):
    """Z^k -> mid -> out with d_out d_in = 0 modulo the factors of out."""
    n, m, k = draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    out_factors = draw(st.lists(st.sampled_from((0, 1, 2, 3, 4, 6)), min_size=m, max_size=m))
    B = IntMatrix(m, n, [draw(st.lists(SMALL, min_size=n, max_size=n)) for _ in range(m)])
    mid_factors, rows = [], B.a
    for j in range(n):
        d = draw(st.sampled_from((0, 2, 3, 4, 6)))
        # d e_j must map to 0 in out, else d_out is not a homomorphism
        ok = all((d * rows[i][j]) % f == 0 if f else d * rows[i][j] == 0 for i, f in enumerate(out_factors))
        mid_factors.append(d if ok else 0)
    K = _kernel_twin(B, out_factors)
    cols = []
    for _ in range(k):
        coeffs = draw(st.lists(SMALL, min_size=len(K), max_size=len(K)))
        cols.append([sum(c * kc[r] for c, kc in zip(coeffs, K)) for r in range(n)])
    mid = FinAbGroup(mid_factors)
    d_in = GroupHom(FinAbGroup([0] * k), mid, _columns(cols, n))
    d_out = GroupHom(mid, FinAbGroup(out_factors), B)
    return d_in, d_out


@given(two_step_complexes())
def test_complex_homology_against_dense_snf_twin(pair):
    d_in, d_out = pair
    H = complex_homology(d_in, d_out)

    mid = d_in.target
    K = _kernel_twin(d_out.matrix, d_out.target.factors)
    kmat = _columns(K, mid.rank)
    m_cols = d_in.matrix.columns() + [[d * (r == i) for r in range(mid.rank)] for i, d in enumerate(mid.factors) if d]
    X = _columns([solve_exact(kmat, c) for c in m_cols], len(K))
    diag = smith_normal_form(X)[0].diagonal()
    assert list(H.group.factors) == [d for d in diag if d != 1] + [0] * (len(K) - len(diag))
    k = len(H.witnesses)
    for i, w in enumerate(H.witnesses):
        assert H.coords(w) == tuple(int(i == j) for j in range(k))


@st.composite
def finite_complexes(draw):
    """Z^k -> mid -> out with finite mid and out, orders up to 2^3 and 3^2."""
    orders = (1, 2, 3, 4, 6, 8, 9, 12)
    n, m, k = draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    out_factors = draw(st.lists(st.sampled_from(orders), min_size=m, max_size=m))
    mid_factors = draw(st.lists(st.sampled_from(orders), min_size=n, max_size=n))
    # entry (i, j) a multiple of out_i / gcd(out_i, mid_j), so d_out is well defined
    B = IntMatrix(m, n, [[f // gcd(f, d) * draw(SMALL) for d in mid_factors] for f in out_factors])
    K = kernel_mod(B, out_factors)
    cols = []
    for _ in range(k):
        coeffs = draw(st.lists(SMALL, min_size=len(K), max_size=len(K)))
        cols.append([sum(c * kc[r] for c, kc in zip(coeffs, K)) for r in range(n)])
    mid = FinAbGroup(mid_factors)
    return GroupHom(FinAbGroup([0] * k), mid, _columns(cols, n)), GroupHom(mid, FinAbGroup(out_factors), B)


@given(finite_complexes())
def test_the_z_e_path_against_the_integral_twin(pair):
    # the modular path against the integral one on the same complex: the
    # same factors, and the modular witnesses a basis of the integral group
    d_in, d_out = pair
    H = complex_homology(d_in, d_out)
    mid = d_in.target
    relations = [[d * (r == i) for r in range(mid.rank)] for i, d in enumerate(mid.factors)]
    T = QuotientPresentation(mid.rank, kernel_mod(d_out.matrix, d_out.target.factors), d_in.matrix.columns() + relations)
    assert H.group.factors == T.group.factors
    cols = [T.coords(w) for w in H.witnesses]
    for i, (d, c) in enumerate(zip(H.group.factors, cols)):
        assert H.coords(H.witnesses[i]) == tuple(int(i == j) for j in range(H.group.rank))
        assert not any(T.group.reduce([d * x for x in c]))
    assert subgroup(T.group, cols).group.factors == T.group.factors
    for w in T.witnesses:
        assert H.coords(w) is not None
