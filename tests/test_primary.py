"""complex_homology of finite complexes over Z/e against the integral twin.

When the middle and target groups are finite, ``complex_homology``
solves the complex in one pass over Z/e, e the exponent of the two
groups, prime power or composite.  The twin is the integral path
on the same complex: the kernel from ``kernel_mod`` (which stays
integral) and a QuotientPresentation over Z.  Both must give the same
invariant factors, and the modular witnesses must be a basis of the
twin's group: read through the twin's ``coords``, the witness of a
factor d has order dividing d, and together they generate the group.
"""

import random
from itertools import product

import pytest

from zerocohom import catalog
from zerocohom.abgroups import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    QuotientPresentation,
    complex_homology,
    kernel_mod,
    subgroup,
)
from zerocohom.cohomology import Nerve, coboundary_hom
from zerocohom.modules import scalar_module, trivial_bimodule, trivial_module
from zerocohom.natsys import natsys_coboundary_hom, natural_system
from zerocohom.semigroups import adjoin


def _integral_twin(d_in, d_out):
    mid = d_in.target
    K = kernel_mod(d_out.matrix, d_out.target.factors)
    relations = [[d * (r == i) for r in range(mid.rank)] for i, d in enumerate(mid.factors) if d]
    return QuotientPresentation(mid.rank, K, [d_in.matrix.col(j) for j in range(d_in.matrix.n)] + relations)


def assert_agrees_with_twin(d_in, d_out, seed=0):
    H = complex_homology(d_in, d_out)
    T = _integral_twin(d_in, d_out)
    assert H.group.factors == T.group.factors
    k = H.group.rank
    for i, w in enumerate(H.witnesses):
        assert H.coords(w) == tuple(int(i == j) for j in range(k))
    # the modular witnesses, in the integral coordinates, are a basis
    cols = [T.coords(w) for w in H.witnesses]
    assert None not in cols
    G = T.group
    for d, c in zip(H.group.factors, cols):
        assert not any(G.reduce([d * x for x in c]))
    assert subgroup(G, cols).group.factors == G.factors
    # coords is additive: a combination of the integral witnesses reads
    # as the same combination of their modular coordinates
    rng = random.Random(seed)
    a = [rng.randrange(-4, 5) for _ in T.witnesses]
    v = [sum(x * w[r] for x, w in zip(a, T.witnesses)) for r in range(T.dim)]
    want = [sum(x * H.coords(w)[j] for x, w in zip(a, T.witnesses)) % d for j, d in enumerate(H.group.factors)]
    assert list(H.coords(v)) == want
    return H


def _semigroups_with_zero():
    return [adjoin(T, "zero") for T in catalog.monoid_catalogue(3)] + [
        catalog.null_semigroup(2),
        catalog.nil_square_semigroup(),
        catalog.brandt_b2(),
        catalog.mitchell_quotient(),
    ]


COEFFICIENTS = [[2], [3], [4], [9], [6], [15], [2, 4]]


@pytest.mark.parametrize("factors", COEFFICIENTS, ids=lambda f: "x".join(f"C{d}" for d in f))
def test_catalogue_cohomology_matches_the_integral_twin(factors):
    A = FinAbGroup(factors)
    nontrivial = 0
    for S in _semigroups_with_zero():
        for variant, module in product(("zero", "em"), (trivial_module, trivial_bimodule)):
            # the em nerve of S is the zero nerve of S^0
            T = S if variant == "zero" else adjoin(S, "zero")
            M = module(T, A)
            for n in (1, 2, 3):
                # the em nerve is all of S^n: degree 3 only on small S
                if variant == "em" and n == 3 and S.order > 4:
                    continue
                N = Nerve(T)
                d_in, d_out = coboundary_hom(N, M, n - 1), coboundary_hom(N, M, n)
                nontrivial += bool(assert_agrees_with_twin(d_in, d_out, n).group.rank)
    assert nontrivial


def test_c6_with_a_nontrivial_action_matches_the_integral_twin():
    # a generator of Z2 (or Z4) acts on C6 by -1: on the 2-part that is
    # the identity, on the 3-part it is not
    for k in (2, 4):
        S = adjoin(catalog.cyclic_group(k), "zero")
        M = scalar_module(S, FinAbGroup([6]), {g: (-1) ** g for g in range(k)})
        N = Nerve(S)
        groups = [assert_agrees_with_twin(coboundary_hom(N, M, n - 1), coboundary_hom(N, M, n), n) for n in (1, 2, 3)]
        assert [H.group.factors for H in groups] == [(2,), (2,), (2,)]


def test_natural_system_with_different_groups_matches_the_integral_twin():
    # over {1, e, 0}: D_1 = C6 and D_e = C3 x C4, so the ring is Z/12
    # and the coordinates have three different orders
    S = adjoin(catalog.two_chain_monoid(), "zero")
    one, e = S.identity, S.index("e")
    to_e = IntMatrix(2, 1, [[1], [0]])  # C6 -> C3 x C4, x -> (x, 0)
    ident = IntMatrix.identity(2)
    D = natural_system(
        S,
        {one: FinAbGroup([6]), e: FinAbGroup([3, 4])},
        {(e, one): to_e, (e, e): ident},
        {(e, one): to_e, (e, e): ident},
    )
    deltas = [natsys_coboundary_hom(Nerve(S), D, n) for n in range(4)]
    into_0 = GroupHom(FinAbGroup([]), deltas[0].source, IntMatrix(deltas[0].source.rank, 0))
    groups = [assert_agrees_with_twin(d_in, d_out, n) for n, (d_in, d_out) in enumerate(zip([into_0] + deltas, deltas))]
    assert [H.group.factors for H in groups] == [(6,), (), (), ()]
    # H^0 = C6 is one subquotient over Z/12, not a join of a 2-part and
    # a 3-part
    assert isinstance(groups[0], QuotientPresentation)


def test_free_factors_take_the_integral_path():
    d_in = GroupHom(FinAbGroup([0]), FinAbGroup([0, 4]), [[2], [0]])
    d_out = GroupHom(FinAbGroup([0, 4]), FinAbGroup([4]), [[0, 1]])
    H = complex_homology(d_in, d_out)
    assert isinstance(H, QuotientPresentation) and H.group.factors == (2,)


def test_re_entry_of_a_non_unit_pivot():
    # over Z/4 the pivot 2 of x -> 2x leaves 2 * (column) = 0 in the span,
    # with transform 2: the kernel {0, 2} of C4 -> C4 shows only through it
    nothing = GroupHom(FinAbGroup([]), FinAbGroup([4]), IntMatrix(1, 0))
    H = assert_agrees_with_twin(nothing, GroupHom(FinAbGroup([4]), FinAbGroup([4]), [[2]]))
    assert H.group.factors == (2,)
    # C8 -> C4 x C8, x -> (2x, 4x) has kernel 2Z/8: a relation column
    # (4 in C4, below the modulus 8) and a re-entry both take part
    nothing = GroupHom(FinAbGroup([]), FinAbGroup([8]), IntMatrix(1, 0))
    H = assert_agrees_with_twin(nothing, GroupHom(FinAbGroup([8]), FinAbGroup([4, 8]), [[2], [4]]))
    assert H.group.factors == (4,)


def test_a_large_or_composite_exponent_takes_the_z_e_path():
    # 3 * (2^31 - 1): a cofactor that trial division could not certify
    # prime does not matter, as the exponent is never factored
    d = 3 * (2**31 - 1)
    mid = FinAbGroup([d])
    H = complex_homology(GroupHom(FinAbGroup([]), mid, IntMatrix(1, 0)), GroupHom(mid, FinAbGroup([d]), [[0]]))
    assert isinstance(H, QuotientPresentation) and H.group.factors == (d,)
    # nor does a composite exponent with small primes split the complex
    mid = FinAbGroup([15])
    H = complex_homology(GroupHom(FinAbGroup([]), mid, IntMatrix(1, 0)), GroupHom(mid, FinAbGroup([15]), [[0]]))
    assert isinstance(H, QuotientPresentation) and H.group.factors == (15,)


def test_the_all_trivial_complex_is_the_trivial_group():
    # every order 1, so the ring is Z/1: no generator of order 1 is kept
    C1 = FinAbGroup([1])
    into = GroupHom(FinAbGroup([]), C1, IntMatrix(1, 0))
    H = assert_agrees_with_twin(into, GroupHom(C1, FinAbGroup([1, 1]), [[1], [0]]))
    assert H.group.factors == () and H.witnesses == [] and H.coords([5]) == ()
