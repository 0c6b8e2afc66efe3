"""The semilattice builders cut every component from one complex.

``multiplier_components`` and ``brauer_components`` restrict one nerve
and one pair of coboundaries to each support, cut by the support's
table.  Each is compared here with the per-component path: a Rees
quotient or a modification of its own, its own module and its own
``cohomology_group`` call.  The components, the tuples (as element
names), the witness values and the link matrices must all be the same.
``support_cohomology`` is compared so in degrees 0, 1 and 3 as well,
with tables built here from each quotient's own multiplication.
"""

import pytest

from zerocohom import catalog
from zerocohom.errors import CertificateError
from zerocohom.abgroups import FinAbGroup, GroupHom, IntMatrix
from zerocohom.brauer import (
    brauer_components,
    brauer_monoid,
    enumerate_modifications,
    galois_group,
    galois_module_for_modification,
)
from zerocohom.cohomology import cohomology_group, support_cohomology
from zerocohom.modules import trivial_module
from zerocohom.schur import multiplier_components, schur_multiplier
from zerocohom.semigroups import adjoin, ideals, rees_quotient

COEFFICIENTS = {"C2": [2], "C3": [3], "Z": [0], "C2xC4": [2, 4]}


def _monoids():
    out = [(f"order{S.order}#{i}", S) for i, S in enumerate(catalog.monoid_catalogue(3))]
    out.append(("(V4^0)^0", adjoin(adjoin(catalog.klein_four(), "zero"), "zero")))
    out.append(("mitchell+1", adjoin(catalog.mitchell_quotient(), "identity")))
    # two nontrivial components and a link between them
    for name, G in (("C2", catalog.cyclic_group(2)), ("V4", catalog.klein_four())):
        out.append((f"{name}x(1>e)", catalog.direct_product(G, catalog.two_chain_monoid())))
    return out


def _named(H, names):
    """The component's tuples as element names, and each witness's values on them in order."""
    tuples = [tuple(names[x] for x in t) for t in H.tuples]
    return tuples, [[w.values[t] for t in H.tuples] for w in H.witnesses]


def _reference_links(results, pull):
    """Restriction links of per-component results; ``pull(I, J, t)`` takes J's tuple t into I's nerve."""
    links = {}
    for I, HI in results.items():
        for J, HJ in results.items():
            if not (I <= J and HI.group.rank and HJ.group.rank):
                continue
            cols = []
            for w in HI.witnesses:
                c = HJ.homology.coords([x for t in HJ.tuples for x in w.values[pull(I, J, t)]])
                assert c is not None, (I, J)
                cols.append(list(c))
            links[I, J] = GroupHom(HI.group, HJ.group, IntMatrix.from_columns(cols, HJ.group.rank))
    return links


def _compare(results, names, reference, ref_names, sl, ref_links):
    assert list(results) == list(reference)
    for key, H in results.items():
        R = reference[key]
        assert H.group.factors == R.group.factors, key
        assert _named(H, names) == _named(R, ref_names[key]), key
    assert sl.links.keys() == ref_links.keys()
    for pair, hom in sl.links.items():
        assert hom.matrix == ref_links[pair].matrix, pair


@pytest.mark.parametrize("coeffs", sorted(COEFFICIENTS))
@pytest.mark.parametrize("label,S", _monoids(), ids=[label for label, _ in _monoids()])
def test_multiplier_components_match_the_per_quotient_path(label, S, coeffs):
    A = FinAbGroup(COEFFICIENTS[coeffs])
    quotients = {I: rees_quotient(S, I) for I in ideals(S)}
    reference = {I: cohomology_group(Q, trivial_module(Q, A), 2, "zero") for I, Q in quotients.items()}

    def pull(I, J, t):
        return tuple(quotients[I].index(quotients[J].elements[x]) for x in t)

    ref_names = {I: Q.elements for I, Q in quotients.items()}
    results = multiplier_components(S, A)
    _compare(results, S.elements, reference, ref_names, schur_multiplier(S, A), _reference_links(reference, pull))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_brauer_components_match_the_per_modification_path(n):
    mods = enumerate_modifications(galois_group(n))
    reference = {m.pattern: cohomology_group(m.semigroup, galois_module_for_modification(m, 2), 2) for m in mods}
    names = mods[0].semigroup.elements
    ref_names = {m.pattern: m.semigroup.elements for m in mods}
    links = _reference_links(reference, lambda I, J, t: t)
    _compare(brauer_components(2, n), names, reference, ref_names, brauer_monoid(2, n), links)


def test_the_cases_reach_nontrivial_components_and_links():
    # the comparisons above are not all between trivial groups or along identities
    sl = schur_multiplier(adjoin(adjoin(catalog.klein_four(), "zero"), "zero"), FinAbGroup([2]))
    assert sorted(H.invariants() for H in sl.components.values()) == [(), (), (), (2, 2, 2)]
    V4e = catalog.direct_product(catalog.klein_four(), catalog.two_chain_monoid())
    sl = schur_multiplier(V4e, FinAbGroup([2, 4]))
    assert sum(1 for I, J in sl.links if I != J) == 1
    sl = brauer_monoid(2, 6)
    assert (len(sl.links), sum(1 for I, J in sl.links if I != J)) == (99, 64)


def _pulled_back_table(top, Q, name_of):
    """Q's multiplication on the elements of ``top``: a product in Q, named back, else ``top``'s zero.

    ``name_of(x)`` is the name in Q of top's element x, or None when x
    is zero in Q.  Built from Q's own table, not by collapsing top's.
    """
    where = {name: x for x, name in enumerate(top.elements)}
    table = []
    for x in range(top.order):
        row = []
        for y in range(top.order):
            a, b = name_of(x), name_of(y)
            v = None if a is None or b is None else Q.elements[Q.mul(Q.index(a), Q.index(b))]
            row.append(top.zero if v is None or v == Q.elements[Q.zero] else where[v])
        table.append(row)
    return table


def _rees_cases():
    """(S^0, {I: (table of S/I on S^0, S/I)}) for a few monoids, the ideals of each."""
    picks = catalog.monoid_catalogue(3)[3:7] + [catalog.two_chain_monoid()]
    picks.append(catalog.direct_product(catalog.cyclic_group(2), catalog.two_chain_monoid()))
    out = []
    for S in picks:
        top = rees_quotient(S, ())
        cases = {}
        for I in ideals(S):
            Q = rees_quotient(S, I)
            name_of = lambda x, I=I: None if x == top.zero or x in I else top.elements[x]
            cases[I] = (_pulled_back_table(top, Q, name_of), Q)
        out.append((top, cases))
    return out


def _modification_cases():
    out = []
    for n in (3, 4):
        mods = enumerate_modifications(galois_group(n))
        top = mods[0].semigroup
        cases = {m.pattern: (m.semigroup.table, m.semigroup) for m in mods}
        out.append((top, cases, mods))
    return out


@pytest.mark.parametrize("degree", [0, 1, 3])
def test_support_cohomology_matches_the_per_quotient_path(degree):
    # degree 0 reads the empty level -1 and level 0 = [()]; degree 1 cuts
    # its columns from level 0 and degree 3 its rows from level 4
    A = FinAbGroup([2, 3])
    for top, cases in _rees_cases():
        results = support_cohomology(top, trivial_module(top, A), degree, [(I, t) for I, (t, _) in cases.items()])
        assert list(results) == list(cases)
        for I, (_, Q) in cases.items():
            R = cohomology_group(Q, trivial_module(Q, A), degree)
            assert results[I].group.factors == R.group.factors, (top.elements, I)
            assert _named(results[I], top.elements) == _named(R, Q.elements), (top.elements, I)
    for top, cases, mods in _modification_cases():
        M = galois_module_for_modification(mods[0], 2)
        results = support_cohomology(top, M, degree, [(k, t) for k, (t, _) in cases.items()])
        for m in mods:
            R = cohomology_group(m.semigroup, galois_module_for_modification(m, 2), degree)
            assert results[m.pattern].group.factors == R.group.factors, m.pattern
            assert _named(results[m.pattern], top.elements) == _named(R, m.semigroup.elements), m.pattern


def test_the_degree_cases_reach_cut_levels_and_nontrivial_groups():
    # the comparisons above cut level n in degrees 1 and 3 (level 0 is
    # never cut), and reach a nontrivial group in every degree
    A = FinAbGroup([2, 3])
    cut, nontrivial = set(), set()
    for top, cases in _rees_cases():
        for degree in (0, 1, 3):
            results = support_cohomology(top, trivial_module(top, A), degree, [(I, t) for I, (t, _) in cases.items()])
            full = len(results[frozenset()].tuples)
            for H in results.values():
                cut.add((degree, len(H.tuples) < full))
                nontrivial.add((degree, H.group.rank > 0))
    assert cut == {(0, False), (1, False), (1, True), (3, False), (3, True)}
    assert {(0, True), (1, True), (3, True)} <= nontrivial


def test_a_table_that_disagrees_off_its_zero_is_refused():
    # another nonzero product where S's is nonzero, and a nonzero product
    # where S's is zero
    S = catalog.two_chain_monoid()
    top = rees_quotient(S, ())
    for x, y in ((0, 1), (top.zero, 0)):
        table = [list(row) for row in top.table]
        table[x][y] = next(v for v in range(top.order) if v not in (top.zero, top.table[x][y]))
        with pytest.raises(CertificateError) as exc:
            support_cohomology(top, trivial_module(top, FinAbGroup([2])), 2, [("bad", table)])
        assert exc.value.witness == (x, y)
