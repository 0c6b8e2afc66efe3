"""The semilattice builders cut every component from one complex.

``multiplier_components`` and ``brauer_components`` restrict one nerve
and one pair of coboundaries to each support.  Each is compared here
with the per-component path: a Rees quotient or a modification of its
own, its own module and its own ``cohomology_group`` call.  The
components, the tuples (as element names), the witness values and the
link matrices must all be the same.
"""

import pytest

from zerocohom import catalog
from zerocohom.abgroups import FinAbGroup, GroupHom, IntMatrix
from zerocohom.brauer import (
    brauer_components,
    brauer_monoid,
    enumerate_modifications,
    galois_group,
    galois_module_for_modification,
)
from zerocohom.cohomology import cohomology_group
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
