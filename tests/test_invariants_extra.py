"""Spot checks for formula well-definedness and algebra laws."""

import random

from zerocohom import catalog
from zerocohom.abgroups import FinAbGroup
from zerocohom.cohomology import nerve
from zerocohom.schur import enumerate_factor_sets, fs_product
from zerocohom.semigroups import adjoin


def test_coboundary_terms_stay_in_nerve():
    # every argument of every term of the coboundary formula lies in the
    # degree-n nerve whenever the outer tuple lies in the degree-(n+1) nerve
    for S in (
        catalog.nil_square_semigroup(),
        catalog.mitchell_quotient(),
        adjoin(catalog.cyclic_group(2), "zero"),
        catalog.brandt_b2(),
    ):
        for n in (1, 2, 3):
            inner = set(nerve(S, n))
            for t in nerve(S, n + 1):
                assert t[1:] in inner
                assert t[:-1] in inner
                for i in range(n):
                    merged = t[:i] + (S.mul(t[i], t[i + 1]),) + t[i + 2 :]
                    assert merged in inner
                # and the leading action is by a nonzero element
                assert t[0] != S.zero


def test_factor_set_product_laws():
    S = catalog.two_chain_monoid()
    A = FinAbGroup([2])
    sets = enumerate_factor_sets(S, A)
    rng = random.Random(3)
    for _ in range(80):
        r, s, t = rng.choice(sets), rng.choice(sets), rng.choice(sets)
        assert fs_product(r, s) == fs_product(s, r)
        assert fs_product(fs_product(r, s), t) == fs_product(r, fs_product(s, t))
