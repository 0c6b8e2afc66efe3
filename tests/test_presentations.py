import pytest

from zerocohom import catalog
from zerocohom.errors import (
    GeneratorIsZero,
    PresentationSyntaxError,
    UnknownGenerator,
)
from zerocohom.presentations import (
    EnumeratedSemigroup,
    Truncated,
    enumerate_presentation,
    format_presentation,
    gown_presentation,
    gown_sequences,
    parse_presentation,
    word_value,
)
from zerocohom.semigroups import is_group, isomorphic_semigroups, subsemigroup


def test_parse_cyclic_nil_presentation():
    P = parse_presentation("gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy")
    assert P.generators == ("x", "y")
    assert P.relations == (((0, 1), (1,)), ((0, 0), (0, 0, 0)))
    assert P.zero_relations == (((1, 0)), (1, 1))
    assert P.has_zero


def test_parse_mitchell_presentation():
    P = parse_presentation("gens: a b c d; rels: ab=cd")
    assert P.generators == ("a", "b", "c", "d")
    assert P.relations == (((0, 1), (2, 3)),)
    assert not P.has_zero


def test_parse_monoid_words():
    P = parse_presentation("gens: A B C; rels: AA=1, CC=1, AC=C")
    assert P.relations[0] == ((0, 0), ())
    assert P.relations[2] == ((0, 2), (2,))


def test_parse_errors():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("rels: xy=y")
    assert err.value.position == 0
    with pytest.raises(UnknownGenerator):
        parse_presentation("gens: x; rels: xq=x")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: x y; rels: xy")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: 0 x")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: x; bogus: 1")


def test_format_roundtrip():
    text = "gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy"
    P = parse_presentation(text)
    assert parse_presentation(format_presentation(P)) == P


def test_enumerate_cyclic_nil():
    P = parse_presentation("gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy")
    E = enumerate_presentation(P, bound=10)
    assert isinstance(E, EnumeratedSemigroup)
    S = E.semigroup
    assert S.order == 4
    assert set(S.elements) == {"x", "y", "xx", "0"}
    x = S.index("x")
    y = S.index("y")
    assert S.mul(x, y) == y
    assert S.mul(y, x) == S.zero and S.mul(y, y) == S.zero
    assert S.mul(S.mul(x, x), x) == S.mul(x, x)


def test_enumerate_deterministic():
    P = parse_presentation("gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy")
    E1 = enumerate_presentation(P, bound=10)
    E2 = enumerate_presentation(P, bound=10)
    assert E1.semigroup.elements == E2.semigroup.elements
    assert E1.semigroup.table == E2.semigroup.table
    assert E1.words == E2.words


def test_enumerate_free_monoid_truncates():
    P = parse_presentation("gens: a")
    T = enumerate_presentation(P, bound=5, mode="monoid")
    assert isinstance(T, Truncated)
    assert "a" in T.discovered
    assert (T.limit, T.node_budget, T.found) == ("node budget", 2000, len(T.discovered))


def test_enumerate_bound_stop_records_the_bound():
    P = parse_presentation("gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy")
    T = enumerate_presentation(P, bound=3)
    assert isinstance(T, Truncated)
    assert (T.limit, T.bound, T.found) == ("bound", 3, 4)


def test_enumerate_mitchell_quotient():
    # collapse everything outside {a, b, c, d, ab}: all length-2 products
    # except ab and cd are zero words
    zeros = [
        x + y
        for x in "abcd"
        for y in "abcd"
        if x + y not in ("ab", "cd")
    ]
    P = parse_presentation("gens: a b c d; rels: ab=cd; zeros: " + ", ".join(zeros))
    E = enumerate_presentation(P, bound=10)
    assert E.semigroup.order == 6
    assert isomorphic_semigroups(E.semigroup, catalog.mitchell_quotient())


def test_enumerate_monoid_mode_identity():
    P = parse_presentation("gens: g; rels: gg=1")
    E = enumerate_presentation(P, bound=4, mode="monoid")
    S = E.semigroup
    assert S.order == 2 and S.is_monoid
    assert is_group(S)


def test_empty_word_rejected_in_semigroup_mode():
    P = parse_presentation("gens: g; rels: gg=1")
    with pytest.raises(PresentationSyntaxError):
        enumerate_presentation(P, bound=4, mode="semigroup")


def test_enumerate_t_semigroup_order_25():
    text = (
        "gens: A B C; "
        "rels: AA=1, BB=1, ABABAB=1, CC=C, AC=C, CABC=CBAB; "
        "zeros: CBC"
    )
    P = parse_presentation(text)
    E = enumerate_presentation(P, bound=40, mode="monoid")
    assert isinstance(E, EnumeratedSemigroup)
    S = E.semigroup
    assert S.order == 25
    assert S.has_zero and S.is_monoid
    # the unit group is S3
    e = S.identity
    units = [
        x
        for x in range(S.order)
        if any(S.mul(x, y) == e and S.mul(y, x) == e for y in range(S.order))
    ]
    assert len(units) == 6
    H, _ = subsemigroup(S, units)
    assert isomorphic_semigroups(H, catalog.symmetric_group_3())


def test_gown_presentation_cyclic_nil():
    P = parse_presentation("gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy")
    G = gown_presentation(P)
    assert G.relations == P.relations
    assert G.zero_relations == () and not G.has_zero


def test_gown_presentation_zero_multiplication():
    P = parse_presentation("gens: x y; zeros: xx, xy, yx, yy")
    G = gown_presentation(P)
    assert G.relations == () and not G.has_zero
    # the result presents a free semigroup
    assert isinstance(enumerate_presentation(G, bound=10), Truncated)


def test_gown_presentation_drops_relations_that_became_zero():
    P = parse_presentation("gens: u v; rels: uu=vv, uu=uv, uv=vu, uuu=vuu; zeros: uuu, vuu")
    G = gown_presentation(P)
    # uuu=vuu holds between two zero words, so it must be deleted
    assert ((0, 0, 0), (1, 0, 0)) not in G.relations
    assert len(G.relations) == 3


def test_gown_presentation_generator_is_zero():
    P = parse_presentation("gens: x; zeros: x")
    with pytest.raises(GeneratorIsZero):
        gown_presentation(P)


def test_word_value():
    P = parse_presentation("gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy")
    E = enumerate_presentation(P, bound=10)
    S = E.semigroup
    assert word_value(E, (0, 1)) == S.index("y")
    assert word_value(E, (1, 0)) == S.zero
    assert word_value(E, (0, 0, 0, 1)) == S.index("y")
    # the empty word is the identity in monoid mode only
    with pytest.raises(ValueError, match="monoid mode"):
        word_value(E, ())
    M = enumerate_presentation(P, bound=10, mode="monoid")
    assert word_value(M, ()) == M.semigroup.identity


def test_gown_sequences_null_semigroup():
    S = catalog.null_semigroup(2)
    G = gown_sequences(S, 2)
    assert len(G.classes) == 6
    # free multiplication on classes: [a][b] = class of (a, b)
    a = G.singleton_class(0)
    b = G.singleton_class(1)
    ab = G.multiply(a, b)
    assert G.classes[ab] == frozenset({(0, 1)})
    assert G.multiply(a, a) is not None


def test_gown_sequences_singletons_injective():
    for S in (catalog.nil_square_semigroup(), catalog.mitchell_quotient()):
        G = gown_sequences(S, 3)
        classes = {G.singleton_class(x) for x in S.nonzero()}
        assert len(classes) == len(S.nonzero())
        # classes of one-element sequences contain no longer sequences
        for x in S.nonzero():
            assert G.classes[G.singleton_class(x)] == frozenset({(x,)})


def test_gown_sequences_product_matches_semigroup():
    S = catalog.nil_square_semigroup()
    G = gown_sequences(S, 3)
    for x in S.nonzero():
        for y in S.nonzero():
            cx, cy = G.singleton_class(x), G.singleton_class(y)
            c = G.multiply(cx, cy)
            if S.mul(x, y) != S.zero:
                assert c == G.singleton_class(S.mul(x, y))
            else:
                assert c is not None
                assert (x, y) in G.classes[c]


def test_gown_quotient_by_long_classes_reproduces_semigroup():
    # classes of length > 1 form an ideal; collapsing them gives S back
    for S in (catalog.nil_square_semigroup(), catalog.null_semigroup(2)):
        G = gown_sequences(S, 4)
        long_classes = {
            c for c in range(len(G.classes)) if min(len(s) for s in G.classes[c]) > 1
        }
        for x in S.nonzero():
            for y in S.nonzero():
                c = G.multiply(G.singleton_class(x), G.singleton_class(y))
                if S.mul(x, y) == S.zero:
                    assert c in long_classes
                else:
                    assert c == G.singleton_class(S.mul(x, y))
        # the ideal property, within the bound: long * anything stays long
        for c in long_classes:
            for x in S.nonzero():
                p = G.multiply(c, G.singleton_class(x))
                if p is not None:
                    assert p in long_classes
