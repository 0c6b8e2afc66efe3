"""Partial projective factor sets of groups: the classifying monoid and its models.

The classifying 25-element monoid-with-zero acts on G x G through

    alpha: (x, y) -> (xy, y^-1)
    beta:  (x, y) -> (y^-1, x^-1)
    gamma: (x, y) -> (x, 1)

and a {0,1}-valued map sigma with sigma(1,1) = 1 is a partial factor set
exactly when its support is closed under the three maps.  This module
builds that monoid, the closed subsets of G x G, and the Exel monoid of
G with its partial-homomorphism laws; the three maps are
``semigroups.t_maps``.  The factor sets themselves are
``schur.FactorSet``s on G x G and are certified there
(``idempotent_pfactor``, ``sigma_from_rho`` and the products and
inverses of certified ones), so this module loads neither the
abelian-group nor the cohomology layer.
"""

from .catalog import symmetric_group_3
from .errors import CapExceeded, CertificateError
from .presentations import EnumeratedSemigroup, Presentation, enumerate_presentation, parse_presentation
from .semigroups import (
    Frozen,
    c0s_decompose,
    closure,
    group_inverses,
    is_ideal,
    is_group,
    isomorphic_semigroups,
    subsemigroup,
    t_maps,
    units_of,
    validate_table,
)

T_SUBSET_CAP = 65_536  # closed subsets of G x G found by enumerate_t_subsets
EXEL_ORDER_CAP = 6  # |G| for exel_monoid

T_PRESENTATION = (
    "gens: A B C; "
    "rels: AA=1, BB=1, ABABAB=1, CC=C, AC=C, CABC=CBAB; "
    "zeros: CBC"
)


class TSemigroupData(Frozen):
    """The classifying monoid, its enumeration, its units, the ideal of its
    non-units, and that ideal's Rees decomposition."""

    __slots__ = ("semigroup", "enumerated", "unit_indices", "ideal_indices", "decomposition")


def build_t_semigroup():
    """Enumerate the classifying monoid and certify its structure.

    Raises CertificateError, with the observed value as witness, unless:
    25 elements, unit group nonabelian of order 6, complement a
    completely 0-simple ideal whose Rees data is a group of order 2 with
    a 3x3 sandwich matrix.
    """
    E = enumerate_presentation(parse_presentation(T_PRESENTATION), bound=40, mode="monoid")
    if not isinstance(E, EnumeratedSemigroup):
        raise CertificateError(type(E).__name__, "presentation did not close")
    S = E.semigroup
    if S.order != 25:
        raise CertificateError(S.order, "expected 25 elements")
    units = units_of(S)
    if len(units) != 6:
        raise CertificateError(len(units), "expected 6 units")
    H, _ = subsemigroup(S, units)
    if not (is_group(H) and isomorphic_semigroups(H, symmetric_group_3())):
        raise CertificateError(units, "unit group is not S3")
    ideal = tuple(x for x in range(S.order) if x not in units)
    if len(ideal) != 19 or not is_ideal(S, ideal):
        raise CertificateError(ideal, "non-units do not form a 19-element ideal")
    U, _ = subsemigroup(S, ideal)
    dec = c0s_decompose(U)
    if dec is None:
        raise CertificateError(ideal, "ideal is not completely 0-simple")
    if dec.group.order != 2:
        raise CertificateError(dec.group.order, "expected a Rees group of order 2")
    if (dec.rows, dec.cols) != (3, 3):
        raise CertificateError((dec.rows, dec.cols), "expected a 3x3 sandwich matrix")
    return TSemigroupData(S, E, units, ideal, dec)


def t_closure(G, pairs):
    """Least subset of G x G containing ``pairs`` closed under the maps, a ``closure``."""
    maps = t_maps(G)
    return frozenset(closure(pairs, lambda p: [m(p) for m in maps]))


def enumerate_t_subsets(G):
    """All closed subsets of G x G, sorted by size then lexicographically.

    A closed subset is the union of the closures of its pairs, so the
    closed subsets are the ``closure`` of the empty set under union
    with a single-pair closure.
    """
    pairs = [(x, y) for x in range(G.order) for y in range(G.order)]
    singles = {t_closure(G, {p}) for p in pairs}
    out = []
    for X in closure([frozenset()], lambda X: [X | P for P in singles]):
        out.append(X)
        if len(out) > T_SUBSET_CAP:
            raise CapExceeded("closed subsets found", len(out), T_SUBSET_CAP)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


class ExelModel(Frozen):
    """The pair model of the Exel monoid of ``group``.

    ``elements`` are the pairs (frozenset subset, group element),
    ``f_map`` sends each group element to its semigroup element, and
    ``factorizations`` gives each element as a word in group elements.
    """

    __slots__ = ("group", "elements", "semigroup", "f_map", "factorizations")


def exel_monoid(G):
    """The pair model of the universal partial-homomorphism recipient.

    Carrier: pairs (A, g) with {1, g} <= A <= G and product
    (A, g)(B, h) = (A u gB, gh); the canonical map sends x to
    ({1, x}, x).  Verifies the partial-homomorphism laws, generation by
    the canonical image, and agreement with the abstract presentation.
    """
    if G.order > EXEL_ORDER_CAP:
        raise CapExceeded("group order", G.order, EXEL_ORDER_CAP)
    e = G.identity
    subsets = []
    base = [s for s in range(G.order)]
    for bits in range(2 ** G.order):
        sub = frozenset(s for s in base if bits >> s & 1)
        if e in sub:
            subsets.append(sub)
    elements = []
    for sub in subsets:
        for g in sorted(sub):
            elements.append((sub, g))
    elements.sort(key=lambda p: (len(p[0]), sorted(p[0]), p[1]))
    pos = {p: i for i, p in enumerate(elements)}

    def mult(p1, p2):
        (A, g), (B, h) = p1, p2
        return (A | frozenset(G.mul(g, b) for b in B), G.mul(g, h))

    table = [[pos[mult(p1, p2)] for p2 in elements] for p1 in elements]
    names = []
    for sub, g in elements:
        names.append("{%s};%s" % (",".join(G.elements[s] for s in sorted(sub)), G.elements[g]))
    S = validate_table(names, table)
    f_map = tuple(pos[(frozenset({e, x}), x)] for x in range(G.order))
    # factorization of (A, g): f(a1) f(a1^-1) ... f(ak) f(ak^-1) f(g)
    inv = group_inverses(G)
    factorizations = []
    for sub, g in elements:
        word = []
        for a in sorted(sub - {e, g}):
            word.extend([a, inv[a]])
        word.append(g)
        factorizations.append(tuple(word))
    model = ExelModel(G, tuple(elements), S, f_map, tuple(factorizations))
    _verify_exel(model)
    return model


def _verify_exel(model):
    """Check the Exel relations, the stored factorizations and the identity.

    A failure raises CertificateError with the offending (law, x, y),
    factorization or identity as witness.
    """
    G = model.group
    S = model.semigroup
    f = model.f_map
    bad = partial_hom_violations(G, S, f)
    if bad is not None:
        raise CertificateError(bad, "canonical map breaks a partial-homomorphism law")
    # generation and the stored factorizations
    for idx, word in enumerate(model.factorizations):
        if S.mul_word(f[a] for a in word) != idx:
            raise CertificateError((idx, word), "stored factorization evaluates elsewhere")
    # identity of the monoid is f(e), so also [e][x] = [x]
    if S.identity != f[G.identity]:
        raise CertificateError(S.identity, "the monoid identity is not [e]")


def exel_matches_presentation(G):
    """Cross-check the pair model against the abstract presentation."""
    model = exel_monoid(G)
    inv, mul = group_inverses(G), G.mul
    rels = []
    for x in range(G.order):
        for y in range(G.order):
            rels.append(((inv[x], x, y), (inv[x], mul(x, y))))
            rels.append(((x, y, inv[y]), (mul(x, y), inv[y])))
        rels.append(((x, G.identity), (x,)))
    P = Presentation(tuple(f"x{i}" for i in range(G.order)), tuple(rels))
    E = enumerate_presentation(P, bound=len(model.elements) + 4)
    if not isinstance(E, EnumeratedSemigroup):
        return False
    if E.semigroup.order != len(model.elements):
        return False
    return isomorphic_semigroups(E.semigroup, model.semigroup)


def partial_hom_violations(G, S, phi):
    """Witness (law, x, y) when phi: G -> S breaks a partial-hom law."""
    inv = group_inverses(G)
    e = G.identity
    for x in range(G.order):
        for y in range(G.order):
            if S.mul(S.mul(phi[inv[x]], phi[x]), phi[y]) != S.mul(phi[inv[x]], phi[G.mul(x, y)]):
                return ("left", x, y)
            if S.mul(S.mul(phi[x], phi[y]), phi[inv[y]]) != S.mul(phi[G.mul(x, y)], phi[inv[y]]):
                return ("right", x, y)
        if S.mul(phi[x], phi[e]) != phi[x]:
            return ("identity", x, None)
    return None


def induced_hom(model, S, phi):
    """The unique semigroup hom through the model extending phi, or None.

    phi must be a partial homomorphism G -> S (checked); the result maps
    every model element through its stored factorization and is verified
    to be multiplicative.
    """
    if partial_hom_violations(model.group, S, phi) is not None:
        return None
    T = model.semigroup
    out = [S.mul_word(phi[a] for a in word) for word in model.factorizations]
    for i in range(T.order):
        for j in range(T.order):
            if S.mul(out[i], out[j]) != out[T.mul(i, j)]:
                return None
    return tuple(out)


def t_action_relation_report(G):
    """Which defining relations of the classifying monoid hold as
    transformations of G x G, keyed as ``T_PRESENTATION`` writes them;
    each zero word, which has no transformation meaning, is reported
    as "<word> constant" (it sends every pair to (e, e)).

    Generator g acts by ``t_maps(G)[g]``, and words act by function
    composition: the rightmost letter applies first.
    """
    P = parse_presentation(T_PRESENTATION)
    maps = t_maps(G)
    pairs = [(x, y) for x in range(G.order) for y in range(G.order)]

    def image(word, p):
        for g in reversed(word):
            p = maps[g](p)
        return p

    report = {}
    for u, v in P.relations:
        report[f"{P.word_names(u)}={P.word_names(v)}"] = all(image(u, p) == image(v, p) for p in pairs)
    e = (G.identity, G.identity)
    for w in P.zero_relations:
        report[f"{P.word_names(w)} constant"] = all(image(w, p) == e for p in pairs)
    return report
