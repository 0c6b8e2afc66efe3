"""Factor sets of projective monoid representations and Schur multipliers.

A factor set is a total map S x S -> A u {0} (A written multiplicatively,
internally an additive FinAbGroup), subject to the cocycle law

    rho(x,y) rho(xy,z) = rho(x,yz) rho(y,z)        (zero absorbing, all triples)

and the normalization rho(x,y) = 0 <=> rho(1,xy) = 0.  Zeros then occur
exactly on the pairs whose product falls into a two-sided ideal, and the
multiplier splits into a strong semilattice of abelian groups indexed by
the ideal semilattice: the component at I is the degree-2 0-cohomology of
the quotient by I with trivial coefficients.

Partial factor sets of a group G are factor sets on G x G of the same
type, certified here: idempotent ones from a support closed under the
maps ``semigroups.t_maps``, derived ones from a factor set on the Exel monoid
(``sigma_from_rho``), and products and inverses of certified ones.  No
intrinsic axiom set is known for them, so uncertified raw maps are
rejected.  Their ``provenance`` records how one was certified, and is
None for a factor set of a monoid.
"""

from itertools import product

from .abgroups import FinAbGroup, finite_invariants_from_orders, kernel_mod, subgroup
from .cohomology import Cochain, SemilatticeOfGroups, _preimage, support_cohomology
from .errors import (
    CapExceeded,
    CertificateError,
    CoefficientMismatch,
    DivisionUndefined,
    InvalidFactorSet,
    NotAnIdeal,
    SemigroupMismatch,
    ShapeMismatch,
    UncertifiedInput,
)
from .modules import Violation, trivial_module
from .nerve import Nerve
from .semigroups import Frozen, Semigroup, as_ideal, backtrack, group_inverses, ideals, rees_quotient, t_maps

SCHUR_ORDER_CAP = 12  # |S| for schur_multiplier
FACTOR_SET_CAP = 6_000_000  # search nodes enumerate_factor_sets visits, over all zero sets


class FactorSet(Frozen):
    """``values`` maps each pair of ``semigroup`` (the monoid S, or the group
    G of a partial factor set) to a tuple of ``group`` or None (zero).

    ``provenance`` is "idempotent", "derived", "product" or "inverse".
    Equality reads the coefficients and the values only.
    """

    __slots__ = ("semigroup", "group", "values", "provenance")

    def __init__(self, semigroup, group, values, provenance=None):
        super().__init__(semigroup, group, values, provenance)

    def value(self, x, y):
        return self.values[(x, y)]

    def support(self):
        return frozenset(p for p, v in self.values.items() if v is not None)

    def key(self):
        return tuple(sorted((p, v) for p, v in self.values.items()))

    def __eq__(self, other):
        return (
            isinstance(other, FactorSet)
            and self.group.factors == other.group.factors
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.group.factors, self.key()))


def epsilon_factor_set(S, A, ideal):
    """The idempotent factor set of an ideal: 1 off it, 0 on it."""
    I = as_ideal(S, ideal)
    one = A.zero()
    values = {}
    for x in range(S.order):
        for y in range(S.order):
            values[(x, y)] = None if S.mul(x, y) in I else one
    return FactorSet(S, A, values)


def validate_factor_set(rho):
    """None if rho is a factor set, else the first violating pair/triple.

    Checks that every pair has a value, then the normalization over all
    pairs, then the completed cocycle law over all triples (both sides
    must vanish together, and agree when nonzero).
    """
    S = rho.semigroup
    if S.identity is None:
        raise ValueError("factor sets are defined over monoids")
    one, n = S.identity, range(S.order)
    missing = next(((x, y) for x in n for y in n if (x, y) not in rho.values), None)
    if missing is not None:
        return Violation("missing", missing)
    for x in n:
        for y in n:
            if (rho.value(x, y) is None) != (rho.value(one, S.mul(x, y)) is None):
                return Violation("normalization", (x, y))
    bad = next(cocycle_failures(S, rho.group, rho.values), None)
    return None if bad is None else Violation("cocycle", bad[0])


def cocycle_failures(S, A, values):
    """Yield (triple, lhs, rhs) wherever the zero-absorbing cocycle law fails.

    ``values`` maps the pairs of S to coefficient tuples or None (zero);
    a side is None when one of its factors is zero.  Triples come in
    lexicographic order.
    """
    for x in range(S.order):
        for y in range(S.order):
            v_xy = values[x, y]
            xy = S.mul(x, y)
            for z in range(S.order):
                lhs = None
                if v_xy is not None and values[xy, z] is not None:
                    lhs = A.add(v_xy, values[xy, z])
                yz = S.mul(y, z)
                rhs = None
                if values[y, z] is not None and values[x, yz] is not None:
                    rhs = A.add(values[x, yz], values[y, z])
                if lhs != rhs:
                    yield (x, y, z), lhs, rhs


def _require_comparable(rho, sigma):
    """Refuse two factor sets over different semigroups or coefficient groups."""
    S, T = rho.semigroup, sigma.semigroup
    if S is not T and S.table != T.table:
        raise SemigroupMismatch(S, T)
    if rho.group.factors != sigma.group.factors:
        raise CoefficientMismatch(rho.group, sigma.group)


def fs_product(rho, sigma):
    """Pointwise product, zero absorbing."""
    _require_comparable(rho, sigma)
    A = rho.group
    values = {}
    for p, v in rho.values.items():
        w = sigma.values[p]
        values[p] = None if v is None or w is None else A.add(v, w)
    return FactorSet(rho.semigroup, A, values)


def fs_inverse_on_support(rho):
    """Pointwise inverse on the support (the inverse-semigroup inverse)."""
    A = rho.group
    values = {p: (None if v is None else A.neg(v)) for p, v in rho.values.items()}
    return FactorSet(rho.semigroup, A, values)


def is_idempotent_pfactor(G, values):
    """Check the closure law for a {0,1}-valued map with witness.

    ``values`` maps pairs to None (zero) or anything non-None (one).
    Requires sigma(1,1) = 1; then sigma is a factor set iff, whenever
    sigma(x,y) = 1, also sigma(xy, y^-1) = sigma(y^-1, x^-1)
    = sigma(x, 1) = 1.  Returns (True, None) or (False, witness_pair).
    """
    e = G.identity
    if values.get((e, e)) is None:
        return (False, (e, e))
    maps = t_maps(G)
    for p, v in values.items():
        if v is not None and any(values.get(m(p)) is None for m in maps):
            return (False, p)
    return (True, None)


def idempotent_pfactor(G, support, coeff=None):
    """Certified idempotent factor set with the given support.

    A support without (1, 1), or not closed under ``semigroups.t_maps``,
    raises ``InvalidFactorSet`` with the offending pair.
    """
    A = coeff if coeff is not None else FinAbGroup([])
    values = {}
    for x in range(G.order):
        for y in range(G.order):
            values[(x, y)] = A.zero() if (x, y) in support else None
    ok, witness = is_idempotent_pfactor(G, values)
    if not ok:
        # (1, 1) is its own witness only when it is missing
        missing = witness == (G.identity, G.identity)
        raise InvalidFactorSet(witness, "support lacks the identity pair" if missing else "support is not closed")
    return FactorSet(G, A, values, provenance="idempotent")


def cohomological_eq_check(sigma):
    """All triples where the two sides of the cocycle equation differ.

    Returns a list of (triple, lhs, rhs) where each side is a
    coefficient tuple or None; for honest-to-goodness group 2-cocycles
    the list is empty, but partial factor sets may fail at triples whose
    support pattern is mixed.
    """
    return list(cocycle_failures(sigma.semigroup, sigma.group, sigma.values))


def sigma_from_rho(model, rho):
    """Group factor set derived from a monoid factor set on the Exel model.

    sigma(x, y) = rho([x], [y]) * rho([x^-1], [x][y]) / rho([x^-1], [xy]),
    zero exactly where rho([x], [y]) vanishes.  The output is certified.
    A rho that is no factor set raises ``InvalidFactorSet``.
    """
    v = validate_factor_set(rho)
    if v is not None:
        raise InvalidFactorSet(v.witness, f"rho breaks the {v.kind} law")
    G = model.group
    S = model.semigroup
    f = model.f_map
    inv = group_inverses(G)
    A = rho.group
    values = {}
    for x in range(G.order):
        for y in range(G.order):
            head = rho.value(f[x], f[y])
            if head is None:
                values[(x, y)] = None
                continue
            num = rho.value(f[inv[x]], S.mul(f[x], f[y]))
            den = rho.value(f[inv[x]], f[G.mul(x, y)])
            if den is None or num is None:
                # unreachable for a valid rho: [x][y] = [x]([x^-1][xy])
                # forces both factors nonzero whenever the head is
                raise DivisionUndefined((x, y))
            values[(x, y)] = A.reduce([a + b - c for a, b, c in zip(head, num, den)])
    return FactorSet(G, A, values, provenance="derived")


def pfactor_product(s1, s2):
    """``fs_product`` of certified factor sets, itself certified."""
    if s1.provenance is None or s2.provenance is None:
        raise UncertifiedInput("refusing to multiply uncertified factor sets")
    rho = fs_product(s1, s2)
    return FactorSet(rho.semigroup, rho.group, rho.values, "product")


def pfactor_inverse(sigma):
    """``fs_inverse_on_support`` of a certified factor set, itself certified."""
    if sigma.provenance is None:
        raise UncertifiedInput("refusing to invert an uncertified factor set")
    rho = fs_inverse_on_support(sigma)
    return FactorSet(rho.semigroup, rho.group, rho.values, "inverse")


def support_ideal(rho):
    """The ideal I with rho(x,y) = 0 iff xy in I; NotAnIdeal if invalid."""
    S = rho.semigroup
    one = S.identity
    I = as_ideal(S, (z for z in range(S.order) if rho.value(one, z) is None))
    for x in range(S.order):
        for y in range(S.order):
            if (rho.value(x, y) is None) != (S.mul(x, y) in I):
                raise NotAnIdeal((x, y))
    return I


def equivalent(rho, sigma):
    """(True, alpha) when rho = (d alpha) * sigma with equal supports.

    alpha is a dict element -> coefficient tuple, identity on the
    support ideal; returns (False, None) otherwise.  Refuses factor sets
    over different monoids or coefficients, as ``fs_product`` does.
    """
    _require_comparable(rho, sigma)
    S = rho.semigroup
    A = rho.group
    I_r = support_ideal(rho)
    I_s = support_ideal(sigma)
    if I_r != I_s:
        return (False, None)
    Q = rees_quotient(S, I_r)
    MQ = trivial_module(Q, A)  # valid by construction, so _preimage skips the module check
    ratio_vals = {}
    qindex = {}
    for x in range(S.order):
        if x not in I_r:
            qindex[x] = Q.index(S.elements[x])
    for (x, y), v in rho.values.items():
        if v is None:
            continue
        w = sigma.values[(x, y)]
        # A.reduce checks the length of v against the rank
        if len(w) != len(v):
            raise ShapeMismatch(f"sigma's value at {(x, y)}", len(v), len(w))
        ratio_vals[(qindex[x], qindex[y])] = A.reduce([a - b for a, b in zip(v, w)])
    zero = A.zero()
    N = Nerve(Q)
    ratio = Cochain(2, {t: ratio_vals.get(t, zero) for t in N.level(2)})
    found, phi = _preimage(N, MQ, ratio)
    if not found:
        return (False, None)
    alpha = {s: zero if s in I_r else phi.values[(qindex[s],)] for s in range(S.order)}
    return (True, alpha)


def twist(rho, alpha):
    """rho * d(alpha): the equivalent factor set defined by alpha."""
    S = rho.semigroup
    A = rho.group
    for s, a in alpha.items():
        if len(a) != A.rank:
            raise ShapeMismatch(f"twist value at {s}", A.rank, len(a))
    values = {}
    for (x, y), v in rho.values.items():
        if v is None:
            values[(x, y)] = None
        else:
            xy = S.mul(x, y)
            values[(x, y)] = A.reduce([a + b - c + d for a, b, c, d in zip(v, alpha[x], alpha[xy], alpha[y])])
    return FactorSet(S, A, values)


def _require_monoid(S):
    """Refuse a semigroup without identity, and with ``TypeError`` any other input (say a ``TSemigroupData``)."""
    if not isinstance(S, Semigroup):
        raise TypeError(f"expected a Semigroup, got {type(S).__name__}")
    if S.identity is None:
        raise ValueError("Schur multipliers are defined over monoids")


def multiplier_components(S, A):
    """{ideal I: H_0^2(S/I, A trivial)} for the monoid S, every component cut from one complex.

    The nerve of S/{} = S^0 is all of S^n.  The component at I is cut
    from it by the table of S^0 with I collapsed to the zero
    (``support_cohomology``).  The witnesses are read on S^0, whose
    nonzero elements are those of S, with the same indices.
    """
    _require_monoid(S)
    if S.order > SCHUR_ORDER_CAP:
        raise CapExceeded("monoid order", S.order, SCHUR_ORDER_CAP)
    top = rees_quotient(S, ())
    z = top.zero
    tables = ((I, [[z if v in I else v for v in row] for row in top.table]) for I in ideals(S))
    return support_cohomology(top, trivial_module(top, A), 2, tables)


def schur_multiplier(S, A):
    """The multiplier as a strong semilattice of cohomology groups.

    Index set: all ideals of the monoid S under union (empty ideal
    included).  Component at I: H_0^2(S/I, A trivial), from
    ``multiplier_components``.  Link I -> J for I <= J: restriction of
    cocycles to the smaller support (multiply by the idempotent of J),
    realized on cohomology.
    """
    return SemilatticeOfGroups.from_restrictions(multiplier_components(S, A))


class BruteComponent:
    """The factor-set classes of one support ideal: a representative per
    class, the class of each factor-set key, and the group's invariants."""

    __slots__ = ("ideal", "class_reps", "class_of", "invariants")

    def __init__(self, ideal, class_reps, class_of, invariants):
        self.ideal = ideal
        self.class_reps = class_reps
        self.class_of = class_of
        self.invariants = invariants

    def add(self, c1, c2):
        """Class of the pointwise product of the representatives of c1, c2."""
        return self.class_of[fs_product(self.class_reps[c1], self.class_reps[c2]).key()]


class BruteMultiplier:
    """The brute-force multiplier of ``semigroup`` over ``group``: a BruteComponent per ideal."""

    __slots__ = ("semigroup", "group", "components")

    def __init__(self, semigroup, group, components):
        self.semigroup = semigroup
        self.group = group
        self.components = components

    def link_class(self, I, J, cid):
        """Image class of class cid of component I under multiply-by-eps_J."""
        rho = self.components[I].class_reps[cid]
        eps = epsilon_factor_set(self.semigroup, self.group, J)
        return self.components[J].class_of[fs_product(rho, eps).key()]


def enumerate_factor_sets(S, A):
    """All factor sets over the monoid S with coefficients in A.

    The normalization forces the zero set to be {(x,y) : xy in Z'} for
    Z' = the zero set of rho(1, .).  For each subset Z' the zero pattern
    alone decides whether both sides of the cocycle law vanish together
    (non-ideals die here).  A ``backtrack`` then fills the values on the
    support in the order of A.elements(), each cocycle equation tested
    once its last pair is fixed, so the list comes out in the order of a
    product scan.  Every hit is re-checked by validate_factor_set.  The
    cap counts the search nodes, the partial assignments that the
    equations test, over all zero sets.
    """
    n = S.order
    if A.order() is None:
        raise CapExceeded("factor-set search nodes (infinite coefficients)", None, FACTOR_SET_CAP)
    out = []
    elements = A.elements()
    index = {v: i for i, v in enumerate(elements)}
    add = [[index[A.add(u, v)] for v in elements] for u in elements]
    base = {(x, y): None for x in range(n) for y in range(n)}
    nodes = 0
    for bits in range(2**n):
        Z = frozenset(i for i in range(n) if bits >> i & 1)
        support = [(x, y) for x in range(n) for y in range(n) if S.mul(x, y) not in Z]
        equations = _cocycle_equations(S, support)
        if equations is None:
            continue

        def ok(vals):
            nonlocal nodes
            nodes += 1
            if nodes > FACTOR_SET_CAP:
                raise CapExceeded("factor-set search nodes", nodes, FACTOR_SET_CAP)
            for a, b, c, d in equations[len(vals) - 1]:
                if add[vals[a]][vals[b]] != add[vals[c]][vals[d]]:
                    return False
            return True

        for vals in backtrack([range(len(elements))] * len(support), ok):
            values = dict(base)
            for p, v in zip(support, vals):
                values[p] = elements[v]
            rho = FactorSet(S, A, values)
            bad = validate_factor_set(rho)
            if bad is not None:
                raise CertificateError(bad.witness, f"search emitted a map that breaks the {bad.kind} law")
            out.append(rho)
    return out


def _cocycle_equations(S, support):
    """The cocycle law on the support, or None if its zero pattern breaks it.

    Entry k lists the equations rho[a] + rho[b] = rho[c] + rho[d]
    (positions in ``support``) whose largest position is k.  None when
    one side of the law vanishes without the other for some triple.
    """
    n = S.order
    pos = {p: i for i, p in enumerate(support)}
    equations = [set() for _ in support]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                xy, yz = S.mul(x, y), S.mul(y, z)
                lhs_zero = (x, y) not in pos or (xy, z) not in pos
                if lhs_zero != ((y, z) not in pos or (x, yz) not in pos):
                    return None
                if lhs_zero:
                    continue
                lhs = tuple(sorted((pos[x, y], pos[xy, z])))
                rhs = tuple(sorted((pos[x, yz], pos[y, z])))
                if lhs != rhs:
                    equations[max(lhs + rhs)].add(lhs + rhs)
    return [sorted(e) for e in equations]


def brute_multiplier(S, A):
    """Oracle: enumerate factor sets, group by support, quotient by twists."""
    _require_monoid(S)
    all_sets = enumerate_factor_sets(S, A)
    by_ideal = {}
    for rho in all_sets:
        I = support_ideal(rho)
        by_ideal.setdefault(I, []).append(rho)
    # sanity: supports are exactly the ideals
    mismatch = set(by_ideal) ^ set(ideals(S))
    if mismatch:
        witness = sorted(min(mismatch, key=sorted))
        raise CertificateError(witness, "factor-set supports are not exactly the ideals")
    elements = A.elements()
    components = {}
    for I, sets in by_ideal.items():
        nonideal = [s for s in range(S.order) if s not in I]
        class_of = {}
        reps = []
        for rho in sets:
            k = rho.key()
            if k in class_of:
                continue
            cid = len(reps)
            reps.append(rho)
            # orbit under all twists alpha: S \ I -> A (twists form a
            # group action, so one sweep from the representative suffices)
            seen = set()
            for combo in product(elements, repeat=len(nonideal)):
                alpha = {s: A.zero() for s in range(S.order)}
                for s, v in zip(nonideal, combo):
                    alpha[s] = v
                seen.add(twist(rho, alpha).key())
            for tk in seen:
                class_of[tk] = cid
        # group structure on classes by pointwise product
        comp = BruteComponent(I, reps, class_of, None)
        eps_key = epsilon_factor_set(S, A, I).key()
        comp.invariants = finite_invariants_from_orders(list(range(len(reps))), comp.add, class_of[eps_key])
        components[I] = comp
    return BruteMultiplier(S, A, components)


def multipliers_agree(sl, brute):
    """Full comparison report between the two multiplier computations."""
    report = {"indices": None, "components": {}, "links": {}, "ok": True}
    idx_sl = set(sl.indices)
    idx_br = set(brute.components)
    report["indices"] = idx_sl == idx_br
    if not report["indices"]:
        report["ok"] = False
        return report
    for I in sl.indices:
        same = sl.components[I].invariants() == brute.components[I].invariants
        report["components"][tuple(sorted(I))] = same
        if not same:
            report["ok"] = False
    # links: compare invariant factors of image and kernel, plus
    # well-definedness of multiply-by-epsilon on brute classes
    for I in sl.indices:
        for J in sl.indices:
            if not I <= J:
                continue
            hom = sl.link(I, J)
            img_sl = subgroup(hom.target, hom.matrix.columns()).group.invariants()
            ker_sl = subgroup(hom.source, kernel_mod(hom.matrix, hom.target.factors)).group.invariants()
            bi, bj = brute.components[I], brute.components[J]
            mapped = [brute.link_class(I, J, cid) for cid in range(len(bi.class_reps))]
            id_I = bi.class_of[epsilon_factor_set(brute.semigroup, brute.group, I).key()]
            id_J = bj.class_of[epsilon_factor_set(brute.semigroup, brute.group, J).key()]
            img_br = _class_group_invariants(bj, sorted(set(mapped)), id_J)
            ker_br = _class_group_invariants(bi, [c for c, t in enumerate(mapped) if t == id_J], id_I)
            ok = img_sl == img_br and ker_sl == ker_br
            report["links"][(tuple(sorted(I)), tuple(sorted(J)))] = ok
            if not ok:
                report["ok"] = False
    return report


def _class_group_invariants(comp, classes, identity):
    """Invariants of the subgroup formed by ``classes`` of a brute component."""
    pos = {c: i for i, c in enumerate(classes)}
    return finite_invariants_from_orders(
        list(range(len(classes))), lambda a, b: pos[comp.add(classes[a], classes[b])], pos[identity]
    )
