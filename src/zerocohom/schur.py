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
type (see ``partial``); their ``provenance`` records how one was
certified, and is None for a factor set of a monoid.
"""

from dataclasses import dataclass, field
from itertools import product

from .abgroups import FinAbGroup, GroupHom, IntMatrix, finite_invariants_from_orders, kernel_mod, subgroup
from .cohomology import Cochain, _preimage, nerve, support_cohomology
from .errors import CapExceeded, CertificateError, CoefficientMismatch, InvalidModule, NotAnIdeal
from .modules import Violation, trivial_module
from .semigroups import backtrack, ideals, is_ideal, rees_quotient

SCHUR_ORDER_CAP = 12  # |S| for schur_multiplier
FACTOR_SET_CAP = 6_000_000  # value assignments per zero set in enumerate_factor_sets


@dataclass(frozen=True)
class FactorSet:
    semigroup: object  # the monoid S, or the group G of a partial factor set
    group: FinAbGroup
    values: dict = field(compare=False)  # (i, j) -> coefficient tuple or None
    provenance: str = field(default=None, compare=False)  # "idempotent" | "derived" | "product" | "inverse"

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
    I = frozenset(ideal)
    if not is_ideal(S, I):
        raise NotAnIdeal(sorted(I))
    one = A.zero()
    values = {}
    for x in range(S.order):
        for y in range(S.order):
            values[(x, y)] = None if S.mul(x, y) in I else one
    return FactorSet(S, A, values)


def validate_factor_set(rho):
    """None if rho is a factor set, else the first violating pair/triple.

    Checks the normalization over all pairs, then the completed cocycle
    law over all triples (both sides must vanish together, and agree
    when nonzero).
    """
    S = rho.semigroup
    if S.identity is None:
        raise ValueError("factor sets are defined over monoids")
    one = S.identity
    for x in range(S.order):
        for y in range(S.order):
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


def fs_product(rho, sigma):
    """Pointwise product, zero absorbing."""
    S, T = rho.semigroup, sigma.semigroup
    if S is not T and S.table != T.table:
        raise InvalidModule((S.order, T.order), "factor sets over different semigroups")
    if rho.group.factors != sigma.group.factors:
        raise CoefficientMismatch(rho.group, sigma.group)
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


def support_ideal(rho):
    """The ideal I with rho(x,y) = 0 iff xy in I; NotAnIdeal if invalid."""
    S = rho.semigroup
    one = S.identity
    I = frozenset(z for z in range(S.order) if rho.value(one, z) is None)
    if not is_ideal(S, I):
        raise NotAnIdeal(sorted(I))
    for x in range(S.order):
        for y in range(S.order):
            if (rho.value(x, y) is None) != (S.mul(x, y) in I):
                raise NotAnIdeal((x, y))
    return I


def equivalent(rho, sigma):
    """(True, alpha) when rho = (d alpha) * sigma with equal supports.

    alpha is a dict element -> coefficient tuple, identity on the
    support ideal; returns (False, None) otherwise.
    """
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
        ratio_vals[(qindex[x], qindex[y])] = A.add(v, A.neg(w))
    zero = A.zero()
    ratio = Cochain(2, {t: ratio_vals.get(t, zero) for t in nerve(Q, 2, "zero")})
    found, phi = _preimage(Q, MQ, ratio, "zero")
    if not found:
        return (False, None)
    alpha = {s: zero if s in I_r else phi.values[(qindex[s],)] for s in range(S.order)}
    return (True, alpha)


def twist(rho, alpha):
    """rho * d(alpha): the equivalent factor set defined by alpha."""
    S = rho.semigroup
    A = rho.group
    values = {}
    for (x, y), v in rho.values.items():
        if v is None:
            values[(x, y)] = None
        else:
            xy = S.mul(x, y)
            values[(x, y)] = A.add(v, A.add(alpha[x], A.add(A.neg(alpha[xy]), alpha[y])))
    return FactorSet(S, A, values)


@dataclass
class SemilatticeOfGroups:
    """Groups indexed by sets closed under union, ordered by inclusion.

    The join of two keys is their union.  A map into or out of a
    trivial group is zero, so ``links`` holds a map only for the pairs
    k1 <= k2 of nontrivial groups; ``link`` gives every pair's map.
    """

    indices: list  # hashable set keys, e.g. frozenset ideals
    components: dict  # key -> FinAbGroup (invariant form)
    links: dict  # (k1, k2) with k1 <= k2, both groups nontrivial -> GroupHom

    @classmethod
    def from_restrictions(cls, results):
        """Links that restrict cocycles to the smaller support.

        ``results`` maps each key, in index order, to its degree-2
        CohomologyResult, all read on one nerve, so that the tuples of a
        larger key are among those of a smaller one.  The link I -> J
        sends each witness of I to the class of its values on J's tuples.
        """
        keys = list(results)
        nontrivial = [k for k in keys if results[k].group.rank]
        links = {}
        for I in nontrivial:
            for J in nontrivial:
                if not I <= J:
                    continue
                hom = _restriction(results[I], results[J])
                if not hom.well_defined():
                    raise CertificateError((I, J), "restriction link not well defined on classes")
                links[(I, J)] = hom
        sl = cls(keys, {k: results[k].group for k in keys}, links)
        bad = sl.check_links_compose()
        if bad is not None:
            raise CertificateError(bad, "semilattice links fail to compose")
        return sl

    def link(self, I, J):
        """The link I -> J: the stored map, else the zero map."""
        hom = self.links.get((I, J))
        if hom is None:
            source, target = self.components[I], self.components[J]
            hom = GroupHom(source, target, IntMatrix(target.rank, source.rank))
        return hom

    def check_links_compose(self):
        """The first i <= j <= k with link(i,k) != link(j,k) link(i,j), then
        the first i with link(i,i) != identity, or None.

        A map out of or into a rank-0 group is the empty matrix, so a
        triple whose i or k is trivial, and the identity at a trivial i,
        hold without looking; every other triple is compared, a trivial
        j through its zero links.
        """
        nontrivial = [k for k in self.indices if self.components[k].rank]
        for i in nontrivial:
            for j in self.indices:
                if not i <= j:
                    continue
                for k in nontrivial:
                    if not j <= k:
                        continue
                    left = self.link(i, k)
                    right = self.link(j, k).compose(self.link(i, j))
                    if not left.equals(right):
                        return (i, j, k)
        for i in nontrivial:
            if not self.link(i, i).equals(GroupHom.identity(self.components[i])):
                return (i, i, i)
        return None


def _restriction(HI, HJ):
    """Class map H_I -> H_J of restricting each witness of HI to the tuples of HJ."""
    cols = []
    for k, w in enumerate(HI.witnesses):
        c = HJ.homology.coords([x for t in HJ.tuples for x in w.values[t]])
        if c is None:
            raise CertificateError(k, "restriction of a cocycle is not a cocycle")
        cols.append(list(c))
    return GroupHom(HI.group, HJ.group, IntMatrix.from_columns(cols, HJ.group.rank))


def multiplier_components(S, A):
    """{ideal I: H_0^2(S/I, A trivial)} for the monoid S, every component cut from one complex.

    The nerve of S/{} = S^0 is all of S^n.  A tuple lies in the nerve of
    S/I exactly when its full product is not in I, and then no letter or
    partial product is, as I is an ideal.  S/I numbers the elements off
    I in order, so its nerve is the kept tuples in the same order, with
    the same faces, and its coboundaries are the submatrices of those of
    S^0 on them (``support_cohomology``).  The witnesses are read on
    S^0, whose nonzero elements are those of S, with the same indices.
    """
    if S.identity is None:
        raise ValueError("Schur multipliers are defined over monoids")
    if S.order > SCHUR_ORDER_CAP:
        raise CapExceeded("monoid order", S.order, SCHUR_ORDER_CAP)
    top = rees_quotient(S, ())

    def supports(N):
        products = [N.products(m) for m in (1, 2, 3)]
        return ((I, [[p for p, x in enumerate(level) if x not in I] for level in products]) for I in ideals(S))

    return support_cohomology(top, trivial_module(top, A), 2, supports)


def schur_multiplier(S, A):
    """The multiplier as a strong semilattice of cohomology groups.

    Index set: all ideals of the monoid S under union (empty ideal
    included).  Component at I: H_0^2(S/I, A trivial), from
    ``multiplier_components``.  Link I -> J for I <= J: restriction of
    cocycles to the smaller support (multiply by the idempotent of J),
    realized on cohomology.
    """
    return SemilatticeOfGroups.from_restrictions(multiplier_components(S, A))


@dataclass
class BruteComponent:
    ideal: frozenset
    class_reps: list  # FactorSet representatives
    class_of: dict  # factor-set key -> class id
    invariants: tuple

    def add(self, c1, c2):
        """Class of the pointwise product of the representatives of c1, c2."""
        return self.class_of[fs_product(self.class_reps[c1], self.class_reps[c2]).key()]


@dataclass
class BruteMultiplier:
    semigroup: object
    group: FinAbGroup
    components: dict  # ideal -> BruteComponent

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
    product scan.  Every hit is re-checked by validate_factor_set.
    """
    n = S.order
    if A.order() is None:
        raise CapExceeded("factor-set value assignment count (infinite coefficients)", None, FACTOR_SET_CAP)
    out = []
    elements = A.elements()
    index = {v: i for i, v in enumerate(elements)}
    add = [[index[A.add(u, v)] for v in elements] for u in elements]
    base = {(x, y): None for x in range(n) for y in range(n)}
    for bits in range(2**n):
        Z = frozenset(i for i in range(n) if bits >> i & 1)
        support = [(x, y) for x in range(n) for y in range(n) if S.mul(x, y) not in Z]
        total = A.order() ** len(support)
        if total > FACTOR_SET_CAP:
            raise CapExceeded("factor-set value assignment count", total, FACTOR_SET_CAP)
        equations = _cocycle_equations(S, support)
        if equations is None:
            continue

        def ok(vals):
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
    if S.identity is None:
        raise ValueError("monoids only")
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
