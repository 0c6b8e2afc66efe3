"""Cohomology of a monoid-with-zero through its category of factorizations.

Objects are the nonzero elements; a morphism (alpha, a, beta): a -> b
exists when alpha * a * beta = b is nonzero, with composition
(alpha', beta')(alpha, beta) = (alpha' alpha, beta beta').  A natural
system assigns an abelian group to each object and compatible maps
alpha_* = D(alpha, 1), beta^* = D(1, beta) to the generating morphisms.

The cochain complex uses the nerve of nonzero products; its coboundary
acts by alpha_* on the first slot and beta^* on the last.  The bar
system B_n is objectwise free on the (n+2)-letter factorizations of the
object; comparing Hom(B_n, D) with the cochain complex realizes the
derived-functor description at desk scale.
"""

from dataclasses import dataclass, field

from .abgroups import FinAbGroup, GroupHom, IntMatrix, SparseMatrix, complex_homology, is_hom, same_map
from .errors import CapExceeded, DegreeMismatch, FunctorialityError, NotAComplex, NotMonoidWithZero
from .cohomology import assemble_coboundary, cochain_group, nerve
from .modules import trivial_module


def _require_monoid_with_zero(S):
    if S.identity is None or S.zero is None:
        raise NotMonoidWithZero("need a monoid with zero")
    if S.identity == S.zero:
        raise NotMonoidWithZero(
            "the identity is the zero: degree-0 cochains sit on the identity, which is not an object"
        )


@dataclass(frozen=True)
class FacCategory:
    semigroup: object
    objects: tuple
    morphisms: tuple  # triples (alpha, a, beta) with alpha*a*beta != 0


def fac_category(S):
    """The category of factorizations, with composition law verified."""
    _require_monoid_with_zero(S)
    z = S.zero
    objects = tuple(S.nonzero())
    morphisms = []
    for alpha in range(S.order):
        for a in objects:
            for beta in range(S.order):
                if S.mul(S.mul(alpha, a), beta) != z:
                    morphisms.append((alpha, a, beta))
    cat = FacCategory(S, objects, tuple(morphisms))
    _verify_category(cat)
    return cat


def _verify_category(cat):
    S = cat.semigroup
    z = S.zero
    e = S.identity
    morph_set = set(cat.morphisms)
    for a in cat.objects:
        if (e, a, e) not in morph_set:
            raise FunctorialityError(("missing-identity", a))
    for alpha, a, beta in cat.morphisms:
        b = S.mul(S.mul(alpha, a), beta)
        # composable follow-ups: (alpha', b, beta')
        for alphap in range(S.order):
            for betap in range(S.order):
                if S.mul(S.mul(alphap, b), betap) != z:
                    comp = (S.mul(alphap, alpha), a, S.mul(beta, betap))
                    if comp not in morph_set:
                        witness = (alphap, alpha, a, beta, betap)
                        raise FunctorialityError(("missing-composite", witness))


class NaturalSystem:
    """Functor data: groups per object, maps for (alpha, 1) and (1, beta).

    ``left[(alpha, a)]`` is the matrix of D(alpha, a, 1): D_a -> D_{alpha a},
    ``right[(beta, a)]`` of D(1, a, beta): D_a -> D_{a beta}; the identity
    morphism maps are implicit.
    """

    def __init__(self, S, groups, left, right):
        _require_monoid_with_zero(S)
        self.semigroup = S
        self.groups = dict(groups)
        self.left = dict(left)
        self.right = dict(right)

    def group(self, a):
        return self.groups[a]

    def left_map(self, alpha, a):
        hit = self.left.get((alpha, a))
        if hit is not None:
            return hit
        if alpha == self.semigroup.identity:
            return IntMatrix.identity(self.groups[a].rank)
        raise KeyError((alpha, a))

    def right_map(self, beta, a):
        hit = self.right.get((beta, a))
        if hit is not None:
            return hit
        if beta == self.semigroup.identity:
            return IntMatrix.identity(self.groups[a].rank)
        raise KeyError((beta, a))

    def morphism_matrix(self, alpha, a, beta):
        """Matrix of D(alpha, a, beta) = alpha_* after beta^*."""
        S = self.semigroup
        ab = S.mul(a, beta)
        return self.left_map(alpha, ab).mul(self.right_map(beta, a))


def natural_system(S, groups, left, right):
    """Build and exhaustively validate a natural system."""
    D = NaturalSystem(S, groups, left, right)
    witness = validate_natural_system(D)
    if witness is not None:
        raise FunctorialityError(witness)
    return D


def validate_natural_system(D):
    S = D.semigroup
    z = S.zero
    objects = [a for a in S.nonzero()]
    for a in objects:
        if a not in D.groups:
            return ("missing-group", a)
    # the identity morphism must act as the identity
    e = S.identity
    for a in objects:
        for stored, key in ((D.left, (e, a)), (D.right, (e, a))):
            M = stored.get(key)
            if M is not None and not same_map(D.groups[a], M, IntMatrix.identity(D.groups[a].rank)):
                return ("identity-map", key)
    # map shapes and well-definedness
    for a in objects:
        for alpha in range(S.order):
            if S.mul(alpha, a) != z:
                M = D.left_map(alpha, a)
                if not is_hom(D.groups[a], D.groups[S.mul(alpha, a)], M):
                    return ("left-hom", (alpha, a))
        for beta in range(S.order):
            if S.mul(a, beta) != z:
                M = D.right_map(beta, a)
                if not is_hom(D.groups[a], D.groups[S.mul(a, beta)], M):
                    return ("right-hom", (beta, a))
    # functoriality of each side
    for a in objects:
        for alpha in range(S.order):
            aa = S.mul(alpha, a)
            if aa == z:
                continue
            for alphap in range(S.order):
                if S.mul(alphap, aa) == z:
                    continue
                lhs = D.left_map(alphap, aa).mul(D.left_map(alpha, a))
                rhs = D.left_map(S.mul(alphap, alpha), a)
                if not same_map(D.groups[S.mul(alphap, aa)], lhs, rhs):
                    return ("left-compose", (alphap, alpha, a))
        for beta in range(S.order):
            ab = S.mul(a, beta)
            if ab == z:
                continue
            for betap in range(S.order):
                if S.mul(ab, betap) == z:
                    continue
                lhs = D.right_map(betap, ab).mul(D.right_map(beta, a))
                rhs = D.right_map(S.mul(beta, betap), a)
                if not same_map(D.groups[S.mul(ab, betap)], lhs, rhs):
                    return ("right-compose", (beta, betap, a))
    # the two decompositions of (alpha, beta) agree
    for a in objects:
        for alpha in range(S.order):
            for beta in range(S.order):
                if S.mul(S.mul(alpha, a), beta) == z:
                    continue
                ab = S.mul(a, beta)
                aa = S.mul(alpha, a)
                via_right_first = D.left_map(alpha, ab).mul(D.right_map(beta, a))
                via_left_first = D.right_map(beta, aa).mul(D.left_map(alpha, a))
                if not same_map(D.groups[S.mul(aa, beta)], via_right_first, via_left_first):
                    return ("square", (alpha, a, beta))
    return None


def from_zero_module(M):
    """The natural system of a (unital) 0-module: D_a = A, alpha_* = action."""
    S = M.semigroup
    _require_monoid_with_zero(S)
    groups = {a: M.group for a in S.nonzero()}
    left = {}
    right = {}
    z = S.zero
    for a in S.nonzero():
        for alpha in range(S.order):
            if S.mul(alpha, a) != z:
                left[(alpha, a)] = M.matrix(alpha)
            if S.mul(a, alpha) != z:
                right[(alpha, a)] = IntMatrix.identity(M.group.rank)
    return natural_system(S, groups, left, right)


def trivial_Z(S):
    """Every object gets Z; every morphism the identity."""
    return from_zero_module(trivial_module(S, FinAbGroup([0])))


NATSYS_DEGREE_CAP = 3


def _object(S, t):
    """The full product of a nerve tuple; the identity for the empty tuple."""
    return S.mul_word(t) if t else S.identity


def _tuple_group(D, tuples):
    S = D.semigroup
    return cochain_group(tuples, lambda t: D.groups[_object(S, t)])


def natsys_coboundary_hom(S, D, n, nerves=None):
    """Degree-n coboundary of the natural-system cochain complex.

    The first slot acts by alpha_* = D(t[0], 1) and the last by
    beta^* = D(1, t[-1]); in degree 0 these are D(x, 1) and D(1, x) on
    the group of the identity.  ``nerves``, when given, is the pair of
    degree-n and degree-(n+1) nerves.
    """
    if nerves is None:
        nerves = (nerve(S, n, "zero"), nerve(S, n + 1, "zero"))
    return assemble_coboundary(
        S,
        *nerves,
        lambda t: D.groups[_object(S, t)],
        lambda t: D.left_map(t[0], _object(S, t[1:])),
        lambda t: D.right_map(t[-1], _object(S, t[:-1])),
    )


def natsys_cohomology(S, D, n):
    """H^n of the cochain complex of a natural system (n <= 3)."""
    if n > NATSYS_DEGREE_CAP:
        raise CapExceeded("degree", n, NATSYS_DEGREE_CAP)
    tuples = nerve(S, n, "zero")
    d_out = natsys_coboundary_hom(S, D, n, (tuples, nerve(S, n + 1, "zero")))
    if n == 0:
        d_in = GroupHom(FinAbGroup(()), d_out.source, SparseMatrix(d_out.source.rank, []))
    else:
        d_in = natsys_coboundary_hom(S, D, n - 1, (nerve(S, n - 1, "zero"), tuples))
    return complex_homology(d_in, d_out).group


# ---------------------------------------------------------------------------
# bar systems


@dataclass(frozen=True)
class BarSystem:
    degree: int
    symbols: dict = field(compare=False)  # object -> list of (n+2)-tuples
    index: dict = field(compare=False)  # object -> {symbol: position in symbols}

    def rank(self, a):
        return len(self.symbols[a])


def bar_system(S, n):
    """Objectwise free groups on the (n+2)-letter factorizations."""
    _require_monoid_with_zero(S)
    symbols = {a: [] for a in S.nonzero()}
    for t in nerve(S, n + 2):
        symbols[S.mul_word(t)].append(t)
    index = {a: {s: i for i, s in enumerate(syms)} for a, syms in symbols.items()}
    return BarSystem(n, symbols, index)


def bar_action(S, B, alpha, beta, a):
    """Index map of B(alpha, beta): symbols of a -> symbols of alpha a beta."""
    tgt_index = B.index[S.mul(S.mul(alpha, a), beta)]
    return [tgt_index[(S.mul(alpha, s[0]),) + s[1:-1] + (S.mul(s[-1], beta),)] for s in B.symbols[a]]


def bar_boundary_matrix(S, B_n, B_prev, a):
    """The alternating face sum on the object a, as sparse columns."""
    tgt_index = B_prev.index[a]
    cols = []
    for s in B_n.symbols[a]:
        col = {}
        sign = 1
        for i in range(B_n.degree + 1):
            r = tgt_index[s[:i] + (S.mul(s[i], s[i + 1]),) + s[i + 2 :]]
            col[r] = col.get(r, 0) + sign
            sign = -sign
        cols.append({r: x for r, x in col.items() if x})
    return SparseMatrix(B_prev.rank(a), cols)


@dataclass(frozen=True)
class BarResolution:
    """The bar systems B_0..B_{n_max} and the maps built on them.

    ``boundaries[n, a]`` is the differential B_n(a) -> B_{n-1}(a) for
    n >= 1; ``actions[n, a, alpha, beta]`` is the index map of
    B_n(alpha, beta) on the symbols of a, for every generating morphism
    (alpha, 1) or (1, beta) with alpha a beta nonzero.
    """

    levels: list
    boundaries: dict
    actions: dict


def bar_resolution(S, n_max):
    """Bar systems B_0..B_{n_max} with differentials and index maps.

    Verifies dd = 0 objectwise (``NotAComplex`` with witness (n, a)) and
    naturality of the differential with respect to the generating
    morphisms (alpha, 1) and (1, beta) (``FunctorialityError`` with
    witness (n, a, "left", alpha) or (n, a, "right", beta));
    ``bar_exactness_report`` checks exactness.
    """
    _require_monoid_with_zero(S)
    levels = [bar_system(S, n) for n in range(n_max + 1)]
    z = S.zero
    e = S.identity
    boundaries = {}
    for n in range(1, n_max + 1):
        for a in S.nonzero():
            d = boundaries[n, a] = bar_boundary_matrix(S, levels[n], levels[n - 1], a)
            if n >= 2 and any(boundaries[n - 1, a].mul(d).cols):
                raise NotAComplex((n, a))
    # dict.fromkeys keeps (1, 1) once, as a left generator
    generators = dict.fromkeys([(g, e) for g in range(S.order)] + [(e, g) for g in range(S.order)])
    actions = {}
    for n, B in enumerate(levels):
        for a in S.nonzero():
            for alpha, beta in generators:
                if S.mul(S.mul(alpha, a), beta) != z:
                    actions[n, a, alpha, beta] = bar_action(S, B, alpha, beta, a)
    for (n, a, alpha, beta), act_n in actions.items():
        if n == 0:
            continue
        b = S.mul(S.mul(alpha, a), beta)
        act_prev = actions[n - 1, a, alpha, beta]
        # boundary then act == act then boundary, column by column
        for j, col in enumerate(boundaries[n, a].cols):
            via_b = {}
            for i, x in col.items():
                via_b[act_prev[i]] = via_b.get(act_prev[i], 0) + x
            if {i: x for i, x in via_b.items() if x} != boundaries[n, b].cols[act_n[j]]:
                raise FunctorialityError((n, a, "left", alpha) if beta == e else (n, a, "right", beta))
    return BarResolution(levels, boundaries, actions)


def bar_exactness_report(S, n_max):
    """Objectwise homology of the augmented bar complex, degrees < n_max.

    Returns {object: [invariants in degree 0, 1, ...]}; exactness means
    every entry is the empty tuple.
    """
    res = bar_resolution(S, n_max)
    report = {}
    for a in S.nonzero():
        free = [FinAbGroup([0] * B.rank(a)) for B in res.levels]
        # augmentation B_0(a) -> Z, every symbol to the generator
        maps = [GroupHom(free[0], FinAbGroup([0]), SparseMatrix(1, [{0: 1} for _ in range(free[0].rank)]))]
        maps += [GroupHom(free[n], free[n - 1], res.boundaries[n, a]) for n in range(1, n_max + 1)]
        report[a] = [complex_homology(maps[n + 1], maps[n]).group.invariants() for n in range(n_max)]
    return report


# ---------------------------------------------------------------------------
# the hom-complex comparison


def hom_complex_compare(S, D, n_max=2):
    """Degreewise comparison of cochains with Hom(B_n, D).

    A degree-n symbol [a_0..a_{n+1}] is the image of the normalized
    symbol [1, a_1..a_n, 1] under the morphism (a_0, a_{n+1}), and its
    interior a_1..a_n, a factor of a nonzero product, is a nerve tuple;
    both follow from the monoid axioms.  So a natural transformation is
    determined by its normalized values, which biject with cochains, and
    the comparison works in normalized coordinates.  For each degree
    n <= n_max it verifies, exhaustively:

    * naturality: the extension of an arbitrary cochain to all symbols
      is natural for all generating morphisms;
    * differentials: the map eta |-> eta o (bar boundary), computed in
      normalized coordinates, equals the cochain coboundary matrix;
    * cohomology: ``groups`` lists the homology in each degree <= n_max.
      Once the differentials agree modulo the target, the two complexes
      are one, so one group per degree is computed, and only when the
      two checks above hold: a D that is not natural leaves ``groups``
      empty instead of failing in the homology.

    Only B_0..B_{n_max} are built, and only after the coboundaries, so a
    coboundary over its cap raises ``CapExceeded`` before any bar work.
    Returns a report dict; ``ok`` is the overall verdict.  A negative
    n_max raises ``DegreeMismatch``, one above the cap ``CapExceeded``.
    """
    if n_max < 0:
        raise DegreeMismatch("negative degree")
    if n_max > NATSYS_DEGREE_CAP - 1:
        raise CapExceeded("comparison degree", n_max, NATSYS_DEGREE_CAP - 1)
    _require_monoid_with_zero(S)
    nerves = [nerve(S, n, "zero") for n in range(n_max + 2)]
    deltas = [natsys_coboundary_hom(S, D, n, nerves[n : n + 2]) for n in range(n_max + 1)]
    res = bar_resolution(S, n_max)
    e = S.identity
    report = {"naturality": True, "differentials": True, "groups": [], "ok": True}

    # The unit cochain (t, j) vanishes off t, and the bar action keeps a
    # symbol's interior, so every check on a symbol whose interior is not
    # t reads 0 = 0.  eta[s][j] is the value on s of the unit cochain at
    # (interior of s, j): column j of D(s[0], interior, s[-1]), reduced in
    # the group of the object of s.  Only those values enter the checks
    # below.
    eta = {}
    for B in res.levels:
        for a in S.nonzero():
            group = D.groups[a]
            for s in B.symbols[a]:
                M = D.morphism_matrix(s[0], _object(S, s[1:-1]), s[-1])
                eta[s] = [group.reduce(c) for c in M.columns()]

    # naturality over the generating morphisms (alpha, 1) and (1, beta)
    for (n, a, alpha, beta), act in res.actions.items():
        B = res.levels[n]
        b = S.mul(S.mul(alpha, a), beta)
        M = D.morphism_matrix(alpha, a, beta)
        mapped = {}  # eta takes few distinct values: map each once
        for si, s in enumerate(B.symbols[a]):
            image = B.symbols[b][act[si]]
            for lhs, val in zip(eta[image], eta[s]):
                if val not in mapped:
                    mapped[val] = D.groups[b].reduce(M.vec(val))
                if lhs != mapped[val]:
                    report["naturality"] = False

    hom_mats = []
    for n in range(n_max + 1):
        # eta |-> eta o (bar boundary) in normalized coordinates
        src, src_off = _tuple_group(D, nerves[n])
        dst, dst_off = _tuple_group(D, nerves[n + 1])
        pos = dict(zip(nerves[n], src_off))
        cols = [{} for _ in range(src.rank)]
        for t, r0 in zip(nerves[n + 1], dst_off):
            group = D.groups[S.mul_word(t)]
            sym = (e,) + t + (e,)
            acc = {}
            sign = 1
            for i in range(n + 2):
                face = sym[:i] + (S.mul(sym[i], sym[i + 1]),) + sym[i + 2 :]
                c0 = pos[face[1:-1]]
                for j, v in enumerate(eta[face]):
                    col = acc.setdefault(c0 + j, [0] * group.rank)
                    for r, x in enumerate(v):
                        col[r] += sign * x
                sign = -sign
            for c, col in acc.items():
                for r, x in enumerate(group.reduce(col)):
                    if x:
                        cols[c][r0 + r] = x
        mat = SparseMatrix(dst.rank, cols)
        if not same_map(deltas[n].target, mat, deltas[n].matrix):
            report["differentials"] = False
        hom_mats.append(GroupHom(src, dst, mat))

    # cohomology only once the hom side is known to be the cochain
    # complex (else it may not be a complex at all)
    if not (report["naturality"] and report["differentials"]):
        report["ok"] = False
        return report
    d_zero = GroupHom(FinAbGroup(()), hom_mats[0].source, SparseMatrix(hom_mats[0].source.rank, []))
    for n in range(n_max + 1):
        d_in = hom_mats[n - 1] if n else d_zero
        report["groups"].append(complex_homology(d_in, hom_mats[n]).group.invariants())
    return report
