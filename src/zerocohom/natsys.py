"""Cohomology of a monoid-with-zero through its category of factorizations.

Objects are the nonzero elements; a morphism (alpha, a, beta): a -> b
exists when alpha * a * beta = b is nonzero, with composition
(alpha', beta')(alpha, beta) = (alpha' alpha, beta beta').  A natural
system assigns an abelian group to each object and compatible maps
alpha_* = D(alpha, 1), beta^* = D(1, beta) to the generating morphisms.
A 0-module gives one (``from_zero_module``), with beta^* its right
action when it has one.

The cochain complex uses the nerve of nonzero products; its coboundary
acts by alpha_* on the first slot and beta^* on the last.  The bar
system B_n is objectwise free on the (n+2)-letter factorizations of the
object, the tuples [a_0 | t | a_{n+1}] of level n + 2 of the same
``cohomology.Nerve``, each over its full product; its faces d_0..d_n,
the inner rows of that level's face maps, multiply letters i and i + 1.
Comparing Hom(B_n, D) with the cochain complex realizes the
derived-functor description at desk scale.
"""

from collections import Counter
from itertools import combinations

from .abgroups import FinAbGroup, GroupHom, IntMatrix, complex_homology, is_hom, same_map
from .errors import CapExceeded, DegreeMismatch, FunctorialityError, NotAComplex, NotMonoidWithZero
from .cohomology import _check_module, assemble_coboundary, cochain_group
from .modules import trivial_module
from .nerve import Nerve
from .semigroups import Frozen, require_same


def _require_monoid_with_zero(S):
    if S.identity is None or S.zero is None:
        raise NotMonoidWithZero("need a monoid with zero")
    if S.identity == S.zero:
        raise NotMonoidWithZero(
            "the identity is the zero: degree-0 cochains sit on the identity, which is not an object"
        )


class FacCategory(Frozen):
    """The nonzero elements of ``semigroup`` as objects and the triples
    (alpha, a, beta) with alpha*a*beta != 0 as morphisms."""

    __slots__ = ("semigroup", "objects", "morphisms")


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
        return self._map(self.left, alpha, a)

    def right_map(self, beta, a):
        return self._map(self.right, beta, a)

    def _map(self, stored, g, a):
        hit = stored.get((g, a))
        if hit is not None:
            return hit
        if g == self.semigroup.identity:
            return IntMatrix.identity(self.groups[a].rank)
        raise KeyError((g, a))

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
    # each side in one pass, the right one through the opposite product: a
    # stored map for each non-identity generator, its shape and
    # well-definedness, then functoriality
    sides = (
        ("left", D.left, D.left_map, lambda x, y: (x, y)),
        ("right", D.right, D.right_map, lambda x, y: (y, x)),
    )
    for a in objects:
        for side, stored, act, order in sides:
            for g in range(S.order):
                ga = S.mul(*order(g, a))
                if ga != z:
                    if g != e and (g, a) not in stored:
                        return (f"{side}-missing", (g, a))
                    if not is_hom(D.groups[a], D.groups[ga], act(g, a)):
                        return (f"{side}-hom", (g, a))
    for a in objects:
        for side, stored, act, order in sides:
            for g in range(S.order):
                ga = S.mul(*order(g, a))
                if ga == z:
                    continue
                for h in range(S.order):
                    hga = S.mul(*order(h, ga))
                    if hga == z:
                        continue
                    lhs = act(h, ga).mul(act(g, a))
                    if not same_map(D.groups[hga], lhs, act(S.mul(*order(h, g)), a)):
                        return (f"{side}-compose", order(h, g) + (a,))
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
    """The natural system of a (unital) 0-module: D_a = A, alpha_* = action.

    D(1, beta) is the module's right action, or the identity when it has
    none: D(alpha, a, beta) = alpha m beta, whose cohomology is the
    module's own on the zero nerve.

    The laws of D are the module's (alpha'(alpha a) != 0 forces
    alpha' alpha != 0, so each action's law gives functoriality on its
    side, and their compatibility the square), so the module and its
    unitality are checked, not the natural system.
    """
    S = M.semigroup
    _require_monoid_with_zero(S)
    _check_module(S, M)
    e = S.identity
    one = IntMatrix.identity(M.group.rank)
    for action in (M.action, M.right):
        if action is not None and not same_map(M.group, action[e], one):
            raise FunctorialityError(("identity-map", (e, S.nonzero()[0])))
    groups = {a: M.group for a in S.nonzero()}
    left = {}
    right = {}
    z = S.zero
    for a in S.nonzero():
        for alpha in range(S.order):
            if S.mul(alpha, a) != z:
                left[(alpha, a)] = M.matrix(alpha)
            if S.mul(a, alpha) != z:
                right[(alpha, a)] = one if M.right is None else M.right[alpha]
    return NaturalSystem(S, groups, left, right)


def trivial_Z(S):
    """Every object gets Z; every morphism the identity."""
    return from_zero_module(trivial_module(S, FinAbGroup([0])))


NATSYS_DEGREE_CAP = 3


def natsys_coboundary_hom(N, D, n):
    """Degree-n coboundary of the natural-system cochain complex on the zero nerve N.

    The first slot acts by alpha_* = D(t[0], 1) and the last by
    beta^* = D(1, t[-1]); in degree 0 these are D(x, 1) and D(1, x) on
    the group of the identity.  Each acts on the group of the face's
    object, the product stored at the face's position.
    """
    below = N.products(n)
    groups = lambda m: [D.groups[a] for a in N.products(m)]
    alpha = lambda x, q: D.left_map(x, below[q])
    beta = lambda y, q: D.right_map(y, below[q])
    return assemble_coboundary(N, n, groups, alpha, beta)


def natsys_cohomology(S, D, n):
    """H^n of the cochain complex of a natural system (n <= 3)."""
    if n > NATSYS_DEGREE_CAP:
        raise CapExceeded("degree", n, NATSYS_DEGREE_CAP)
    require_same(S, D.semigroup)
    N = Nerve(S)
    return complex_homology(*N.complex_at(n, lambda k: natsys_coboundary_hom(N, D, k))).group


# ---------------------------------------------------------------------------
# the bar resolution on the nerve


def _generators(S):
    """The generating morphisms (alpha, 1) and (1, beta); (1, 1) once, as a left one."""
    e = S.identity
    return list(dict.fromkeys([(g, e) for g in range(S.order)] + [(e, g) for g in range(S.order)]))


def bar_action(N, m, alpha, beta):
    """B(alpha, 1) or B(1, beta) on the symbols of nerve level m, as an index list.

    Entry p is the position of [alpha a_0 | t | a_{n+1} beta] for the
    symbol p = [a_0 | t | a_{n+1}] over a, or -1 if alpha a beta = 0.
    """
    if beta == N.semigroup.identity:
        slots, w, left = N.slots(m), N.size(m - 1), N.semigroup.table[alpha]
        return [slots[left[x] * w + j] for x, j in zip(N.heads(m), N.tails(m))]
    rslots, s, right = N.rslots(m), N.semigroup.order, [row[beta] for row in N.semigroup.table]
    return [rslots[i * s + right[y]] for i, y in zip(N.faces(m)[-1], N.lasts(m))]


def bar_resolution(N, n_max):
    """Build the bar resolution B_0..B_{n_max} on the zero nerve N, and check it.

    The differential is the alternating sum of the faces, which keep the
    object.  dd = 0 follows from the simplicial identities d_i d_j =
    d_{j-1} d_i (i < j), checked on the index lists (``NotAComplex``
    with witness (n, a)).  Naturality is checked face by face for each
    generating morphism, act_{n-1}[d_i[p]] == d_i[act_n[p]]
    (``FunctorialityError`` with witness (n, a, "left", alpha) or
    (n, a, "right", beta)).  A negative n_max raises ``DegreeMismatch``, one above the cap ``CapExceeded``.
    """
    if n_max < 0:
        raise DegreeMismatch("negative degree")
    if n_max > NATSYS_DEGREE_CAP:
        raise CapExceeded("bar degree", n_max, NATSYS_DEGREE_CAP)
    S = N.semigroup
    _require_monoid_with_zero(S)
    faces = [[]] + [N.faces(n + 2)[1:-1] for n in range(1, n_max + 1)]
    for n in range(2, n_max + 1):
        for (i, d_i), (j, d_j) in combinations(enumerate(faces[n]), 2):
            for p, (x, y) in enumerate(zip(d_j, d_i)):
                if faces[n - 1][i][x] != faces[n - 1][j - 1][y]:
                    raise NotAComplex((n, N.products(n + 2)[p]))
    for alpha, beta in _generators(S):
        side = ("left", alpha) if beta == S.identity else ("right", beta)
        prev = None  # B_0 has no faces, so prev is read from B_1 on
        for n in range(n_max + 1):
            act = bar_action(N, n + 2, alpha, beta)
            for d in faces[n]:
                for p, q in enumerate(act):
                    if q >= 0 and prev[d[p]] != d[q]:
                        raise FunctorialityError((n, N.products(n + 2)[p]) + side)
            prev = act


def bar_exactness_report(S, n_max):
    """Objectwise homology of the augmented bar complex, degrees < n_max.

    Returns {object: [invariants in degree 0, 1, ...]}; exactness means
    every entry is the empty tuple.
    """
    N = Nerve(S)
    bar_resolution(N, n_max)
    report = {}
    for a in S.nonzero():
        own = [[p for p, b in enumerate(N.products(n + 2)) if b == a] for n in range(n_max + 1)]
        free = [FinAbGroup([0] * len(ps)) for ps in own]
        # augmentation B_0(a) -> Z, every symbol to the generator
        maps = [GroupHom(free[0], FinAbGroup([0]), IntMatrix.from_sparse(1, [{0: 1} for _ in own[0]]))]
        for n in range(1, n_max + 1):
            row = {p: r for r, p in enumerate(own[n - 1])}
            cols = [Counter() for _ in own[n]]
            for i, d in enumerate(N.faces(n + 2)[1:-1]):
                for col, p in zip(cols, own[n]):
                    col[row[d[p]]] += (-1) ** i
            cols = [{r: x for r, x in col.items() if x} for col in cols]
            maps.append(GroupHom(free[n], free[n - 1], IntMatrix.from_sparse(len(row), cols)))
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
    require_same(S, D.semigroup)
    # one Nerve serves the coboundaries, the bar resolution and the hom side
    N = Nerve(S)
    deltas = [natsys_coboundary_hom(N, D, n) for n in range(n_max + 1)]
    bar_resolution(N, n_max)
    e, z = S.identity, S.zero
    report = {"naturality": True, "differentials": True, "groups": [], "ok": True}

    # The unit cochain (t, j) vanishes off t, and the bar action keeps a
    # symbol's interior, so every check on a symbol whose interior is not
    # t reads 0 = 0.  On [a_0 | t | a_{n+1}] it takes the value column j
    # of D(a_0, object of t, a_{n+1}), reduced in the group of the
    # symbol's object: eta holds it once per key (a_0, object of t, a_{n+1}).
    eta, keys_over = {}, {a: [] for a in S.nonzero()}
    for m in range(2, n_max + 3):
        inner, tails = N.products(m - 2), N.tails(m - 1)  # the interior is the tail of the last face
        for a0, i, a1, a in zip(N.heads(m), N.faces(m)[-1], N.lasts(m), N.products(m)):
            key = (a0, inner[tails[i]], a1)
            if key not in eta:
                eta[key] = [D.groups[a].reduce(c) for c in D.morphism_matrix(*key).columns()]
                keys_over[a].append(key)

    # naturality over the generating morphisms (alpha, 1) and (1, beta):
    # (alpha, beta) sends a symbol of key (a_0, b, a_1) to one of key
    # (alpha a_0, b, a_1 beta)
    for a, keys in keys_over.items():
        for alpha, beta in _generators(S):
            b = S.mul(S.mul(alpha, a), beta)
            if b == z:
                continue
            M = D.morphism_matrix(alpha, a, beta)
            mapped = {}  # eta takes few distinct values: map each once
            for a0, t, a1 in keys:
                for lhs, val in zip(eta[S.mul(alpha, a0), t, S.mul(a1, beta)], eta[a0, t, a1]):
                    if val not in mapped:
                        mapped[val] = D.groups[b].reduce(M.vec(val))
                    if lhs != mapped[val]:
                        report["naturality"] = False

    offsets = [cochain_group([D.groups[a] for a in N.products(m)])[1] for m in range(n_max + 2)]
    hom_mats = []  # hom_mats[n] leaves degree n
    for n in range(n_max + 1):
        # eta |-> eta o (bar boundary) in normalized coordinates: the face
        # d_i of [1 | t | 1] is [x | d_i t | y] with the nerve face d_i t,
        # x = t[0] if i = 0 and y = t[-1] if i = n + 1, and 1 otherwise
        src_off, dst_off, below = offsets[n], offsets[n + 1], N.products(n)
        cols = [{} for _ in range(deltas[n].source.rank)]
        for p, (a0, a1, a, r0) in enumerate(zip(N.heads(n + 1), N.lasts(n + 1), N.products(n + 1), dst_off)):
            group = D.groups[a]
            acc = {}
            for i, d in enumerate(N.faces(n + 1)):
                key = (a0 if i == 0 else e, below[d[p]], a1 if i == n + 1 else e)
                for c, v in enumerate(eta[key], src_off[d[p]]):
                    acc[c] = [x + (-1) ** i * y for x, y in zip(acc.get(c, [0] * group.rank), v)]
            for c, col in acc.items():
                for r, x in enumerate(group.reduce(col), r0):
                    if x:
                        cols[c][r] = x
        mat = IntMatrix.from_sparse(deltas[n].target.rank, cols)
        if not same_map(deltas[n].target, mat, deltas[n].matrix):
            report["differentials"] = False
        hom_mats.append(GroupHom(deltas[n].source, deltas[n].target, mat))

    # cohomology only once the hom side is known to be the cochain
    # complex (else it may not be a complex at all)
    if not (report["naturality"] and report["differentials"]):
        report["ok"] = False
        return report
    for n in range(n_max + 1):
        report["groups"].append(complex_homology(*N.complex_at(n, lambda k: hom_mats[k])).group.invariants())
    return report
