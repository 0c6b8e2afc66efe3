"""Nerves, cochains, the coboundary operator, and cohomology groups.

A ``Nerve`` builds and owns a nerve's levels and face maps, from one
scan per level: every coboundary builder reads one, and each entry
point builds one per call.  The builder emits an ``IntMatrix``, whose
sparse columns the elimination reads as they are.

Cochains live on the zero nerve: tuples of nonzero elements with
nonzero full product.  Classical (Eilenberg-MacLane) cohomology of S is
the 0-cohomology of S^0, whose zero nerve is all of S^n; the entry
points that take a ``variant`` resolve ``em`` to S^0 once.

The coboundary of f in degree n sends (x_1, ..., x_{n+1}) to

    x_1 f(x_2..x_{n+1}) + sum_i (-1)^i f(.., x_i x_{i+1}, ..)
                        + (-1)^{n+1} f(x_1..x_n)           [* x_{n+1}]

with the degree-0 rule a |-> (x a - a), resp. (x a - a x).  The
bracketed right action is applied exactly when the module has one
(``ZeroModule.right``); nothing else decides it.

Restriction: a table on the elements of S that agrees with S's off its
zero cuts from S's nerve the tuples whose product under it is not zero.
When these are closed under faces, with the same first-letter actions,
their coboundaries are submatrices of S's.  The Rees quotients S/I of a
monoid are cut so from S^0, and the modifications of a group from G^0.  ``support_cohomology`` builds one
nerve and one pair of coboundaries for a family of such tables, and
``cohomology_group`` is its case of S's own table.
``SemilatticeOfGroups.from_restrictions`` links the groups of such a
family by reading each witness in the smaller support: the Schur
multiplier and the Brauer monoid are built so.

H^n is read on a ``Complex``: cochains on nerve tuples, with ``lift`` and
``read`` to and from cochains on the nerve.  When the identity 1 != 0 of S
acts as the identity, it is a ``NormalizedComplex``, the cochains vanishing
on the tuples holding 1, of the same cohomology (Mac Lane, *Homology*, ch. X).
"""

from itertools import chain, product

from . import VARIANTS
from .abgroups import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    _renumbered,
    complex_homology,
    finite_invariants_from_orders,
    solve_mod,
)
from .errors import CapExceeded, CertificateError, DegreeMismatch, InvalidModule, ShapeMismatch
from .modules import ZeroModule, ensure_valid
from .nerve import Nerve
from .semigroups import adjoin, backtrack, require_same

DEGREE_CAP = 4
COBOUNDARY_CELL_CAP = 4_000_000  # dense cells of one coboundary matrix
BRUTE_COCHAIN_CAP = 2_000_000  # cochains one brute_cohomology call may enumerate


def nerve(S, n):
    """Tuples indexing degree-n cochains, lexicographically ordered: ``Nerve(S).level(n)``.

    Degree 0 is the single empty tuple.  The zero nerve keeps only
    tuples of nonzero elements with nonzero full product.
    """
    return Nerve(S).level(n)


class Cochain:
    """A degree-``degree`` cochain: ``values`` maps each nerve tuple to a coefficient vector (tuple)."""

    __slots__ = ("degree", "values")

    def __init__(self, degree, values):
        self.degree = degree
        self.values = values

    def __eq__(self, other):
        return isinstance(other, Cochain) and (self.degree, self.values) == (other.degree, other.values)


def zero_cochain(S, M, n):
    zero = M.group.zero()
    return Cochain(n, {t: zero for t in nerve(S, n)})


def random_cochain(rng, S, M, n):
    values = {}
    for t in nerve(S, n):
        values[t] = M.group.reduce([rng.randrange(-5, 6) for _ in range(M.group.rank)])
    return Cochain(n, values)


def coboundary(M, f):
    """The coboundary cochain of f (degree goes up by one)."""
    return _coboundary_on(Nerve(M.semigroup), M, f)


def _coboundary_on(N, M, f):
    """``coboundary`` on the levels of the nerve N; each value is ``_coboundary_at``, from tuple faces."""
    n = f.degree
    if set(f.values) != set(N.level(n)):
        raise DegreeMismatch("cochain domain does not match the degree-%d nerve" % n)
    k = M.group.rank
    for t, v in f.values.items():
        if len(v) != k:
            raise ShapeMismatch(f"cochain value at {t}", k, len(v))
    out = {t: _coboundary_at(M, f.values, t) for t in N.level(n + 1)}
    return Cochain(n + 1, out)


def _coboundary_at(M, values, t):
    """The coboundary of the cochain ``values`` at the (n+1)-tuple t, reduced once, at the end."""
    S = M.semigroup
    acc = M.action[t[0]].vec(values[t[1:]])
    sign = -1
    for i in range(len(t) - 1):
        v = values[t[:i] + (S.mul(t[i], t[i + 1]),) + t[i + 2 :]]
        for r, x in enumerate(v):
            acc[r] += sign * x
        sign = -sign
    last = values[t[:-1]]
    if M.right is not None:
        last = M.right[t[-1]].vec(last)
    for r, x in enumerate(last):
        acc[r] += sign * x
    return M.group.reduce(acc)


def cochain_group(groups):
    """The direct sum of the groups, in order, with block offsets."""
    factors = []
    offsets = []
    for A in groups:
        offsets.append(len(factors))
        factors.extend(A.factors)
    return FinAbGroup(factors), offsets


def _is_identity(block):
    return block.m == block.n and all(c == {i: 1} for i, c in enumerate(block.cols))


def _all_rank_one(group, offsets):
    """Whether every block of a cochain group, laid out at ``offsets``, has rank one."""
    return group.rank == len(offsets) and offsets == list(range(len(offsets)))


def assemble_coboundary(N, n, groups, first_block, last_block):
    """The alternating-sum coboundary from level n of the nerve N to level n + 1, as a GroupHom.

    ``groups`` is the group at every tuple, or lists those of level m.
    ``first_block(x, q)`` and ``last_block(y, q)`` are the matrices of
    the terms from d_0 t and d_{n+1} t to the (n+1)-tuple t with first
    letter x and last letter y, q the face's position.  The middle terms
    keep the product, so the group: identity blocks.  A dropped face
    (-1) adds nothing.  The matrix is built face by face, one sparse
    {row: value} column per source coordinate, with no entry that
    cancelled; a face whose distinct blocks are all the identity adds +-1
    on matching coordinates.  The cap counts the full nerve's cells,
    before the larger cochain group is laid out.
    """
    if isinstance(groups, FinAbGroup):
        k = groups.rank
        rows, width = k * N.full_size(n + 1), k * N.full_size(n)
    else:
        lower, upper = groups(n), groups(n + 1)
        rows, width = sum(A.rank for A in upper), sum(A.rank for A in lower)
    cells = width * max(rows, 1)
    if cells > COBOUNDARY_CELL_CAP:
        raise CapExceeded(f"coboundary matrix ({rows}x{width}) cell count", cells, COBOUNDARY_CELL_CAP)
    if isinstance(groups, FinAbGroup):
        src, dst = groups.repeat(N.size(n)), groups.repeat(N.size(n + 1))
        src_off, dst_off = range(0, src.rank, k or 1), range(0, dst.rank, k or 1)
        # row k p + r meets coordinate r of the face's block; a dropped face gives a negative coordinate
        lift = (lambda face: face) if k == 1 else (lambda face: [k * q + r for q in face for r in range(k)])
    else:
        (src, src_off), (dst, dst_off) = cochain_group(lower), cochain_group(upper)
        if _all_rank_one(src, src_off) and _all_rank_one(dst, dst_off):
            lift = lambda face: face  # a coordinate is a tuple position
        else:
            # row r0 + r of tuple p, whose block starts at row r0, meets coordinate r of its face's block
            coords = [(p, r) for p, A in enumerate(upper) for r in range(A.rank)]
            lift = lambda face: [src_off[face[p]] + r for p, r in coords]
    faces = N.faces(n + 1)
    cols = [{} for _ in range(src.rank)]

    def add_identity(face, sign):
        for r, c in enumerate(lift(face)):
            if c < 0:
                continue
            col = cols[c]
            if r in col:
                x = col[r] + sign
                if x:
                    col[r] = x
                else:
                    del col[r]
            else:
                col[r] = sign

    def add_blocks(face, letters, block, sign):
        blocks = [block(x, q) for x, q in zip(letters, face)]
        # the list keeps every block alive, so an id stands for one block
        if all(_is_identity(b) for b in {id(b): b for b in blocks}.values()):
            add_identity(face, sign)
            return
        for q, r0, b in zip(face, dst_off, blocks):
            for c, bcol in enumerate(b.cols, src_off[q]):
                col = cols[c]
                for r, x in bcol.items():
                    v = col.get(r0 + r, 0) + sign * x
                    if v:
                        col[r0 + r] = v
                    else:
                        col.pop(r0 + r, None)

    add_blocks(faces[0], N.heads(n + 1), first_block, 1)
    for i, face in enumerate(faces[1:-1], 1):
        add_identity(face, (-1) ** i)
    add_blocks(faces[-1], N.lasts(n + 1), last_block, (-1) ** (n + 1))
    return GroupHom(src, dst, IntMatrix.from_sparse(dst.rank, cols))


def coboundary_hom(N, M, n):
    """The coboundary in degree n on the nerve N as a GroupHom between cochain groups."""
    A = M.group
    one = IntMatrix.identity(A.rank)
    last = (lambda y, q: one) if M.right is None else (lambda y, q: M.right[y])
    return assemble_coboundary(N, n, A, lambda x, q: M.matrix(x), last)


class Complex:
    """The degree-n cochains on ``cells``, nerve tuples, over the module M.  ``lift``
    writes coefficient vectors, a block per cell, as ``Cochain``s; ``read(f)`` is
    f's vector, or None when f has no class here.  A missing value: ``KeyError``."""

    __slots__ = ("module", "degree", "cells")

    def __init__(self, M, n, cells):
        self.module, self.degree, self.cells = M, n, cells

    def lift(self, vectors):
        A, k, cells = self.module.group, self.module.group.rank, self.cells
        return [Cochain(self.degree, {t: A.reduce(v[i * k : i * k + k]) for i, t in enumerate(cells)}) for v in vectors]

    def read(self, f):
        return [x for t in self.cells for x in self.module.group.reduce(f.values[t])]


class NormalizedComplex(Complex):
    """The cochains vanishing on the tuples that hold ``unit``, the identity; the
    cells are level n of ``levels`` (0..n).  ``lift`` extends by 0 to the full
    level n, sorted: each tuple of level n - k with the unit in k places.  ``read``
    first clears f there, or answers None when a value survives: with s^j f
    the cochain y -> f(y with the unit in place j), f <- f - (-1)^j d(s^j f)
    for j = 0..n-1.  By the simplicial identities, with the unit acting as the
    identity, this clears each place of a cocycle, in one pass."""

    __slots__ = ("levels", "unit")

    def __init__(self, M, levels, unit):
        super().__init__(M, len(levels) - 1, levels[-1])
        self.levels, self.unit = levels, unit

    def lift(self, vectors):
        if not vectors:
            return []
        n, e, z = self.degree, self.unit, self.module.group.zero()
        spots = [(mask, map(iter, self.levels[n - sum(mask)])) for mask in product((False, True), repeat=n)]
        full = dict.fromkeys(sorted(tuple(e if b else next(it) for b in mask) for mask, its in spots for it in its), z)
        return [Cochain(n, {**full, **w.values}) for w in super().lift(vectors)]

    def read(self, f):
        M, e, values = self.module, self.unit, f.values
        if not any(any(v) for t, v in values.items() if e in t):
            return super().read(f)
        for j in range(f.degree):
            g = {t[:j] + t[j + 1 :]: v for t, v in values.items() if t[j] == e}
            sign = 1 if j % 2 else -1
            dg = {t: _coboundary_at(M, g, t) for t in values}
            values = {t: M.group.reduce([a + sign * b for a, b in zip(v, dg[t])]) for t, v in values.items()}
        return None if any(any(v) for t, v in values.items() if e in t) else super().read(Cochain(f.degree, values))


class CohomologyResult:
    """A cohomology group read on a ``complex`` from its ``homology``, and the complex's lifts of its witnesses."""

    __slots__ = ("group", "homology", "complex", "witnesses")

    def __init__(self, homology, complex):
        self.group, self.homology, self.complex = homology.group, homology, complex
        self.witnesses = complex.lift(homology.witnesses)

    def coords(self, f, S=None, M=None):
        """The class of the cochain f on the witnesses, or None when f is not a cocycle; S and M
        are not read.  Another degree, a value on a tuple off the zero nerve of the complex's
        semigroup (a witness of a larger support is on it), or no value on a tuple read, raises
        ``DegreeMismatch``."""
        n, T, cells = self.complex.degree, self.complex.module.semigroup, self.complex.cells
        if f.degree != n:
            raise DegreeMismatch(f"a degree-{f.degree} cochain read in degree {n}")
        letters = set(range(T.order))
        off = lambda t: len(t) != n or n and not (set(t) <= letters and T.mul_word(t) != T.zero)
        # with no more values than cells, a value off them leaves a cell without one
        if len(f.values) > len(cells) and any(map(off, f.values.keys() - set(cells))):
            raise DegreeMismatch("cochain has a value off the degree-%d nerve" % n)
        try:
            v = self.complex.read(f)
        except KeyError:
            raise DegreeMismatch("cochain domain does not match the degree-%d nerve" % f.degree) from None
        return None if v is None else self.homology.coords(v)


def _resolve_variant(S, M, variant):
    """S and M for ``zero``; for ``em``, S^0 and M over it, whose zero nerve
    is S^n in the same order, with the same faces and actions."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "zero" or M.semigroup != S:  # a module over another semigroup is refused by _check_module
        return S, M
    S0 = adjoin(S, "zero")
    return S0, ZeroModule(S0, M.group, M.action, M.right)


def _check_module(S, M):
    require_same(S, M.semigroup)
    ensure_valid(M)
    need = set(S.nonzero())
    if not need <= set(M.action):
        raise InvalidModule(sorted(need - set(M.action)), "action domain too small")


def _normalizes(S, M, tables):
    """Whether S has an identity e != 0 acting as the identity (both sides
    of a two-sided M), and each table keeps e v = v at its nonzero values v."""
    e, z = S.identity, S.zero
    if e is None or e == z or not _is_identity(M.action[e]) or not (M.right is None or _is_identity(M.right[e])):
        return False
    return all(all(table[e][v] != z for v in set(chain.from_iterable(table)) - {z}) for table in tables)


def cohomology_group(S, M, n, variant="zero"):
    """H^n as an invariant-factor group plus witness cocycles.

    ``zero``: H_0^n of a semigroup with zero; ``em``: classical
    cohomology, H_0^n of S^0.  A module with a right action gives the
    two-sided complex.  This is ``support_cohomology`` with S's own
    table, which keeps the whole nerve.
    """
    S, M = _resolve_variant(S, M, variant)
    return support_cohomology(S, M, n, [(None, S.table)])[None]


def support_cohomology(S, M, n, supports):
    """H^n of the sub-nerve each table cuts out of the nerve of S, by key.

    ``supports`` lists (key, table) pairs.  A table multiplies the
    elements of S, with the same zero, and must agree with S's wherever
    it is not zero, else ``CertificateError``.  It keeps the tuples whose
    product, folded under it from S's identity (``Nerve.fold``), is not
    zero; these must be closed under faces, as they are for S^0 with an
    ideal I collapsed (the nerve of S/I) and for a monoid sharing S's
    identity.  M is validated once, and the nerve and the coboundaries
    into and out of degree n are built once.  With the support's own
    first-letter actions, its coboundaries are the submatrices on the
    tuples it keeps.  The nerve is normalized when ``_normalizes`` says
    so.  Returns {key: CohomologyResult}, in pair order.
    """
    if n > DEGREE_CAP:
        raise CapExceeded("degree", n, DEGREE_CAP)
    _check_module(S, M)
    supports = list(supports)
    N = Nerve(S, _normalizes(S, M, [table for _, table in supports]))
    levels = [N.level(m) for m in range(n + 1)]
    cuts = [(key, _cut(N, table, n)) for key, table in supports]  # before complex_at drops the levels they read
    d_in, d_out = N.complex_at(n, lambda k: coboundary_hom(N, M, k))
    out = {}
    for key, kept in cuts:
        if kept is None:
            H, on = complex_homology(d_in, d_out), levels
        else:
            A = M.group
            H = complex_homology(_restricted(d_in, A, *kept[n : n + 2]), _restricted(d_out, A, *kept[n + 1 : n + 3]))
            on = [[level[p] for p in ps] for level, ps in zip(levels, kept[1:])]
        out[key] = CohomologyResult(H, Complex(M, n, on[n]) if N.skip is None else NormalizedComplex(M, on, N.skip))
    return out


def _cut(N, table, n):
    """The positions of the tuples of levels -1..n + 1 that ``table`` keeps, or None for S's own.

    Only the tuples over a kept tail are folded (``Nerve.children``).
    """
    S = N.semigroup
    if table == S.table:
        return None
    z, rows = S.zero, [(x, row, own) for x, (row, own) in enumerate(zip(table, S.table)) if tuple(row) != tuple(own)]
    bad = next(((x, y) for x, row, own in rows for y, (v, w) in enumerate(zip(row, own)) if z != v != w), None)
    if bad is not None:
        raise CertificateError(bad, "the support's table disagrees with the semigroup's off its zero")
    products = {p: v for p, v in enumerate(N.fold(table, 1, [S.identity])) if v != z}
    kept = [[], [0], list(products)]  # levels -1 (empty), 0 (the empty tuple) and 1
    for m in range(2, n + 2):
        heads, children, above = N.heads(m), N.children(m), {}
        for j, v in products.items():
            for p in children[j]:
                u = table[heads[p]][v]
                if u != z:
                    above[p] = u
        products = above
        kept.append(sorted(above))
    return kept


def _restricted(d, A, src, dst):
    """The coboundary d on the kept tuples: its columns at ``src``, its rows at ``dst`` (positions, A at each)."""
    r = A.rank
    rows = [p * r + i for p in dst for i in range(r)]
    cols = _renumbered([d.matrix.cols[p * r + i] for p in src for i in range(r)], rows, d.target.rank)
    source, target = A.repeat(len(src)), A.repeat(len(dst))
    return GroupHom(source, target, IntMatrix.from_sparse(len(rows), cols))


def witness_report(S, M, f, variant="zero"):
    """Certify a cochain: cocycle? coboundary? (with an integer preimage)."""
    S, M = _resolve_variant(S, M, variant)
    _check_module(S, M)
    N = Nerve(S)
    df = _coboundary_on(N, M, f)
    is_cocycle = all(not any(v) for v in df.values.values())
    is_coboundary, preimage = _preimage(N, M, f)
    return {
        "is_cocycle": is_cocycle,
        "is_coboundary": is_coboundary,
        "preimage": preimage,
    }


def coboundary_preimage(S, M, f):
    """(True, g) with coboundary(g) = f, or (False, None).

    In degree 0 only the zero cochain is a coboundary, and it has no
    preimage cochain: the answer is then (True, None).  An invalid
    module raises ``InvalidModule``.
    """
    _check_module(S, M)
    return _preimage(Nerve(S), M, f)


def _preimage(N, M, f):
    """``coboundary_preimage`` on the nerve N, for a module already checked."""
    n = f.degree
    if set(f.values) != set(N.level(n)):
        raise DegreeMismatch("cochain domain does not match the degree-%d nerve" % n)
    if n == 0:
        return (not any(any(v) for v in f.values.values()), None)
    d_prev = coboundary_hom(N, M, n - 1)
    x = solve_mod(d_prev.matrix, Complex(M, n, N.level(n)).read(f), d_prev.target.factors)
    if x is None:
        return (False, None)
    return (True, Complex(M, n - 1, N.level(n - 1)).lift([x])[0])


def brute_cohomology(S, M, n, variant="zero"):
    """Oracle twin: search the cocycles, enumerate the boundaries, count cosets.

    Only for finite coefficient groups and small nerves; raises
    CapExceeded when |A|^(nerve size) blows past ``BRUTE_COCHAIN_CAP``.
    """
    S, M = _resolve_variant(S, M, variant)
    _check_module(S, M)
    A = M.group
    if A.order() is None:
        raise CapExceeded(f"degree-{n} cochain count (infinite coefficients)", None, BRUTE_COCHAIN_CAP)
    N = Nerve(S)
    for m in (n, n - 1)[: n + 1]:  # the cochains searched, then those whose coboundaries are listed
        total = A.order() ** N.size(m)
        if total > BRUTE_COCHAIN_CAP:
            raise CapExceeded(f"degree-{m} cochain count", total, BRUTE_COCHAIN_CAP)
    # a cochain is keyed by its values, in nerve order
    tuples = N.level(n)
    zero = (A.zero(),) * len(tuples)
    cocycles = [tuple(f.values[t] for t in tuples) for f in _brute_cocycles(N, M, n)]
    boundaries = {zero}
    if n:
        lower = N.level(n - 1)
        for combo in product(A.elements(), repeat=len(lower)):
            dg = _coboundary_on(N, M, Cochain(n - 1, dict(zip(lower, combo))))
            boundaries.add(tuple(dg.values[t] for t in tuples))
    # quotient Z/B by brute coset bucketing
    keys = {}
    reps = []
    for zc in cocycles:
        if zc in keys:
            continue
        cid = len(reps)
        for b in boundaries:
            keys[tuple(map(A.add, zc, b))] = cid
        reps.append(zc)

    def add(c1, c2):
        return keys[tuple(map(A.add, reps[c1], reps[c2]))]

    inv = finite_invariants_from_orders(list(range(len(reps))), add, keys[zero])
    return FinAbGroup(inv)


def _brute_cocycles(N, M, n):
    """Every degree-n cocycle on the nerve N, in the order of a product scan over it.

    Each coordinate of the coboundary is attached to the last nerve
    tuple it reads.  A ``backtrack`` fills the values in the order of
    A.elements() and tests a coordinate as soon as its last tuple is
    fixed.  Every hit is re-checked with the full ``coboundary``.
    """
    S, elements = N.semigroup, M.group.elements()
    tuples = N.level(n)
    pos = {t: p for p, t in enumerate(tuples)}
    checks = [[] for _ in tuples]
    for t in N.level(n + 1):
        faces = [t[1:], t[:-1]] + [t[:i] + (S.mul(t[i], t[i + 1]),) + t[i + 2 :] for i in range(n)]
        checks[max(pos[face] for face in faces)].append(t)
    values = {}

    def ok(vals):
        i = len(vals) - 1
        values[tuples[i]] = vals[i]
        return not any(any(_coboundary_at(M, values, t)) for t in checks[i])

    out = []
    for vals in backtrack([elements] * len(tuples), ok):
        f = Cochain(n, dict(zip(tuples, vals)))
        bad = [t for t, v in _coboundary_on(N, M, f).values.items() if any(v)]
        if bad:
            raise CertificateError(bad[0], "search emitted a cochain that is not a cocycle")
        out.append(f)
    return out


class SemilatticeOfGroups:
    """Groups indexed by sets closed under union, ordered by inclusion.

    The join of two keys is their union.  ``indices`` lists the keys
    (hashable sets, e.g. frozenset ideals), ``components`` maps each to
    its FinAbGroup in invariant form.  A map into or out of a trivial
    group is zero, so ``links`` holds a GroupHom only for the pairs
    k1 <= k2 of nontrivial groups; ``link`` gives every pair's map.
    """

    __slots__ = ("indices", "components", "links")

    def __init__(self, indices, components, links):
        self.indices = indices
        self.components = components
        self.links = links

    @classmethod
    def from_restrictions(cls, results):
        """Links that restrict cocycles to the smaller support.

        ``results`` maps each key, in index order, to its degree-2
        CohomologyResult, all read on one nerve, so that the tuples of a
        larger key are among those of a smaller one.  The link I -> J
        sends each witness of I to its class in J, read by J's ``coords``.
        """
        keys = list(results)
        nontrivial = [k for k in keys if results[k].group.rank]
        links = {}
        for I in nontrivial:
            for J in nontrivial:
                if not I <= J:
                    continue
                cols = [results[J].coords(w) for w in results[I].witnesses]
                if None in cols:
                    raise CertificateError(cols.index(None), "restriction of a cocycle is not a cocycle")
                hom = GroupHom(results[I].group, results[J].group, IntMatrix.from_columns(cols, results[J].group.rank))
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
