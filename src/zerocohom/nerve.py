"""The zero nerve of a semigroup with zero, in index form.

Level m holds the tuples of m nonzero elements whose full product is
nonzero.  ``Nerve`` builds each level, its face maps and the index
arithmetic every coboundary builder reads; ``cohomology`` and
``natsys`` build their complexes on it.
"""

from math import comb

from .abgroups import FinAbGroup, GroupHom, IntMatrix
from .errors import DegreeMismatch, NoZero


class Nerve:
    """The zero nerve of one semigroup, each piece built once, on first use.

    One scan, ``_split``, builds level m >= 1: for each nonzero x and each
    tuple t of level m - 1, both in order, it keeps (x,) + t when x times
    t's product is nonzero, as its first letter ``heads(m)[p]`` and the
    position ``tails(m)[p]`` of its tail.  Everything else is read from
    these.  ``products(m)`` folds them from the identity of the empty
    tuple, ``table[heads[p]][products(m - 1)[tails[p]]]``, and ``fold``
    does so under any table.  ``size(m)`` counts the tuples, ``level(m)``
    writes them out, lexicographically ordered (``nerve(S, m)`` reads it),
    and ``lasts(m)[p]`` is tuple p's last letter.  With w = size(m - 1),
    ``slots(m)[x * w + j]`` is the position of the tuple with first
    letter x and tail j, and ``rslots(m)[i * |S| + y]`` that of the
    tuple whose last face sits at i and whose last letter is y; either
    is -1 when there is no such tuple.  ``faces(m)`` lists the face maps
    d_0..d_m from level m to level m - 1, each as the positions of the
    faces in tuple order: d_0 drops the first letter, d_m the last, and
    d_i for 0 < i < m multiplies letters i - 1 and i together.  They grow
    from the faces one level down: d_0 is ``tails(m)`` itself, d_1 merges
    the first letter into the tail's, and d_i for i >= 2 keeps the first
    letter on d_{i-1} of the tail.  A negative m raises ``DegreeMismatch``.

    ``Nerve(S, normalized=True)`` skips the identity 1 as a first
    letter, so keeps the tuples without 1; a face on a dropped tuple is
    -1.  ``full_size(m)`` counts the full level: sum_k C(m, k) size(m - k).
    ``children(m)[j]`` lists the positions of level m with tail j.

    Every builder reads its levels and faces here, so one call builds
    each of them at most once.  The pieces are kept in one dict,
    ``pieces``, keyed by (name, m); they do not refer back to the Nerve,
    so a dropped Nerve is freed at once.
    """

    def __init__(self, S, normalized=False):
        self.semigroup = S
        self.skip = S.identity if normalized else None
        self.pieces = {}

    def _piece(self, name, m, build):
        if m < 0:
            raise DegreeMismatch("negative degree")
        piece = self.pieces.get((name, m))
        if piece is None:
            piece = self.pieces[name, m] = build()
        return piece

    def _split(self, m):
        """(heads, tails) of level m >= 1: the one scan over level m - 1 and its products."""
        S = self.semigroup
        if not S.has_zero:
            raise NoZero("the zero nerve needs a semigroup with zero")
        letters = [x for x in S.nonzero() if x != self.skip]
        if m == 1:
            return letters, [0] * len(letters)
        table, z, below = S.table, S.zero, self.products(m - 1)
        positions = list(range(len(below)))  # one int object per tail, shared by every head
        heads, tails = [], []
        for x in letters:
            row = table[x]
            js = [j for j, p in zip(positions, below) if row[p] != z]
            heads += [x] * len(js)
            tails += js
        return heads, tails

    def heads(self, m):
        return self._piece("split", m, lambda: self._split(m))[0]

    def tails(self, m):
        return self._piece("split", m, lambda: self._split(m))[1]

    def size(self, m):
        return 1 if m == 0 else len(self.heads(m))

    def full_size(self, m):
        if self.skip is None:
            return self.size(m)
        return sum(comb(m, k) * self.size(m - k) for k in range(m + 1))

    def level(self, m):
        if m == 0:
            return [()]
        tuples = lambda: [(x,) + t for x, t in zip(self.heads(m), map(self.level(m - 1).__getitem__, self.tails(m)))]
        return self._piece("level", m, tuples)

    def products(self, m):
        if m == 0:
            return [self.semigroup.identity]
        return self._piece("products", m, lambda: self.fold(self.semigroup.table, m, self.products(m - 1)))

    def fold(self, table, m, below):
        """The products under ``table`` of level m's tuples, from those of level m - 1 (``below``).

        Without an identity for the empty tuple, a letter is its own product.
        """
        heads = self.heads(m)
        if m == 1 and self.semigroup.identity is None:
            return heads
        return [table[x][below[j]] for x, j in zip(heads, self.tails(m))]

    def children(self, m):
        def build():
            out = [[] for _ in range(self.size(m - 1))]
            for p, j in enumerate(self.tails(m)):
                out[j].append(p)
            return out

        return self._piece("children", m, build)

    def lasts(self, m):
        if m == 1:
            return self.heads(1)
        return self._piece("lasts", m, lambda: list(map(self.lasts(m - 1).__getitem__, self.tails(m))))

    def slots(self, m):
        def build():
            w = self.size(m - 1)
            out = [-1] * (self.semigroup.order * w)
            for p, (x, j) in enumerate(zip(self.heads(m), self.tails(m))):
                out[x * w + j] = p
            return out

        return self._piece("slots", m, build)

    def rslots(self, m):
        def build():
            s = self.semigroup.order
            out = [-1] * (self.size(m - 1) * s)
            for p, (i, y) in enumerate(zip(self.faces(m)[-1], self.lasts(m))):
                out[i * s + y] = p
            return out

        return self._piece("rslots", m, build)

    def faces(self, m):
        return self._piece("faces", m, lambda: self._face_rows(m))

    def _face_rows(self, m):
        """d_0..d_m of level m >= 1, from the faces, slots and index form of level m - 1."""
        heads, tails = self.heads(m), self.tails(m)
        if m == 1:
            return [tails, tails]
        table, slots, w = self.semigroup.table, self.slots(m - 1), self.size(m - 2)
        lower_heads, lower_tails = self.heads(m - 1), self.tails(m - 1)
        first = [slots[table[x][lower_heads[j]] * w + lower_tails[j]] for x, j in zip(heads, tails)]
        base = [x * w for x in heads]
        # a face that lands on a dropped tuple stays dropped
        below = [list(map(face.__getitem__, tails)) for face in self.faces(m - 1)[1:]]
        kept = [[-1 if q < 0 else slots[b + q] for b, q in zip(base, face)] for face in below]
        return [tails, first] + kept

    def complex_at(self, n, d):
        """The maps (d_in, d_out) into and out of degree n, whose homology is H^n.

        ``d(k)`` is the map leaving degree k; into degree 0 comes the zero
        map.  Every piece is dropped once both are built, so level n + 1,
        the largest, and its face maps are not held through the elimination.
        """
        d_out = d(n)
        d_in = d(n - 1) if n else GroupHom(FinAbGroup(()), d_out.source, IntMatrix(d_out.source.rank, 0))
        self.pieces.clear()
        return d_in, d_out
