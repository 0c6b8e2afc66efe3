"""Exact linear algebra over Z and finitely generated abelian groups.

All arithmetic uses plain Python integers, so coefficient growth in
the elimination is harmless.  Groups are presented as lists of cyclic
orders d_i >= 0 where 0 stands for an infinite cyclic factor; elements
are integer vectors with coordinate i taken mod d_i.  There is one
matrix type, ``IntMatrix``, kept as sparse {row: value} columns: the
elimination of ``zerocohom.elimination``, the solvers and the map
comparisons read those columns, and no code here works on dense rows.
A subquotient is a ``QuotientPresentation``: over Z/e, e the exponent
of the groups, for a complex of finite groups, else over Z.

>>> QuotientPresentation(2, [[1, 0], [0, 1]], [[2, 6], [4, 8]]).group.factors
(2, 4)
>>> FinAbGroup([2, 3]).invariants()
(6,)
>>> complex_homology(
...     GroupHom(FinAbGroup([0]), FinAbGroup([0, 0]), [[2], [0]]),
...     GroupHom(FinAbGroup([0, 0]), FinAbGroup([0]), [[0, 1]]),
... ).group.invariants()
(2,)
>>> subgroup(FinAbGroup([2, 4]), [[1, 2]]).group.invariants()
(2,)
"""

from math import gcd, lcm

from .elimination import (
    _add_multiple,
    _combine,
    _dense,
    _reduced,
    _relations,
    _retire,
    _smith,
    _sparse,
    _substitute,
)
from .errors import GroupMismatch, NotAComplex, NotInSubgroup, ShapeMismatch


class IntMatrix:
    """Integer matrix kept as sparse {row: value} columns, zeros not stored.

    Every reader in the package (``_retire``, ``same_map``, the dd check
    of ``complex_homology``, the coboundary builder) reads ``cols``
    directly; ``a`` is a read-only dense copy of the rows, for ``repr``
    and the tests.
    """

    __slots__ = ("m", "n", "cols")

    def __init__(self, m, n, rows=None):
        self.m = m
        self.n = n
        self.cols = [{} for _ in range(n)]
        if rows is not None:
            if len(rows) != m or any(len(r) != n for r in rows):
                raise ShapeMismatch(f"row lengths of a {m}x{n} matrix", [n] * m, [len(r) for r in rows])
            for i, r in enumerate(rows):
                for c, x in zip(self.cols, r):
                    if x:
                        c[i] = x

    @classmethod
    def from_sparse(cls, m, cols):
        """The m-row matrix on the given {row: value} columns, kept, not copied."""
        M = cls.__new__(cls)
        M.m, M.n, M.cols = m, len(cols), cols
        return M

    @classmethod
    def identity(cls, n):
        return cls.from_sparse(n, [{i: 1} for i in range(n)])

    @classmethod
    def from_rows(cls, rows, n=None):
        m = len(rows)
        if n is None:
            if m == 0:
                raise ValueError("need explicit column count for empty matrix")
            n = len(rows[0])
        return cls(m, n, rows)

    @classmethod
    def from_columns(cls, cols, m=None):
        k = len(cols)
        if m is None:
            if k == 0:
                raise ValueError("need explicit row count for empty matrix")
            m = len(cols[0])
        for j, c in enumerate(cols):
            if len(c) != m:
                raise ShapeMismatch(f"column {j} length", m, len(c))
        return cls.from_sparse(m, [_sparse(c) for c in cols])

    @property
    def a(self):
        """The dense rows, built on demand; a read-only copy."""
        rows = [[0] * self.n for _ in range(self.m)]
        for j, c in enumerate(self.cols):
            for i, x in c.items():
                rows[i][j] = x
        return rows

    def col(self, j):
        return _dense(self.cols[j], self.m)

    def columns(self):
        return [self.col(j) for j in range(self.n)]

    def mul(self, other):
        if self.n != other.m:
            raise ShapeMismatch("inner dimension of a product", self.n, other.m)
        return IntMatrix.from_sparse(self.m, [_combine(self.cols, c) for c in other.cols])

    def vec(self, v):
        if len(v) != self.n:
            raise ShapeMismatch("vector length", self.n, len(v))
        out = [0] * self.m
        for c, x in zip(self.cols, v):
            if x:
                for i, y in c.items():
                    out[i] += x * y
        return out

    def diagonal(self):
        return [self.cols[i].get(i, 0) for i in range(min(self.m, self.n))]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and (self.m, self.n, self.cols) == (other.m, other.n, other.cols)

    def __repr__(self):
        return f"IntMatrix({self.m}x{self.n}, {self.a})"


def solve_mod(M, b, target_factors):
    """Solve M x = b componentwise mod target_factors (0 = exact); b is dense or sparse."""
    x = _substitute(_retire(M.cols, M.m, target_factors), b)
    return None if x is None else _dense(x, M.n)


def kernel_mod(M, target_factors):
    """Basis of {x : M x = 0 mod target_factors} as a lattice in Z^n.

    The transforms of the zero columns are already independent:
    projection onto the first n coordinates is injective on the kernel
    of [M | diag(d)], since every relation column has d > 0.
    """
    return [_dense(t, M.n) for i, _, t in _retire(M.cols, M.m, target_factors) if i is None]


class FinAbGroup:
    """Finitely generated abelian group Z^k / <d_i e_i>.

    ``factors`` may be any nonnegative integers; canonical answers use
    the invariant-factor normal form (each nonzero d_i divides the next,
    finite factors first, no 1s) available via :meth:`invariants`.

    >>> FinAbGroup([2, 4]).invariants()
    (2, 4)
    >>> FinAbGroup([4, 6]).invariants()
    (2, 12)
    >>> FinAbGroup([1]).invariants()
    ()
    >>> str(FinAbGroup([2, 0]))
    'C2 x Z'
    """

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        fs = tuple(int(d) for d in factors)
        if any(d < 0 for d in fs):
            raise ValueError("factors must be nonnegative")
        self.factors = fs

    @property
    def rank(self):
        return len(self.factors)

    def repeat(self, k):
        """The direct sum of k copies, in order; its factors are not checked again."""
        out = object.__new__(FinAbGroup)
        out.factors = self.factors * k
        return out

    def order(self):
        """Number of elements, or None if infinite."""
        total = 1
        for d in self.factors:
            if d == 0:
                return None
            total *= d
        return total

    def is_trivial(self):
        return self.invariants() == ()

    def zero(self):
        return (0,) * self.rank

    def reduce(self, v):
        fs = self.factors
        if len(v) != len(fs):
            raise ShapeMismatch("vector length", len(fs), len(v))
        return tuple([x % d if d else x for x, d in zip(v, fs)])

    def add(self, u, v):
        fs = self.factors
        if len(u) != len(fs) or len(v) != len(fs):
            raise ShapeMismatch("vector length", len(fs), len(v) if len(u) == len(fs) else len(u))
        return tuple([(a + b) % d if d else a + b for a, b, d in zip(u, v, fs)])

    def neg(self, u):
        fs = self.factors
        if len(u) != len(fs):
            raise ShapeMismatch("vector length", len(fs), len(u))
        return tuple([-a % d if d else -a for a, d in zip(u, fs)])

    def elements(self):
        """All elements (finite groups only)."""
        if self.order() is None:
            raise ValueError("infinite group")
        elts = [()]
        for d in self.factors:
            elts = [e + (x,) for e in elts for x in range(d)]
        return elts

    def invariants(self):
        # (a, b) -> (gcd, lcm) over all pairs leaves a divisibility chain
        fs = [d for d in self.factors if d > 1]
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                g = gcd(fs[i], fs[j])
                fs[i], fs[j] = g, fs[i] * fs[j] // g
        return tuple([d for d in fs if d > 1] + [0] * self.factors.count(0))

    def is_invariant_form(self):
        return self.factors == self.invariants()

    def direct_sum(self, other):
        return FinAbGroup(self.factors + other.factors)

    def __eq__(self, other):
        return isinstance(other, FinAbGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __str__(self):
        inv = self.invariants()
        if not inv:
            return "0"
        return " x ".join("Z" if d == 0 else f"C{d}" for d in inv)

    def __repr__(self):
        return f"FinAbGroup({list(self.factors)})"


class GroupHom:
    """Homomorphism between FinAbGroups; column j = image of source e_j.

    The matrix is an IntMatrix, or its rows given as lists.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        if isinstance(matrix, IntMatrix):
            M = matrix
        else:
            M = IntMatrix(target.rank, source.rank, matrix if target.rank else None)
        if (M.m, M.n) != (target.rank, source.rank):
            raise ShapeMismatch("matrix of a map", (target.rank, source.rank), (M.m, M.n))
        self.matrix = M

    def well_defined(self):
        """Whether the matrix respects the source's relations (see is_hom)."""
        return is_hom(self.source, self.target, self.matrix)

    def apply(self, v):
        return self.target.reduce(self.matrix.vec(list(v)))

    def compose(self, inner):
        """self o inner."""
        if inner.target.factors != self.source.factors:
            raise GroupMismatch(inner.target, self.source)
        return GroupHom(inner.source, self.target, self.matrix.mul(inner.matrix))

    def is_zero(self):
        factors = self.target.factors
        return not any(_reduced(c, factors) for c in self.matrix.cols)

    def equals(self, other):
        """Equality as maps (columns compared mod target factors)."""
        if self.source.factors != other.source.factors:
            return False
        if self.target.factors != other.target.factors:
            return False
        return same_map(self.target, self.matrix, other.matrix)

    @classmethod
    def identity(cls, group):
        return cls(group, group, IntMatrix.identity(group.rank))

    def __repr__(self):
        return f"GroupHom({self.source!r} -> {self.target!r})"


def same_map(target, M1, M2):
    """True when M1 and M2 agree as maps into ``target``.

    Columns are compared modulo the cyclic orders of the target; two
    matrices of different shapes, or with a row count other than the
    target's rank, are never the same map.
    """
    if M1.m != M2.m or M1.n != M2.n or M1.m != target.rank:
        return False
    factors = target.factors
    return all(_reduced(c1, factors) == _reduced(c2, factors) for c1, c2 in zip(M1.cols, M2.cols))


def is_hom(source, target, M):
    """True when M has the shape of a map source -> target and is well defined.

    Well defined: d_j * (column j) vanishes in the target for every
    finite order d_j of the source.
    """
    if M.m != target.rank or M.n != source.rank:
        return False
    factors = target.factors
    return not any(d and _reduced({i: d * x for i, x in c.items()}, factors) for c, d in zip(M.cols, source.factors))


class QuotientPresentation:
    """The group span(K)/span(M) inside Z^dim, with witness generators.

    ``k_gens`` lists any columns that generate span(K), dependent or
    not; every column of ``m_cols`` must lie in their span, else
    NotInSubgroup names the first one that does not.  Columns may be
    dense lists or sparse {row: value} dicts.  ``witnesses`` are ambient
    vectors generating the quotient (one per non-unit invariant factor,
    infinite factors last); ``coords(v)`` expresses an ambient vector v
    in span(K) as coefficients on the witnesses, or returns None when v
    is not in span(K).

    The K-generators are eliminated once, here, on the sparse echelon
    engine.  The relations X among them are the kernel of that
    elimination, followed by K-coordinates of the m-columns, found by
    forward substitution through its pivots (as in every ``coords``
    call); any such coordinates do, as they differ by the kernel.  X
    runs through the same elimination.  Its unit pivots each substitute
    a generator away; the other pivots, cleared of the substituted rows,
    form the core.  The core's Smith form (``_smith``, alternating
    echelon passes of the same elimination) is taken only when the core
    is not empty.  Each row of ``_urows`` maps K-coordinates to one
    witness coordinate: a kept row of the core's U, with the
    substitutions folded in; the witnesses are K times the matching
    columns of U^-1.

    With a ``modulus`` N (any N >= 1; 0, the default, is Z) the ambient
    group is (Z/N)^dim and the columns are read mod N: both
    eliminations run over Z/N, the core's Smith form is taken over Z
    with the relation columns N e_i beside it, and a generator that no
    relation reaches has order N instead of 0, or is left out for N = 1.
    """

    __slots__ = ("dim", "group", "witnesses", "_pivots", "_urows", "_modulus")

    def __init__(self, dim, k_gens, m_cols, modulus=0):
        self.dim = dim
        self._modulus = modulus
        kcols = [_sparse(c) for c in k_gens]
        r = len(kcols)
        steps = list(_retire(kcols, dim, (), modulus))
        self._pivots = [s for s in steps if s[0] is not None]
        xcols = [t for i, _, t in steps if i is None]
        for j, c in enumerate(m_cols):
            y = _substitute(self._pivots, c, modulus)
            if y is None:
                raise NotInSubgroup(j)
            xcols.append(y)
        # pivots come in row order, each column zero above its row, so
        # y -= y[i] * e * c for the unit ones in turn keeps the class of y
        # and clears their rows; the kernel columns are dropped
        subs, core = [], []
        for i, c, _ in _retire(xcols, r, (), modulus, transforms=False):
            if i is None:
                continue
            if c[i] in (1, -1):
                subs.append((i, c[i], c))
            else:
                core.append(c)
        for i, e, c in subs:
            for k in core:
                if i in k:
                    _add_multiple(k, -k[i] * e, c, modulus)
        gone = {i for i, _, _ in subs}
        hit = sorted({i for c in core for i in c})
        index = {i: p for p, i in enumerate(hit)}
        # one (factor, row of U, column of Uinv) per generator of the
        # quotient, rows and columns indexed by K-generators
        gens = []
        if core:
            cols = [{index[i]: x for i, x in c.items()} for c in core]
            if modulus:
                cols += [{p: modulus} for p in range(len(hit))]
            for d, row, col in _smith(cols, len(hit)):
                if d != 1:
                    urow = [0] * r
                    for q, x in row.items():
                        urow[hit[q]] = x
                    gens.append((d, urow, {hit[q]: x for q, x in col.items()}))
        for i in range(r):
            if i not in gone and i not in index and modulus != 1:
                gens.append((modulus, [int(k == i) for k in range(r)], {i: 1}))
        # coords applies the substitutions before the row of U: fold them
        # into the row, last substitution first (mod N is enough, as
        # every factor divides N)
        for i, e, c in reversed(subs):
            for _, urow, _ in gens:
                s = sum(urow[k] * x for k, x in c.items())
                if s:
                    urow[i] -= e * s
                    if modulus:
                        urow[i] %= modulus
        self.group = FinAbGroup([d for d, _, _ in gens])
        self._urows = [urow for _, urow, _ in gens]
        self.witnesses = []
        for _, _, combo in gens:
            w = [0] * dim
            for k, u in combo.items():
                for row, x in kcols[k].items():
                    w[row] += u * x
            self.witnesses.append([x % modulus for x in w] if modulus else w)

    def coords(self, v):
        y = _substitute(self._pivots, v, self._modulus)
        if y is None:
            return None
        out = []
        for row, d in zip(self._urows, self.group.factors):
            c = sum(row[j] * x for j, x in y.items())
            out.append(c % d if d else c)
        return tuple(out)


def _renumbered(cols, rows, n):
    """The sparse columns on the listed rows (of n), renumbered in that order; shared when those are all n."""
    if len(rows) == n:
        return cols
    index = {r: k for k, r in enumerate(rows)}
    return [{index[r]: x for r, x in c.items() if r in index} for c in cols]


def complex_homology(d_in, d_out):
    """ker(d_out)/im(d_in) at the middle group, with witnesses and coords.

    Raises GroupMismatch when d_in does not end at the source of d_out,
    and NotAComplex (with a witness generator index) when d_out o d_in
    is nonzero.  The complex is solved over Z/e, e the exponent of the
    middle and target groups, when both are finite, and over Z (modulus
    0, which is also lcm's answer) when either has a free factor, as a
    QuotientPresentation either way.
    """
    mid = d_in.target
    if mid.factors != d_out.source.factors:
        raise GroupMismatch(mid, d_out.source)
    out_cols, in_cols = d_out.matrix.cols, d_in.matrix.cols
    factors = d_out.target.factors
    for j, c in enumerate(in_cols):
        if _reduced(_combine(out_cols, c), factors):
            raise NotAComplex(j)
    e = lcm(*mid.factors, *factors)
    K = [t for i, _, t in _retire(out_cols, d_out.target.rank, factors, e) if i is None]
    return QuotientPresentation(mid.rank, K, in_cols + _relations(mid.factors, e), e)


def subgroup(group, gen_cols):
    """The subgroup of ``group`` generated by the columns.

    It is span(gens + relations)/span(relations): the witnesses embed it
    in the ambient coordinates and ``coords`` expresses an ambient
    vector in it (None when the vector lies outside).
    """
    rel = _relations(group.factors)
    return QuotientPresentation(group.rank, list(gen_cols) + rel, rel)


def finite_invariants_from_orders(cosets, add, zero):
    """Invariant factors of a finite abelian group given by enumeration.

    ``cosets`` is the list of elements, ``add`` the operation, ``zero``
    the neutral element.  Works by counting m-torsion, one prime at a
    time.
    """
    n = len(cosets)
    if n == 1:
        return ()
    # element orders
    orders = {}
    for x in cosets:
        k = 1
        y = x
        while y != zero:
            y = add(y, x)
            k += 1
        orders[x] = k
    # factor the group order
    result = {}
    m = n
    p = 2
    primes = []
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    for p in primes:
        # s_j = log_p #{x : p^j x = 0}; multiplicity of exponent >= j is s_j - s_{j-1}
        s_prev = 0
        j = 1
        exps = []
        while True:
            pj = p**j
            cnt = sum(1 for x in cosets if pj % orders[x] == 0)
            s_j = 0
            c = cnt
            while c > 1:
                c //= p
                s_j += 1
            mult = s_j - s_prev
            if mult <= 0:
                break
            exps.append(mult)
            s_prev = s_j
            j += 1
        result[p] = exps  # exps[j-1] = number of cyclic factors with exponent >= j
    # assemble invariant factors: k-th largest factor gets p^(number of j with exps[j] >= k)
    nfactors = max((e[0] for e in result.values() if e), default=0)
    invs = []
    for k in range(nfactors):
        d = 1
        for p, exps in result.items():
            e = sum(1 for mult in exps if mult > k)
            d *= p**e
        invs.append(d)
    return tuple(sorted(d for d in invs if d > 1))
