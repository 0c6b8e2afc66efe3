"""Finite semigroups as multiplication tables.

Elements are indexed 0..n-1 and names are purely decorative; every
operation keys on indices.  The table is validated exhaustively
(associativity, absorbing zero) and an identity/zero is derived from the
table when present.

Convention: the Rees quotient by the empty ideal is the semigroup with a
fresh zero adjoined (so the "empty collapse" still produces a semigroup
with zero).

The package's depth-first searches and worklist closures run on
``backtrack`` and ``closure``, defined here; the nerve grows each level
by one scan of the level below.  Its immutable records derive from
``Frozen``, also defined here, and the classifying monoid's maps on
G x G, ``t_maps``, live beside ``group_inverses``, which they read.
"""

from .errors import (
    AssociativityError,
    DegenerateSandwich,
    DuplicateName,
    MissingZero,
    NotAGroup,
    NotAnIdeal,
    SemigroupMismatch,
    TableError,
    ZeroError,
)


class Frozen:
    """An immutable record: its fields are its ``__slots__``, set once by ``__init__``.

    ``Frozen.__init__`` takes one value per field, in the order of the
    slots; assigning or deleting a field afterwards raises AttributeError.
    A record compares by identity unless its class defines ``__eq__``,
    which ``_values`` serves.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Semigroup(Frozen):
    __slots__ = ("elements", "table", "zero", "identity")

    def __init__(self, elements, table, zero=None, identity=None):
        super().__init__(elements, table, zero, identity)

    def __eq__(self, other):
        return isinstance(other, Semigroup) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    @property
    def order(self):
        return len(self.elements)

    def mul(self, i, j):
        return self.table[i][j]

    def mul_word(self, word):
        it = iter(word)
        acc = next(it)
        for x in it:
            acc = self.table[acc][x]
        return acc

    @property
    def has_zero(self):
        return self.zero is not None

    @property
    def is_monoid(self):
        return self.identity is not None

    def nonzero(self):
        return [i for i in range(self.order) if i != self.zero]

    def index(self, name):
        try:
            return self.elements.index(name)
        except ValueError:
            raise TableError(f"unknown element {name!r}") from None

    def __repr__(self):
        z = f", zero={self.elements[self.zero]!r}" if self.zero is not None else ""
        return f"Semigroup({len(self.elements)} elements{z})"


def _check_associativity(table, n):
    for i in range(n):
        ti = table[i]
        for j in range(n):
            tij = ti[j]
            tj = table[j]
            for k in range(n):
                if table[tij][k] != ti[tj[k]]:
                    raise AssociativityError((i, j, k))


def validate_table(elements, table, zero=None):
    """Validate a raw table and return a Semigroup.

    ``zero`` may be an index or a name; if omitted, an absorbing element
    is detected from the table.  The identity is always derived.
    """
    elements = tuple(str(e) for e in elements)
    n = len(elements)
    if len(set(elements)) != n:
        raise DuplicateName(f"duplicate element names in {elements}")
    if len(table) != n or any(len(row) != n for row in table):
        raise TableError(f"table must be {n}x{n}")
    for row in table:
        for x in row:
            if not isinstance(x, int) or not (0 <= x < n):
                raise TableError(f"table entry {x!r} out of range")
    table = tuple(tuple(row) for row in table)
    _check_associativity(table, n)
    if isinstance(zero, str):
        if zero not in elements:
            raise TableError(f"unknown zero element {zero!r}")
        zero = elements.index(zero)
    if zero is not None:
        for i in range(n):
            if table[zero][i] != zero or table[i][zero] != zero:
                raise ZeroError((zero, i))
    else:
        zero = next((z for z in range(n) if all(table[z][i] == z == table[i][z] for i in range(n))), None)
    identity = next((e for e in range(n) if all(table[e][i] == i == table[i][e] for i in range(n))), None)
    return Semigroup(elements, table, zero, identity)


def from_named_table(elements, name_table, zero_name=None):
    """Build from a table whose entries (and the zero) are element names."""
    elements = [str(e) for e in elements]
    zero_name = None if zero_name is None else str(zero_name)
    idx = {e: i for i, e in enumerate(elements)}
    try:
        table = [[idx[str(x)] for x in row] for row in name_table]
    except KeyError as exc:
        raise TableError(f"unknown element name {exc.args[0]!r} in table") from None
    return validate_table(elements, table, zero_name)


def _fresh_name(base, taken):
    name = base
    k = 1
    while name in taken:
        name = f"{base}_{k}"
        k += 1
    return name


def adjoin(S, what):
    """Adjoin a fresh absorbing zero or neutral identity."""
    n = S.order
    if what == "zero":
        name = _fresh_name("0", S.elements)
        elements = S.elements + (name,)
        table = [list(row) + [n] for row in S.table]
        table.append([n] * (n + 1))
        return Semigroup(tuple(elements), tuple(tuple(r) for r in table), n, S.identity)
    if what == "identity":
        name = _fresh_name("1", S.elements)
        elements = S.elements + (name,)
        table = [list(row) + [i] for i, row in enumerate(S.table)]
        table.append(list(range(n)) + [n])
        return Semigroup(tuple(elements), tuple(tuple(r) for r in table), S.zero, n)
    raise ValueError("what must be 'zero' or 'identity'")


def opposite(S):
    n = S.order
    table = tuple(tuple(S.table[j][i] for j in range(n)) for i in range(n))
    return Semigroup(S.elements, table, S.zero, S.identity)


def require_same(S, T):
    """Refuse with ``SemigroupMismatch`` unless T is S (compared with ``is`` first, then by value)."""
    if T is not S and T != S:
        raise SemigroupMismatch(S, T)


def is_ideal(S, subset):
    """Whether ``subset`` is a two-sided ideal; an index outside S makes it not one."""
    sub = frozenset(subset)
    if not sub <= frozenset(range(S.order)):
        return False
    if not sub:
        return True
    if S.has_zero and S.zero not in sub:
        return False
    for x in sub:
        for s in range(S.order):
            if S.table[s][x] not in sub or S.table[x][s] not in sub:
                return False
    return True


def as_ideal(S, subset):
    """``subset`` as a frozenset if it is an ideal of S, else ``NotAnIdeal``
    with the subset sorted (by repr when its members are not all ints)."""
    I = frozenset(subset)
    if not is_ideal(S, I):
        raise NotAnIdeal(sorted(I) if all(isinstance(x, int) for x in I) else sorted(I, key=repr))
    return I


def backtrack(domains, ok):
    """Yield every choice of one value per domain that ``ok`` accepts, in product-scan order.

    The values are set depth-first, each domain in its own order, and
    ``ok(values)`` is called as soon as ``values[-1]`` is set; a False
    prunes every extension of that prefix.  The one list being filled
    is yielded, so a caller that keeps a result copies it.  This is the
    basic backtrack (Knuth, TAOCP 4B, 7.2.2, Algorithm B).
    """
    values = []

    def extend(k):
        if k == len(domains):
            yield values
            return
        for v in domains[k]:
            values.append(v)
            if ok(values):
                yield from extend(k + 1)
            values.pop()

    return extend(0)


def closure(seeds, step):
    """Yield each element of the least set holding ``seeds`` and closed under ``step``, once.

    ``step(x)`` lists the elements x leads to.  The seeds come first,
    then the rest in the order a LIFO worklist discovers them.
    """
    seen = set()
    frontier = []
    todo = iter(seeds)
    while True:
        for y in todo:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
                yield y
        if not frontier:
            return
        todo = step(frontier.pop())


def principal_ideal(S, x):
    """Least two-sided ideal containing x, a ``closure`` under both multiplications."""
    columns = tuple(zip(*S.table))
    return frozenset(closure([x], lambda y: S.table[y] + columns[y]))


def ideals(S):
    """All two-sided ideals including the empty one, as frozensets.

    Every ideal is a union of principal ideals, so this is the
    ``closure`` of the empty ideal under union with a principal ideal,
    not a scan of all subsets.  Sorted by size, then lexicographically
    on sorted indices.
    """
    principals = {principal_ideal(S, x) for x in range(S.order)}
    unions = closure([frozenset()], lambda I: [I | P for P in principals])
    return sorted(unions, key=lambda I: (len(I), sorted(I)))


def rees_quotient(S, ideal):
    """Collapse a two-sided ideal to a single zero.

    The empty ideal gives S with a fresh zero adjoined; the full ideal
    gives the one-element zero semigroup.
    """
    I = as_ideal(S, ideal)
    if not I:
        return adjoin(S, "zero")
    keep = [i for i in range(S.order) if i not in I]
    names = tuple(S.elements[i] for i in keep) + (_fresh_name("0", [S.elements[i] for i in keep]),)
    z = len(keep)
    newindex = {old: new for new, old in enumerate(keep)}
    table = []
    for a in keep + [None]:
        row = []
        for b in keep + [None]:
            if a is None or b is None:
                row.append(z)
            else:
                p = S.table[a][b]
                row.append(z if p in I else newindex[p])
        table.append(tuple(row))
    identity = newindex.get(S.identity) if S.identity is not None and S.identity not in I else None
    return Semigroup(names, tuple(table), z, identity)


class Predicates(Frozen):
    """Structural flags; the last four are None when S has no zero (not applicable)."""

    __slots__ = (
        "has_zero",
        "is_monoid",
        "categorical_at_zero",
        "zero_cancellative",
        "categorical_witness",
        "cancellation_witness",
    )


def predicates(S):
    """Structural flags decided by exhaustive checks.

    categorical_at_zero: xyz = 0 forces xy = 0 or yz = 0.
    zero_cancellative: ax = bx != 0 or xa = xb != 0 forces a = b.
    Both are None (not applicable) when S has no zero.
    """
    has_zero = S.has_zero
    is_monoid = S.is_monoid
    if not has_zero:
        return Predicates(has_zero, is_monoid, None, None, None, None)
    z, t, n = S.zero, S.table, range(S.order)
    cat_wit = next(
        ((x, y, w) for x in n for y in n if t[x][y] != z for w in n if t[t[x][y]][w] == z and t[y][w] != z),
        None,
    )
    canc_wit = next(
        (
            (a, b, x)
            for a in n
            for b in n
            if a != b
            for x in n
            if t[a][x] == t[b][x] != z or t[x][a] == t[x][b] != z
        ),
        None,
    )
    cat, canc = cat_wit is None, canc_wit is None
    return Predicates(has_zero, is_monoid, cat, canc, cat_wit, canc_wit)


def zero_direct_union(S, T):
    """Union with zeros identified and cross products zero; names s.x and t.y."""
    if not S.has_zero or not T.has_zero:
        raise MissingZero("both factors must have a zero")
    s_non = S.nonzero()
    t_non = T.nonzero()
    names = (
        [f"s.{S.elements[i]}" for i in s_non]
        + [f"t.{T.elements[i]}" for i in t_non]
        + ["0"]
    )
    ns, nt = len(s_non), len(t_non)
    z = ns + nt
    s_pos = {old: new for new, old in enumerate(s_non)}
    t_pos = {old: new for new, old in enumerate(t_non)}

    def s_img(i):
        return z if i == S.zero else s_pos[i]

    def t_img(i):
        return z if i == T.zero else ns + t_pos[i]

    table = [[z] * (z + 1) for _ in range(z + 1)]
    for a in s_non:
        for b in s_non:
            table[s_pos[a]][s_pos[b]] = s_img(S.table[a][b])
    for a in t_non:
        for b in t_non:
            table[ns + t_pos[a]][ns + t_pos[b]] = t_img(T.table[a][b])
    return validate_table(names, table, z)


def _inverses(S):
    """Each unit x of S, in index order, mapped to its two-sided inverse; empty without an identity."""
    e, t, n = S.identity, S.table, range(S.order)
    inv = {}
    if e is not None:
        for x in n:
            y = next((y for y in n if t[x][y] == e == t[y][x]), None)
            if y is not None:
                inv[x] = y
    return inv


def is_group(S):
    return S.identity is not None and len(_inverses(S)) == S.order


def units_of(S):
    """The invertible elements of a monoid, in index order."""
    return tuple(_inverses(S))


def group_inverses(S):
    """The inverse of each element of a group, as a list; ``NotAGroup`` otherwise."""
    inv = _inverses(S)
    if S.identity is None or len(inv) != S.order:
        raise NotAGroup("not a group table")
    return [inv[x] for x in range(S.order)]


def t_maps(G):
    """The maps alpha (x, y) -> (xy, y^-1), beta (x, y) -> (y^-1, x^-1) and gamma
    (x, y) -> (x, 1) of a group G on G x G, on index pairs: the generators A, B, C
    of the classifying monoid T of partial factor sets (``partial``)."""
    inv, e, mul = group_inverses(G), G.identity, G.mul
    return (lambda p: (mul(*p), inv[p[1]]), lambda p: (inv[p[1]], inv[p[0]]), lambda p: (p[0], e))


def rees_matrix_semigroup(D, rows, cols, sandwich):
    """Rees matrix semigroup over a group with zero adjoined.

    Elements are triples (i, d, lam) plus 0, with
    (i, d, lam)(j, e, mu) = (i, d * P[lam][j] * e, mu) when the sandwich
    entry P[lam][j] is nonzero, else 0.  ``sandwich`` is a cols x rows
    matrix whose entries are indices or names of elements of D, or None
    (or "0") for zero; any other entry is a TableError.
    """
    if not is_group(D):
        raise NotAGroup("coordinate semigroup must be a group")
    if len(sandwich) != cols or any(len(r) != rows for r in sandwich):
        raise TableError("sandwich matrix must be cols x rows")
    P = [[_sandwich_entry(D, x) for x in row] for row in sandwich]
    for lam in range(cols):
        if all(x is None for x in P[lam]):
            raise DegenerateSandwich(f"sandwich row {lam} is zero")
    for j in range(rows):
        if all(P[lam][j] is None for lam in range(cols)):
            raise DegenerateSandwich(f"sandwich column {j} is zero")
    names = [f"({i},{d},{lam})" for i in range(rows) for d in D.elements for lam in range(cols)]
    return validate_table(names + ["0"], _rees_table(D, rows, cols, P), len(names))


def _sandwich_entry(D, x):
    # a group element index, or None for zero; bools are not indices
    if x is None or x == "0":
        return None
    if isinstance(x, str):
        return D.index(x)
    if type(x) is int and 0 <= x < D.order:
        return x
    raise TableError(f"sandwich entry {x!r} is not an element of the group")


def _rees_table(D, rows, cols, P):
    """The Rees matrix table: (i, d, lam) has index (i * |D| + d) * cols + lam, and 0 comes last."""
    n = D.order
    triples = [(i, d, lam) for i in range(rows) for d in range(n) for lam in range(cols)]
    z = len(triples)
    table = [[z] * (z + 1) for _ in range(z + 1)]
    for a, (i, d, lam) in enumerate(triples):
        for b, (j, e, mu) in enumerate(triples):
            p = P[lam][j]
            if p is not None:
                table[a][b] = (i * n + D.table[D.table[d][p]][e]) * cols + mu
    return table


class ReesDecomposition(Frozen):
    """Rees coordinates: the group and the sandwich matrix, cols x rows,
    whose entries are group element indices or None for zero."""

    __slots__ = ("group", "rows", "cols", "sandwich")


def c0s_decompose(S):
    """Rees coordinates of a completely 0-simple semigroup, else None.

    The rows and columns are the R- and L-classes of the nonzero
    elements: the class of the least nonzero idempotent e first, the
    others by least element.  The group is the H-class of e.  Row i is
    represented by r_i in R_i and L_e, column lam by q_lam in R_e and
    L_lam, each e or the least element there, scaled by (e r_i)^-1 and
    (q_lam e)^-1; the sandwich entry (lam, i) is q_lam r_i, so every
    nonzero entry of the first row and column is the identity.  The
    result is returned only once (i, d, lam) -> r_i d q_lam, 0 -> 0 is
    checked to be a bijection onto S that multiplies as the Rees table.
    Past the first refusals S is finite and 0-simple, hence completely
    0-simple (Howie 1995, ch. 3): every R-class meets every L-class.
    """
    if not S.has_zero or S.order < 2:
        return None
    z = S.zero
    nonzero = S.nonzero()
    # 0-simple: S*S != 0 and the ideal generated by each element is S
    if all(S.table[x][y] == z for x in nonzero for y in nonzero):
        return None
    full = frozenset(range(S.order))
    if any(principal_ideal(S, x) != full for x in nonzero):
        return None
    idems = [x for x in nonzero if S.table[x][x] == x]
    if not idems:
        return None
    e = min(idems)
    columns = tuple(zip(*S.table))
    rc, lc = {}, {}
    for x in nonzero:
        # keyed by the closures {x} u xS and {x} u Sx
        rc.setdefault(frozenset(closure([x], S.table.__getitem__)), set()).add(x)
        lc.setdefault(frozenset(closure([x], columns.__getitem__)), set()).add(x)
    e_first = lambda cls: (e not in cls, min(cls))
    r_classes = sorted(rc.values(), key=e_first)
    l_classes = sorted(lc.values(), key=e_first)
    try:
        D, sub = subsemigroup(S, r_classes[0] & l_classes[0])
        inv = group_inverses(D)
    except (TableError, NotAGroup):
        return None
    H = list(sub)

    def inverse(p):
        # the inverse in H of p, or e when p is not in H
        k = sub.get(p)
        return e if k is None else H[inv[k]]

    row_reps = [e if e in R else min(R & l_classes[0]) for R in r_classes]
    col_reps = [e if e in L else min(r_classes[0] & L) for L in l_classes]
    row_reps = [S.table[r][inverse(S.table[e][r])] for r in row_reps]
    col_reps = [S.table[inverse(S.table[q][e])][q] for q in col_reps]
    P = tuple(tuple(sub.get(S.table[q][r]) for r in row_reps) for q in col_reps)
    # Rees's theorem, certified: the coordinate map is a bijective homomorphism
    phi = [S.table[S.table[r][h]][q] for r in row_reps for h in H for q in col_reps] + [z]
    if sorted(phi) != list(range(S.order)):
        return None
    T = _rees_table(D, len(row_reps), len(col_reps), P)
    for a, row in enumerate(T):
        image = S.table[phi[a]]
        if any(image[phi[b]] != phi[ab] for b, ab in enumerate(row)):
            return None
    return ReesDecomposition(D, len(row_reps), len(col_reps), P)


def _isomorphisms(S, T, s_label, t_label):
    """Every table isomorphism S -> T that keeps the element labels.

    x may only map to an h with t_label[h] == s_label[x].  Yields dicts
    x -> image from a ``backtrack`` that tries the images of 0, 1, ...
    in index order, so the dicts come out lexicographically.  A prefix
    is extended only while it is injective and respects every product
    it determines: the check a b = c is filed under max(a, b, c), the
    last element whose image it reads, and run when that image is set.
    Nothing is yielded when the label multisets differ.
    """
    n = S.order
    checks = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            c = S.table[a][b]
            checks[max(a, b, c)].append((a, b, c))

    def consistent(mapping):
        k = len(mapping) - 1
        if mapping[k] in mapping[:k]:
            return False
        return all(T.table[mapping[a]][mapping[b]] == mapping[c] for a, b, c in checks[k])

    if sorted(s_label) == sorted(t_label):
        domains = [[h for h in range(n) if t_label[h] == s_label[x]] for x in range(n)]
        for mapping in backtrack(domains, consistent):
            yield dict(enumerate(mapping))


def subsemigroup(S, indices):
    """Subsemigroup on the given indices (must be closed and in range)."""
    outside = set(indices) - set(range(S.order))
    if outside:
        raise TableError(f"indices {sorted(outside, key=repr)} are not elements")
    idx = sorted(set(indices))
    pos = {x: k for k, x in enumerate(idx)}
    table = []
    for a in idx:
        row = []
        for b in idx:
            p = S.table[a][b]
            if p not in pos:
                raise TableError(f"subset not closed: {a}*{b} escapes")
            row.append(pos[p])
        table.append(row)
    zero = pos.get(S.zero) if S.zero in pos else None
    return validate_table([S.elements[i] for i in idx], table, zero), pos


def _profile(X):
    """A cheap invariant of each element x: how many y have xy = x, how many yx = x, and whether xx = x."""
    n = X.order
    return [
        (
            sum(1 for j in range(n) if X.table[i][j] == i),
            sum(1 for j in range(n) if X.table[j][i] == i),
            X.table[i][i] == i,
        )
        for i in range(n)
    ]


def isomorphic_semigroups(S, T):
    """Isomorphism test, a ``backtrack`` over the images of the elements.

    It decides group isomorphism too, and, by Rees's theorem (Howie
    1995, ch. 3), whether two Rees data are equal up to a group
    isomorphism, permutations of the rows and of the columns, and
    scalings of both by group elements: their Rees matrix semigroups
    are isomorphic.
    """
    return next(_isomorphisms(S, T, _profile(S), _profile(T)), None) is not None


def isomorphism_classes(semigroups):
    """Yield each of ``semigroups`` that is not isomorphic to one yielded before it.

    Each is profiled once, and the isomorphism search runs only against
    the kept ones with the same sorted profile.
    """
    kept = {}  # sorted profile -> [(semigroup, profile)]
    for S in semigroups:
        label = _profile(S)
        same = kept.setdefault(tuple(sorted(label)), [])
        if all(next(_isomorphisms(S, K, label, K_label), None) is None for K, K_label in same):
            same.append((S, label))
            yield S
