"""Finite semigroups as multiplication tables.

Elements are indexed 0..n-1 and names are purely decorative; every
operation keys on indices.  The table is validated exhaustively
(associativity, absorbing zero) and an identity/zero is derived from the
table when present.

Convention: the Rees quotient by the empty ideal is the semigroup with a
fresh zero adjoined (so the "empty collapse" still produces a semigroup
with zero).

The package's depth-first searches and worklist closures run on
``backtrack`` and ``closure``, defined here; only the nerve keeps a
recursion of its own, which is faster on the cohomology hot path.
Its immutable records derive from ``Frozen``, also defined here.
"""

from itertools import permutations, product

from .errors import (
    AssociativityError,
    DegenerateSandwich,
    DuplicateName,
    MissingZero,
    NotAGroup,
    NotAnIdeal,
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

    def name(self, i):
        return self.elements[i]

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
        for z in range(n):
            if all(table[z][i] == z and table[i][z] == z for i in range(n)):
                zero = z
                break
    identity = None
    for e in range(n):
        if all(table[e][i] == i and table[i][e] == i for i in range(n)):
            identity = e
            break
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


def is_ideal(S, subset):
    sub = frozenset(subset)
    if not sub:
        return True
    if S.has_zero and S.zero not in sub:
        return False
    for x in sub:
        for s in range(S.order):
            if S.table[s][x] not in sub or S.table[x][s] not in sub:
                return False
    return True


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
    n = S.order
    step = lambda y: [p for s in range(n) for p in (S.table[s][y], S.table[y][s])]
    return frozenset(closure([x], step))


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
    I = frozenset(ideal)
    if not is_ideal(S, I):
        raise NotAnIdeal(sorted(I))
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
    z = S.zero
    cat = True
    cat_wit = None
    n = S.order
    for x in range(n):
        for y in range(n):
            xy = S.table[x][y]
            for w in range(n):
                if S.table[xy][w] == z and xy != z and S.table[y][w] != z:
                    cat = False
                    cat_wit = (x, y, w)
                    break
            if not cat:
                break
        if not cat:
            break
    canc = True
    canc_wit = None
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            for x in range(n):
                if (S.table[a][x] == S.table[b][x] != z) or (S.table[x][a] == S.table[x][b] != z):
                    canc = False
                    canc_wit = (a, b, x)
                    break
            if not canc:
                break
        if not canc:
            break
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


def is_group(S):
    if S.identity is None:
        return False
    e = S.identity
    for x in range(S.order):
        if not any(S.table[x][y] == e and S.table[y][x] == e for y in range(S.order)):
            return False
    return True


def units_of(S):
    """The invertible elements of a monoid, in index order."""
    e = S.identity
    return tuple(
        x for x in range(S.order) if any(S.mul(x, y) == e and S.mul(y, x) == e for y in range(S.order))
    )


def group_inverses(S):
    if not is_group(S):
        raise NotAGroup("not a group table")
    e = S.identity
    inv = [None] * S.order
    for x in range(S.order):
        for y in range(S.order):
            if S.table[x][y] == e:
                inv[x] = y
                break
    return inv


def rees_matrix_semigroup(D, rows, cols, sandwich):
    """Rees matrix semigroup over a group with zero adjoined.

    Elements are triples (i, d, lam) plus 0, with
    (i, d, lam)(j, e, mu) = (i, d * P[lam][j] * e, mu) when the sandwich
    entry P[lam][j] is nonzero, else 0.  ``sandwich`` is a cols x rows
    matrix over D plus None (or "0") for zero entries.
    """
    if not is_group(D):
        raise NotAGroup("coordinate semigroup must be a group")
    if len(sandwich) != cols or any(len(r) != rows for r in sandwich):
        raise TableError("sandwich matrix must be cols x rows")
    P = []
    for lam in range(cols):
        row = []
        for j in range(rows):
            x = sandwich[lam][j]
            if x is None:
                row.append(None)
            elif isinstance(x, str):
                row.append(None if x == "0" else D.index(x))
            else:
                row.append(int(x))
        P.append(row)
    for lam in range(cols):
        if all(P[lam][j] is None for j in range(rows)):
            raise DegenerateSandwich(f"sandwich row {lam} is zero")
    for j in range(rows):
        if all(P[lam][j] is None for lam in range(cols)):
            raise DegenerateSandwich(f"sandwich column {j} is zero")
    triples = [(i, d, lam) for i in range(rows) for d in range(D.order) for lam in range(cols)]
    names = [f"({i},{D.elements[d]},{lam})" for i, d, lam in triples]
    names.append("0")
    z = len(triples)
    pos = {t: k for k, t in enumerate(triples)}
    table = [[z] * (z + 1) for _ in range(z + 1)]
    for a, (i, d, lam) in enumerate(triples):
        for b, (j, e, mu) in enumerate(triples):
            p = P[lam][j]
            if p is not None:
                table[a][b] = pos[(i, D.table[D.table[d][p]][e], mu)]
    return validate_table(names, table, z)


def _right_ideal(S, x):
    return frozenset([x] + [S.table[x][s] for s in range(S.order)])


def _left_ideal(S, x):
    return frozenset([x] + [S.table[s][x] for s in range(S.order)])


class ReesDecomposition(Frozen):
    """Rees coordinates: the group, the sandwich matrix (cols x rows, entries
    a group element index or None) and the representatives that realize it."""

    __slots__ = ("group", "rows", "cols", "sandwich", "row_reps", "col_reps")

    def __init__(self, group, rows, cols, sandwich, row_reps=(), col_reps=()):
        super().__init__(group, rows, cols, sandwich, row_reps, col_reps)


def c0s_decompose(S):
    """Rees coordinates of a completely 0-simple semigroup, else None.

    The sandwich matrix is normalized so every nonzero entry of its
    first row and first column is the group identity.  The isomorphism
    (i, d, lam) -> r_i * d * q_lam is verified exhaustively before
    returning; any failure yields None.
    """
    if not S.has_zero or S.order < 2:
        return None
    z = S.zero
    nonzero = S.nonzero()
    # 0-simple: S*S != 0 and the ideal generated by each element is S
    if all(S.table[x][y] == z for x in nonzero for y in nonzero):
        return None
    full = frozenset(range(S.order))
    for x in nonzero:
        if principal_ideal(S, x) != full:
            return None
    # Green classes on the nonzero part
    rc = {}
    lc = {}
    for x in nonzero:
        rc.setdefault(_right_ideal(S, x), []).append(x)
        lc.setdefault(_left_ideal(S, x), []).append(x)
    r_classes = sorted(rc.values(), key=min)
    l_classes = sorted(lc.values(), key=min)
    idems = [x for x in nonzero if S.table[x][x] == x]
    if not idems:
        return None
    e = min(idems)
    r_of = {x: k for k, cls in enumerate(r_classes) for x in cls}
    l_of = {x: k for k, cls in enumerate(l_classes) for x in cls}
    # reorder so e's classes come first
    r_order = [r_of[e]] + [k for k in range(len(r_classes)) if k != r_of[e]]
    l_order = [l_of[e]] + [k for k in range(len(l_classes)) if k != l_of[e]]
    r_classes = [r_classes[k] for k in r_order]
    l_classes = [l_classes[k] for k in l_order]
    r_of = {x: k for k, cls in enumerate(r_classes) for x in cls}
    l_of = {x: k for k, cls in enumerate(l_classes) for x in cls}
    H11 = sorted(set(r_classes[0]) & set(l_classes[0]))
    sub = {x: k for k, x in enumerate(H11)}
    dtable = []
    for x in H11:
        row = []
        for y in H11:
            p = S.table[x][y]
            if p not in sub:
                return None
            row.append(sub[p])
        dtable.append(row)
    try:
        D = validate_table([S.elements[x] for x in H11], dtable)
    except AssociativityError:
        return None
    if not is_group(D):
        return None
    row_reps = []
    for cls in r_classes:
        cand = [x for x in cls if l_of.get(x) == 0]
        if not cand:
            return None
        row_reps.append(e if cls is r_classes[0] else min(cand))
    col_reps = []
    for cls in l_classes:
        cand = [x for x in cls if r_of.get(x) == 0]
        if not cand:
            return None
        col_reps.append(e if cls is l_classes[0] else min(cand))
    inv = group_inverses(D)

    def sandwich(cols, rows):
        # entry (lam, i) is q_lam r_i as an element of H11, None for zero;
        # None overall when some product leaves H11
        P = []
        for q in cols:
            row = []
            for r in rows:
                p = S.table[q][r]
                if p != z and p not in sub:
                    return None
                row.append(sub[p] if p != z else None)
            P.append(row)
        return P

    P = sandwich(col_reps, row_reps)
    if P is None:
        return None
    # rescale reps: r_i -> r_i * g_i with g_i = P[0][i]^-1, then
    # q_lam -> h_lam * q_lam with h_lam = (P[lam][0])^-1; products of
    # H11 with H11 u {0} stay there, so the later sandwiches exist
    g = [inv[x] if x is not None else D.identity for x in P[0]]
    row_reps = [S.table[r][H11[gi]] for r, gi in zip(row_reps, g)]
    h = [inv[row[0]] if row[0] is not None else D.identity for row in sandwich(col_reps, row_reps)]
    col_reps = [S.table[H11[hl]][q] for hl, q in zip(h, col_reps)]
    P = sandwich(col_reps, row_reps)
    # verify the coordinate map is an isomorphism
    seen = {}
    for i, r in enumerate(row_reps):
        for d, hx in enumerate(H11):
            for lam, q in enumerate(col_reps):
                val = S.table[S.table[r][hx]][q]
                if val == z or val in seen:
                    return None
                seen[val] = (i, d, lam)
    if len(seen) != len(nonzero):
        return None
    coord = seen
    for a in nonzero:
        for b in nonzero:
            i, d, lam = coord[a]
            j, ee, mu = coord[b]
            ab = S.table[a][b]
            p = P[lam][j]
            if p is None:
                if ab != z:
                    return None
            else:
                expect = (i, D.table[D.table[d][p]][ee], mu)
                if ab == z or coord[ab] != expect:
                    return None
    return ReesDecomposition(
        D,
        len(row_reps),
        len(col_reps),
        tuple(tuple(r) for r in P),
        tuple(row_reps),
        tuple(col_reps),
    )


def _isomorphisms(S, T, s_label, t_label):
    """Every table isomorphism S -> T that keeps the element labels.

    x may only map to an h with t_label[h] == s_label[x].  Yields dicts
    x -> image from a ``backtrack`` that tries the images of 0, 1, ...
    in index order, so the dicts come out lexicographically.  A prefix
    is extended only while it is injective and respects every product
    it determines.  Nothing is yielded when the label multisets differ.
    """
    n = S.order

    def consistent(mapping):
        k = len(mapping) - 1
        if mapping[k] in mapping[:k]:
            return False
        for a in range(k + 1):
            for b in range(k + 1):
                c = S.table[a][b]
                if c <= k and T.table[mapping[a]][mapping[b]] != mapping[c]:
                    return False
        return True

    if sorted(s_label) == sorted(t_label):
        domains = [[h for h in range(n) if t_label[h] == s_label[x]] for x in range(n)]
        for mapping in backtrack(domains, consistent):
            yield dict(enumerate(mapping))


def _element_orders(G):
    e = G.identity
    out = []
    for x in range(G.order):
        k = 1
        y = x
        while y != e:
            y = G.table[y][x]
            k += 1
        out.append(k)
    return out


def group_isomorphism(G, H):
    """A table isomorphism dict for groups of order <= 8, or None."""
    if not is_group(G) or not is_group(H):
        return None
    return next(_isomorphisms(G, H, _element_orders(G), _element_orders(H)), None)


def group_automorphisms(G):
    """All automorphisms of a small group, as index dicts."""
    orders = _element_orders(G)
    return list(_isomorphisms(G, G, orders, orders))


def sandwich_equivalent(dec1, dec2):
    """Equality of Rees data up to permutations, scalings, automorphisms."""
    if dec1.rows != dec2.rows or dec1.cols != dec2.cols:
        return False
    D1, D2 = dec1.group, dec2.group
    iso = group_isomorphism(D1, D2)
    if iso is None:
        return False
    P1 = dec1.sandwich
    P2 = dec2.sandwich
    rows, cols = dec1.rows, dec1.cols
    autos = group_automorphisms(D2)
    p1_mapped = [[None if x is None else iso[x] for x in row] for row in P1]
    elements = range(D2.order)
    for theta in autos:
        base = [[None if x is None else theta[x] for x in row] for row in p1_mapped]
        for rperm in permutations(range(rows)):
            for cperm in permutations(range(cols)):
                perm = [[base[cperm[lam]][rperm[i]] for i in range(rows)] for lam in range(cols)]
                if _scalable_to(perm, P2, D2, elements):
                    return True
    return False


def _scalable_to(P, Q, D, elements):
    # exists h_lam, g_i with h_lam * P[lam][i] * g_i == Q[lam][i]?
    rows = len(P[0])
    cols = len(P)
    for lam in range(cols):
        for i in range(rows):
            if (P[lam][i] is None) != (Q[lam][i] is None):
                return False
    inv = group_inverses(D)

    def try_g(g):
        # determine h_lam from the first nonzero entry of each row
        for lam in range(cols):
            h = None
            for i in range(rows):
                if P[lam][i] is not None:
                    want = Q[lam][i]
                    pg = D.table[P[lam][i]][g[i]]
                    h2 = D.table[want][inv[pg]]
                    if h is None:
                        h = h2
                    elif h != h2:
                        return False
            # rows with all zeros impose nothing
        return True

    return any(try_g(g) for g in product(elements, repeat=rows))


def subsemigroup(S, indices):
    """Subsemigroup on the given indices (must be closed)."""
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


def isomorphic_semigroups(S, T):
    """Brute-force isomorphism test for small semigroups (order <= 8)."""

    # a cheap invariant of each element
    def profile(X):
        n = X.order
        return [
            (
                sum(1 for j in range(n) if X.table[i][j] == i),
                sum(1 for j in range(n) if X.table[j][i] == i),
                X.table[i][i] == i,
            )
            for i in range(n)
        ]

    return next(_isomorphisms(S, T, profile(S), profile(T)), None) is not None
