"""The one sparse column elimination, over Z or over Z/N.

Columns are sparse {row: value} dicts.  ``_retire`` brings a matrix,
with the relation columns of its target factors, to column echelon
form one pivot at a time, and ``_substitute`` forward-substitutes a
vector through the pivots it hands out; every kernel, solve and
subquotient in ``abgroups`` runs on these two, and so does ``_smith``,
the Smith form of a subquotient's small non-unit core, by alternating
column and row echelon passes.  The ring is Z for modulus 0 and Z/N,
any N >= 1, for modulus N, where the echelon form is a Howell form
(Howell, Lin. Multilin. Algebra 19, 1986; Storjohann and Mulders, 1998).
"""

from math import gcd


def _relations(factors, modulus=0):
    """The relation columns d*e_i, one sparse {i: d} per factor d other than 0 and the modulus."""
    return [{i: d} for i, d in enumerate(factors) if d and d != modulus]


def _add_multiple(dst, c, src, modulus=0):
    """dst += c * src on sparse {index: value} dicts (mod the modulus unless 0), dropping zeros."""
    for r, v in src.items():
        w = dst.get(r, 0) + c * v
        if modulus:
            w %= modulus
        if w:
            dst[r] = w
        elif r in dst:
            del dst[r]


def _combine(cols, coeffs):
    """The sparse sum of coeffs[k] * cols[k]."""
    acc = {}
    for k, x in coeffs.items():
        _add_multiple(acc, x, cols[k])
    return acc


def _sparse(v):
    """A fresh {index: value} dict of a dense vector or of a sparse one."""
    if isinstance(v, dict):
        return dict(v)
    return {i: x for i, x in enumerate(v) if x}


def _dense(v, n):
    out = [0] * n
    for i, x in v.items():
        out[i] = x
    return out


def _reduced(v, factors):
    """The sparse vector v with coordinate i taken mod factors[i] (0 = exact)."""
    out = {}
    for i, x in v.items():
        d = factors[i]
        if d:
            x %= d
        if x:
            out[i] = x
    return out


def _subtract(cols, hits, j, q, src, modulus):
    """cols[j] -= q * src, keeping hits[r] (the columns nonzero in row r) current."""
    cj = cols[j]
    for r, v in src.items():
        w = cj.get(r, 0) - q * v
        if modulus:
            w %= modulus
        if w:
            if r not in cj:
                hits[r].add(j)
            cj[r] = w
        elif r in cj:
            del cj[r]
            hits[r].discard(j)


def _normalize(col, t, i, modulus):
    """Scale a column and its transform, in place, by the unit that makes col[i] = gcd(col[i], modulus)."""
    g = gcd(col[i], modulus)
    if col[i] != g:
        n = modulus // g
        u = pow(col[i] // g, -1, n)
        # a unit mod N/g need not be one mod N (4 mod 6 gives 2): step to one
        while gcd(u, modulus) != 1:
            u += n
        for d in (col, t):
            for r, x in d.items():
                d[r] = x * u % modulus


def _retire(columns, m, target_factors, modulus=0, transforms=True):
    """Sparse column echelon form of [M | diag(d)] over Z or Z/modulus, one pivot at a time.

    M is given by its {row: value} ``columns`` (copied, not changed) and
    its row count m; the relation columns of the target factors join
    them.  The ring is Z for modulus 0, else Z/N for modulus N: then the
    columns are reduced mod N as they are copied, every target factor
    divides N, and only those below it add a relation column (N e_i is
    zero already).

    Rows are eliminated in order.  Of the columns hitting the row, the
    pivot is the one with the smallest g = gcd(entry, modulus), which is
    the |entry| over Z (fewest nonzeros on ties); mod N it is first
    scaled by a unit so that its entry is g, a divisor of N.  The others
    are reduced against it by floor quotients, leaving entries below g
    in size; these Euclid steps repeat until a single column hits the
    row (one pass mod a prime power, maybe more mod a composite N).  The
    column left is retired as the row's pivot.  Mod N a pivot c with
    entry g > 1 leaves (N/g) c in the span, zero in its row; that column
    re-enters the elimination, with (N/g) times c's transform, so that a
    combination of pivots zero in one pivot's row lies in the span of
    the pivots below it (the Howell property).  Each column carries
    the first len(columns) coordinates of its column transform, also
    sparse; a relation column starts with an empty one, and every column
    does when ``transforms`` is false.

    Yields (row, column, transform) for each pivot as it retires, in row
    order, each column zero above its row, and drops it: a caller that
    does not keep a pivot frees it.  Then yields (None, {}, transform)
    for each column that ended zero; these transforms span the kernel.
    """
    if modulus:
        cols = [{r: x % modulus for r, x in c.items() if x % modulus} for c in columns]
    else:
        cols = [dict(c) for c in columns]
    cols += _relations(target_factors, modulus)
    trans = [{j: 1} if j < len(columns) and transforms else {} for j in range(len(cols))]
    hits = [set() for _ in range(m)]  # hits[r]: unretired columns nonzero in row r
    for j, c in enumerate(cols):
        for r in c:
            hits[r].add(j)
    for i in range(m):
        h = hits[i]
        while len(h) > 1:
            p = min(h, key=lambda j: (gcd(cols[j][i], modulus), len(cols[j]), j))
            cp, tp = cols[p], trans[p]
            if modulus:
                _normalize(cp, tp, i, modulus)
            a = cp[i]
            for j in [j for j in h if j != p]:
                q = cols[j][i] // a
                _subtract(cols, hits, j, q, cp, modulus)
                if tp:
                    _add_multiple(trans[j], -q, tp, modulus)
        if h:
            (p,) = h
            cp, tp = cols[p], trans[p]
            for r in cp:
                hits[r].discard(p)
            cols[p] = trans[p] = None
            if modulus:
                _normalize(cp, tp, i, modulus)
                s = modulus // cp[i]
                if s < modulus:
                    c = {r: x * s % modulus for r, x in cp.items() if x * s % modulus}
                    t = {r: x * s % modulus for r, x in tp.items() if x * s % modulus}
                    if c or t:  # a zero column with a transform is a kernel vector
                        for r in c:
                            hits[r].add(len(cols))
                        cols.append(c)
                        trans.append(t)
            yield i, cp, tp
        hits[i] = None  # no unretired column reaches a finished row
    for c, t in zip(cols, trans):
        if c == {}:
            yield None, c, t


def _substitute(pivots, b, modulus=0):
    """Sparse x with M x = b (mod the factors), from the pivots of ``_retire``.

    b (dense or sparse) is forward-substituted through the pivots, which
    may be read straight from ``_retire`` over the same ring: a kernel
    entry's row, None, never holds a residual.  The answer is None when
    a pivot does not divide the residual in its row, or when a residual
    is left over at the end.  Mod N this decides membership too, by the
    Howell property of the pivots: each pivot's entry g divides N, and
    the span of the pivots below a pivot c holds (N/g) c.
    """
    res = _sparse(b)
    if modulus:
        res = {i: v % modulus for i, v in res.items() if v % modulus}
    x = {}
    for i, col, t in pivots:
        if i in res:
            q, r = divmod(res[i], col[i])
            if r:
                return None
            _add_multiple(res, -q, col, modulus)
            _add_multiple(x, q, t, modulus)
    if res:
        return None
    return x


def _smith(columns, m):
    """Smith form over Z of the m-row matrix on the sparse ``columns``: (d, row of U, column of U^-1) per row.

    Column and row echelon passes alternate (Kannan and Bachem, SIAM J.
    Comput. 8, 1979): a column pass is ``_retire`` without transforms,
    which leaves M V for some unimodular V, and a row pass is ``_retire``
    on the transpose, whose transforms are the rows of U.  They stop
    when every pivot column holds one entry.  Where two divisors do not
    divide each other, one row is added to the other and the passes go
    on, so the divisors end in a chain d_1 | d_2 | ..., zeros last, each
    d >= 0 with U M V = diag(d).  Rows of U and columns of U^-1 are
    sparse; the columns come from ``_substitute`` through the pivots of U.
    """
    cols, urows = columns, [{i: 1} for i in range(m)]
    while True:
        pivots = [(i, c) for i, c, _ in _retire(cols, m, (), transforms=False) if i is not None]
        if all(len(c) == 1 for _, c in pivots):
            d = {i: c[i] for i, c in pivots}
            bad = next(((i, j) for i in d for j in d if d[i] % d[j] and d[j] % d[i]), None)
            if bad is None:
                break
            i, j = bad
            cols = [{k: x, i: x} if k == j else {k: x} for k, x in d.items()]
            _add_multiple(urows[i], 1, urows[j])
            continue
        rows = [{} for _ in range(m)]
        for k, (_, c) in enumerate(pivots):
            for i, x in c.items():
                rows[i][k] = x
        cols = [{} for _ in pivots]
        steps = list(_retire(rows, len(pivots), ()))
        for s, (_, row, _) in enumerate(steps):
            for k, x in row.items():
                cols[k][s] = x
        urows = [_combine(urows, t) for _, _, t in steps]
    # a negative divisor's sign goes into V, so its row of U stays
    out = sorted(((abs(d.get(i, 0)), u) for i, u in enumerate(urows)), key=lambda e: (e[0] == 0, e[0]))
    ucols = [{} for _ in range(m)]
    for p, (_, u) in enumerate(out):
        for j, x in u.items():
            ucols[j][p] = x
    upivots = [s for s in _retire(ucols, m, ()) if s[0] is not None]
    return [(x, u, _substitute(upivots, {p: 1})) for p, (x, u) in enumerate(out)]

