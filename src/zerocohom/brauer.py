"""Weak 2-cocycles, modifications, and the Brauer monoid of GF(q^n)/GF(q).

A weak 2-cocycle on the Galois group G = Z/n takes values in the unit
group of GF(q^n) (written additively as exponents, i.e. Z/(q^n - 1)) or
the zero of the field.  The defining check is associativity of the
crossed product built from it; the displayed identity used here,

    sigma(f(tau, omega)) f(sigma, tau*omega) = f(sigma, tau) f(sigma*tau, omega),

is exactly basis-triple associativity and is cross-checked against a
direct structure-constant computation.

A modification turns G u {0} into a monoid by declaring some products
zero; idempotent weak cocycles and modifications correspond bijectively,
and the Brauer monoid is the semilattice of the groups H_0^2 of the
modifications with coefficients in the Galois-twisted unit group.
"""

from itertools import product
from math import isqrt

from .catalog import cyclic_group
from .cohomology import Cochain, SemilatticeOfGroups, coboundary, cohomology_group, nerve, support_cohomology
from .errors import CapExceeded, CertificateError, InvalidFactorSet, InvalidFieldOrder
from .modules import galois_units_module
from .semigroups import Frozen, backtrack, is_ideal, predicates, units_of, validate_table

MODIFICATION_CAP = 4096  # modifications found by enumerate_modifications
WEAK_COCYCLE_CAP = 2_000_000  # candidates enumerate_weak_cocycles may scan


class WeakCocycle(Frozen):
    """A weak 2-cocycle of GF(q^n)/GF(q) on ``group``, the Galois group as a
    Semigroup (cyclic, generated by Frobenius).

    ``values`` maps each pair (s, t) to an exponent or None (zero).
    Equality reads q, n and the values only.
    """

    __slots__ = ("group", "q", "n", "values")

    @property
    def unit_order(self):
        return self.q**self.n - 1

    def value(self, s, t):
        return self.values[(s, t)]

    def key(self):
        return tuple(sorted(self.values.items()))

    def __eq__(self, other):
        return (
            isinstance(other, WeakCocycle)
            and (self.q, self.n) == (other.q, other.n)
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(((self.q, self.n), self.key()))


def _require_field_order(q):
    """Raise InvalidFieldOrder unless GF(q) exists, i.e. q is a prime power >= 2."""
    if q >= 2:
        p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
        r = q
        while r % p == 0:
            r //= p
        if r == 1:
            return
    raise InvalidFieldOrder(q)


def galois_group(n):
    """Z/n as the Galois group of GF(q^n)/GF(q), generated by Frobenius."""
    if n < 1:
        raise ValueError(f"extension degree n must be >= 1, got n = {n}")
    return cyclic_group(n)


class Modification(Frozen):
    """The monoid ``semigroup`` on G u {0} for the group ``base``, whose
    products x o y are zero exactly on the pairs in ``pattern``."""

    __slots__ = ("base", "semigroup", "pattern")


def _galois_act(q, n, k, e):
    order = q**n - 1
    return (e * pow(q, k % n, order)) % order


def validate_weak_cocycle(f):
    """None when the crossed product is associative and f is normalized.

    Returns a witness: ("normalization", s) or ("associativity",
    (s, t, w)).  Associativity is checked on basis triples
    u_s u_t u_w with the scalar tracked exactly.
    """
    G = f.group
    e = G.identity
    for s in range(G.order):
        if f.value(e, s) != 0 or f.value(s, e) != 0:
            return ("normalization", s)
    for s in range(G.order):
        for t in range(G.order):
            for w in range(G.order):
                # (u_s u_t) u_w = f(s,t) f(st,w) u_stw
                v1 = f.value(s, t)
                lhs = None
                if v1 is not None:
                    v2 = f.value(G.mul(s, t), w)
                    if v2 is not None:
                        lhs = (v1 + v2) % f.unit_order
                # u_s (u_t u_w) = s(f(t,w)) f(s,tw) u_stw
                v3 = f.value(t, w)
                rhs = None
                if v3 is not None:
                    v4 = f.value(s, G.mul(t, w))
                    if v4 is not None:
                        rhs = (_galois_act(f.q, f.n, s, v3) + v4) % f.unit_order
                if lhs != rhs:
                    return ("associativity", (s, t, w))
    return None


def crossed_product_associative(f):
    """Direct oracle: multiply symbolic scalars through both bracketings."""
    G = f.group
    order = f.unit_order

    def mul(pair1, pair2):
        # (exponent | None, group elt) pairs; None = zero of the algebra
        a, s = pair1
        b, t = pair2
        if a is None or b is None:
            return (None, G.mul(s, t))
        c = f.value(s, t)
        if c is None:
            return (None, G.mul(s, t))
        return ((a + _galois_act(f.q, f.n, s, b) + c) % order, G.mul(s, t))

    for s in range(G.order):
        for t in range(G.order):
            for w in range(G.order):
                left = mul(mul((0, s), (0, t)), (0, w))
                right = mul((0, s), mul((0, t), (0, w)))
                if left[0] != right[0] or left[1] != right[1]:
                    return False
    return True


def idempotent_weak_cocycle(G, q, n, pattern):
    """The {1, 0}-valued cocycle with zeros on ``pattern``."""
    values = {}
    for s in range(G.order):
        for t in range(G.order):
            values[(s, t)] = None if (s, t) in pattern else 0
    return WeakCocycle(G, q, n, values)


def _modification(G, pattern):
    """The monoid G u {0} whose products on ``pattern`` are zero, validated."""
    n = G.order
    table = [[n] * (n + 1) for _ in range(n + 1)]
    for x in range(n):
        for y in range(n):
            if (x, y) not in pattern:
                table[x][y] = G.mul(x, y)
    return Modification(G, validate_table(list(G.elements) + ["0"], table, n), pattern)


def modification_from_idempotent(f):
    """The monoid G u {0} defined by an idempotent weak cocycle.

    An invalid weak cocycle raises ``InvalidFactorSet`` with the witness
    of ``validate_weak_cocycle``.
    """
    v = validate_weak_cocycle(f)
    if v is not None:
        kind, witness = v
        raise InvalidFactorSet(witness, f"weak cocycle breaks {kind}")
    n = f.group.order
    return _modification(f.group, frozenset((x, y) for x in range(n) for y in range(n) if f.value(x, y) is None))


def idempotent_from_modification(mod, q=2):
    """The {1, 0}-valued weak cocycle whose support is the modification."""
    return idempotent_weak_cocycle(mod.base, q, mod.base.order, mod.pattern)


def _require_few_modifications(n):
    """Refuse a group of order n >= 1 that surely has too many modifications.

    Two nonzero free cells, the rest zero, form a modification when
    neither product is e or a coordinate of either cell: each of the m
    cells with xy != e pairs so with all but at most 4(n - 2) of the
    others.  Only n is read, so no group need be built first.
    """
    m = (n - 1) * (n - 2)
    if n > 0 and (pairs := m * (m - 1 - 4 * (n - 2)) // 2) > MODIFICATION_CAP:
        raise CapExceeded("modifications (lower bound)", pairs, MODIFICATION_CAP)


def enumerate_modifications(G):
    """All modifications of G: zero patterns with associative product.

    A ``backtrack`` over the (|G|-1)^2 free cells with incremental
    associativity pruning; the identity row and column are forced
    nonzero.  Results sorted by pattern size then lexicographically;
    each table is built once from its pattern, and ``validate_table``'s
    associativity check re-checks the search.
    """
    n = G.order
    e = G.identity
    _require_few_modifications(n)
    free = [(x, y) for x in range(n) for y in range(n) if x != e and y != e]
    cell_pos = {c: i for i, c in enumerate(free)}
    # each triple (x, y, w) as the positions of its cells (x, y), (xy, w),
    # (y, w), (x, yw), None for a cell in the identity row or column, filed
    # under its last free cell and checked once that cell is assigned; a
    # triple without free cells reads nonzero on both sides
    relevant = [[] for _ in free]
    for x in range(n):
        for y in range(n):
            for w in range(n):
                cells = tuple(cell_pos.get(c) for c in ((x, y), (G.mul(x, y), w), (y, w), (x, G.mul(y, w))))
                known = [p for p in cells if p is not None]
                if known:
                    relevant[max(known)].append(cells)

    def ok(assign):
        for cells in relevant[len(assign) - 1]:
            xy, xy_w, yw, x_yw = (p is None or assign[p] for p in cells)
            if (xy and xy_w) != (yw and x_yw):
                return False
        return True

    patterns = []
    for assign in backtrack([(True, False)] * len(free), ok):
        patterns.append(frozenset(c for c, v in zip(free, assign) if not v))
        if len(patterns) > MODIFICATION_CAP:
            raise CapExceeded("modifications found", len(patterns), MODIFICATION_CAP)
    return [_modification(G, p) for p in sorted(patterns, key=lambda p: (len(p), sorted(p)))]


def modification_structure(mod):
    """(units, non_units, nilpotency_class or None, zero_cancellative)."""
    S = mod.semigroup
    units = units_of(S)
    non_units = [x for x in range(S.order) if x not in units and x != S.zero]
    # is the complement (with 0) a nilpotent ideal?
    ideal = set(non_units) | {S.zero}
    nil_class = None
    if is_ideal(S, ideal):
        power = set(ideal)
        k = 1
        while power != {S.zero} and k <= S.order + 1:
            power = {S.mul(a, b) for a in power for b in ideal}
            k += 1
        if power == {S.zero}:
            nil_class = k
    p = predicates(S)
    return units, non_units, nil_class, p.zero_cancellative


def galois_module_for_modification(mod, q):
    n = mod.base.order
    return galois_units_module(q, n, mod.semigroup, {i: i for i in range(n)})


def brauer_components(q, n):
    """{zero pattern: H_0^2 of its modification} for GF(q^n)/GF(q), every component cut from one complex.

    The coefficients are the Galois-twisted unit group.  The empty
    pattern's modification is G^0, whose nerve is all of G^m.  Every
    modification numbers G u {0} alike and labels x by x, so its table
    cuts its nerve out of that of G^0 (``support_cohomology``).
    """
    _require_field_order(q)
    _require_few_modifications(n)
    mods = enumerate_modifications(galois_group(n))
    keys = [m.pattern for m in mods]
    # the meet of two modifications (union of zero patterns) is again one
    masks = [sum(1 << (x * n + y) for x, y in k) for k in keys]
    present = set(masks)
    for i, m1 in enumerate(masks):
        for k2, m2 in zip(keys[i + 1:], masks[i + 1:]):
            if m1 | m2 not in present:
                raise CertificateError((keys[i], k2), "zero patterns not closed under union")
    top = mods[0]  # the empty pattern sorts first
    tables = [(m.pattern, m.semigroup.table) for m in mods]
    return support_cohomology(top.semigroup, galois_module_for_modification(top, q), 2, tables)


def brauer_monoid(q, n):
    """The Brauer monoid of GF(q^n)/GF(q) as a semilattice of groups.

    Components are indexed by the modifications of the Galois group
    Z/n; the component of a modification is the degree-2 0-cohomology
    with coefficients in the Galois-twisted unit group, from
    ``brauer_components``.  Links restrict cocycles to smaller supports,
    as for Schur multipliers; a modification's nerve is a subset of that
    of any modification with fewer zeros, so tuples carry over unchanged.
    """
    return SemilatticeOfGroups.from_restrictions(brauer_components(q, n))


def weak_cocycle_to_zero_cocycle(f):
    """Restriction of a weak cocycle to the nerve of its support modification.

    Returns (modification, Cochain); the restriction is certified to be
    a 0-cocycle of the modification with Galois-unit coefficients.
    """
    pattern = frozenset(p for p, v in f.values.items() if v is None)
    mod = modification_from_idempotent(idempotent_weak_cocycle(f.group, f.q, f.n, pattern))
    M = galois_module_for_modification(mod, f.q)
    S = mod.semigroup
    values = {}
    for t in nerve(S, 2):
        values[t] = (f.value(t[0], t[1]),)
    c = Cochain(2, values)
    dc = coboundary(M, c)
    bad = next((t for t, v in dc.values.items() if any(v)), None)
    if bad is not None:
        raise CertificateError(bad, "restriction is not a 0-cocycle")
    return mod, c


def zero_cocycle_to_weak_cocycle(mod, q, cochain):
    """Inverse direction: extend a 0-cocycle of a modification by zeros."""
    G = mod.base
    n = G.order
    values = {
        (x, y): None if (x, y) in mod.pattern else cochain.values[(x, y)][0] for x in range(n) for y in range(n)
    }
    f = WeakCocycle(G, q, n, values)
    bad = validate_weak_cocycle(f)
    if bad is not None:
        raise CertificateError(bad, "extension by zeros is not a weak cocycle")
    return f


def enumerate_weak_cocycles(q, n):
    """All weak cocycles for GF(q^n)/GF(q), by brute force."""
    _require_field_order(q)
    G = galois_group(n)
    e = G.identity
    free = [(s, t) for s in range(G.order) for t in range(G.order) if s != e and t != e]
    order = q**n - 1
    choices = [None] + list(range(order))
    total = len(choices) ** len(free)
    if total > WEAK_COCYCLE_CAP:
        raise CapExceeded("weak-cocycle candidate count", total, WEAK_COCYCLE_CAP)
    out = []
    for combo in product(choices, repeat=len(free)):
        values = {}
        for s in range(G.order):
            for t in range(G.order):
                values[(s, t)] = 0 if (s == e or t == e) else None
        for p, v in zip(free, combo):
            values[p] = v
        f = WeakCocycle(G, q, n, values)
        if validate_weak_cocycle(f) is None:
            out.append(f)
    return out


def weak_cocycles_equivalent(f, g):
    """Same zero set and ratio a twisted coboundary p: G -> units."""
    if f.values.keys() != g.values.keys():
        return False
    zf = {p for p, v in f.values.items() if v is None}
    zg = {p for p, v in g.values.items() if v is None}
    if zf != zg:
        return False
    G = f.group
    order = f.unit_order
    e = G.identity
    # search p with p(e) = 0 and g = f * dp, dp(s,t) = s(p(t)) - p(st) + p(s)
    others = [s for s in range(G.order) if s != e]
    for combo in product(range(order), repeat=len(others)):
        p = {e: 0}
        p.update(dict(zip(others, combo)))
        good = True
        for (s, t), v in f.values.items():
            if v is None:
                continue
            tw = (v + _galois_act(f.q, f.n, s, p[t]) - p[G.mul(s, t)] + p[s]) % order
            if tw != g.values[(s, t)] % order:
                good = False
                break
        if good:
            return True
    return False


def brauer_class_count_bridge(q, n):
    """Exhaustive check: weak-cocycle classes with support e biject with
    the elements of H_0^2(G_e, units), for every support pattern e.

    Returns a dict pattern -> (number of classes, |H_0^2|).
    """
    cocycles = enumerate_weak_cocycles(q, n)
    by_pattern = {}
    for f in cocycles:
        pattern = frozenset(p for p, v in f.values.items() if v is None)
        by_pattern.setdefault(pattern, []).append(f)
    out = {}
    for pattern, fs in by_pattern.items():
        classes = []
        for f in fs:
            if not any(weak_cocycles_equivalent(f, rep) for rep in classes):
                classes.append(f)
        mod = modification_from_idempotent(
            idempotent_weak_cocycle(fs[0].group, q, n, pattern)
        )
        M = galois_module_for_modification(mod, q)
        H = cohomology_group(mod.semigroup, M, 2)
        out[pattern] = (len(classes), H.group.order())
        # cocycle-level bridge: restrictions are 0-cocycles, and pullbacks
        # of 0-cocycles are weak cocycles
        for f in fs:
            weak_cocycle_to_zero_cocycle(f)
    return out
