"""Nerves, cochains, the coboundary operator, and cohomology groups.

Three variants share one coboundary formula:

* ``zero``      cochains live on tuples of nonzero elements whose full
                product is nonzero (partially defined cochains);
* ``em``        cochains are totally defined on S^n (classical
                Eilenberg-MacLane semigroup cohomology);
* ``bimodule``  like ``zero`` but the last term of the coboundary acts
                on the right.

The coboundary of f in degree n sends (x_1, ..., x_{n+1}) to

    x_1 f(x_2..x_{n+1}) + sum_i (-1)^i f(.., x_i x_{i+1}, ..)
                        + (-1)^{n+1} f(x_1..x_n)           [* x_{n+1}]

with the degree-0 rule a |-> (x a - a), resp. (x a - a x).
"""

from dataclasses import dataclass
from itertools import product

from .abgroups import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    SparseMatrix,
    complex_homology,
    finite_invariants_from_orders,
    solve_mod,
)
from .errors import CapExceeded, CertificateError, DegreeMismatch, InvalidModule, NoZero
from .modules import Bimodule, validate_module

DEGREE_CAP = 4
COBOUNDARY_CELL_CAP = 4_000_000  # dense cells of one coboundary matrix
BRUTE_COCHAIN_CAP = 2_000_000  # cochains one brute_cohomology call may enumerate

VARIANTS = ("zero", "em", "bimodule")


def nerve(S, n, variant="zero"):
    """Tuples indexing degree-n cochains, lexicographically ordered.

    Degree 0 is the single empty tuple.  The zero/bimodule nerve keeps
    only tuples of nonzero elements with nonzero full product; the em
    nerve is all of S^n.
    """
    if n < 0:
        raise DegreeMismatch("negative degree")
    if n == 0:
        return [()]
    if variant == "em":
        return [tuple(t) for t in product(range(S.order), repeat=n)]
    if not S.has_zero:
        raise NoZero("zero variant needs a semigroup with zero")
    out = []
    # depth-first in index order builds the nerve lexicographically sorted
    for x in S.nonzero():
        _extend(S, (x,), x, n, out)
    return out


def _extend(S, prefix, prod_so_far, n, out):
    if len(prefix) == n:
        out.append(prefix)
        return
    z = S.zero
    for y in S.nonzero():
        p = S.mul(prod_so_far, y)
        if p != z:
            _extend(S, prefix + (y,), p, n, out)


@dataclass
class Cochain:
    degree: int
    values: dict  # nerve tuple -> coefficient vector (tuple)

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.values == other.values
        )


def zero_cochain(S, M, n, variant="zero"):
    zero = M.group.zero()
    return Cochain(n, {t: zero for t in nerve(S, n, variant)})


def _cochain_on(M, n, tuples, vec):
    """The degree-n cochain with value vec[k*i : k*(i+1)] on tuples[i]."""
    k = M.group.rank
    values = {}
    for idx, t in enumerate(tuples):
        values[t] = M.group.reduce(vec[idx * k : (idx + 1) * k])
    return Cochain(n, values)


def _vector_on(M, f, tuples):
    """The coefficient vector of f, one block per tuple in order."""
    return [x for t in tuples for x in M.group.reduce(f.values[t])]


def random_cochain(rng, S, M, n, variant="zero"):
    values = {}
    for t in nerve(S, n, variant):
        values[t] = M.group.reduce([rng.randrange(-5, 6) for _ in range(M.group.rank)])
    return Cochain(n, values)


def coboundary(M, f, variant="zero"):
    """The coboundary cochain of f (degree goes up by one)."""
    S = M.semigroup
    n = f.degree
    expected = set(nerve(S, n, variant))
    if set(f.values) != expected:
        raise DegreeMismatch("cochain domain does not match the degree-%d nerve" % n)
    bimod = variant == "bimodule"
    out = {t: _coboundary_at(M, f.values, t, bimod) for t in nerve(S, n + 1, variant)}
    return Cochain(n + 1, out)


def _coboundary_at(M, values, t, bimod):
    """The coboundary of the cochain ``values`` at the (n+1)-tuple t."""
    S = M.semigroup
    A = M.group
    n = len(t) - 1
    acc = list(M.act(t[0], values[t[1:]]))
    sign = -1
    for i in range(n):
        v = values[t[:i] + (S.mul(t[i], t[i + 1]),) + t[i + 2 :]]
        for r in range(A.rank):
            acc[r] += sign * v[r]
        sign = -sign
    last = values[t[:-1]]
    if bimod:
        last = M.act_right(last, t[-1])
    for r in range(A.rank):
        acc[r] += sign * last[r]
    return A.reduce(acc)


def cochain_group(tuples, group_of):
    """The direct sum of group_of(t) over the tuples, with block offsets."""
    factors = []
    offsets = []
    for t in tuples:
        offsets.append(len(factors))
        factors.extend(group_of(t).factors)
    return FinAbGroup(factors), offsets


def face_maps(S, upper, lower):
    """The face maps between two consecutive nerve levels, as index lists.

    ``upper`` and ``lower`` are the nerves of levels m >= 1 and m - 1.
    Row i gives, for each tuple t of ``upper`` in order, the position in
    ``lower`` of its face d_i t: d_0 drops the first letter, d_m the
    last, and d_i for 0 < i < m multiplies t[i - 1] and t[i] together.
    An empty ``upper`` gives empty rows.
    """
    pos = {t: p for p, t in enumerate(lower)}
    m = len(upper[0]) if upper else 1
    inner = [[pos[t[: i - 1] + (S.mul(t[i - 1], t[i]),) + t[i + 1 :]] for t in upper] for i in range(1, m)]
    return [[pos[t[1:]] for t in upper]] + inner + [[pos[t[:-1]] for t in upper]]


def assemble_coboundary(S, src_tuples, dst_tuples, group_of, first_block, last_block, faces=None):
    """The alternating-sum coboundary from one nerve to the next, as a GroupHom.

    ``src_tuples`` and ``dst_tuples`` are the degree-n and degree-(n+1)
    nerves.  ``group_of(t)`` is the coefficient group at the nerve tuple
    t; ``first_block(t)`` and ``last_block(t)`` are the matrices of the
    first-slot term (from t[1:] to t) and the last-slot term (from
    t[:-1] to t).  The middle terms merge two neighbours, keep the full
    product and so the group, and enter as identity blocks.  The matrix
    is a SparseMatrix: one {row: value} column per source coordinate.
    ``faces``, when given, is ``face_maps(S, dst_tuples, src_tuples)``
    already built; otherwise it is built after the cap check.
    """
    src, src_off = cochain_group(src_tuples, group_of)
    # the cap is checked before the larger cochain group is laid out
    rows = sum(group_of(t).rank for t in dst_tuples)
    cells = src.rank * max(rows, 1)
    if cells > COBOUNDARY_CELL_CAP:
        raise CapExceeded(f"coboundary matrix ({rows}x{src.rank}) cell count", cells, COBOUNDARY_CELL_CAP)
    dst, dst_off = cochain_group(dst_tuples, group_of)
    if faces is None:
        faces = face_maps(S, dst_tuples, src_tuples)
    cols = [{} for _ in range(src.rank)]

    def add_block(r0, c0, block, sign):
        for r, brow in enumerate(block.a, r0):
            for c, x in enumerate(brow, c0):
                if x:
                    col = cols[c]
                    col[r] = col.get(r, 0) + sign * x

    inner = faces[1:-1]
    for p, (t, r0, r1) in enumerate(zip(dst_tuples, dst_off, dst_off[1:] + [dst.rank])):
        add_block(r0, src_off[faces[0][p]], first_block(t), 1)
        sign = -1
        for d in inner:
            c0 = src_off[d[p]] - r0
            for r in range(r0, r1):
                col = cols[c0 + r]
                col[r] = col.get(r, 0) + sign
            sign = -sign
        add_block(r0, src_off[faces[-1][p]], last_block(t), sign)
    # terms that cancelled are not stored
    cols = [{r: x for r, x in c.items() if x} for c in cols]
    return GroupHom(src, dst, SparseMatrix(dst.rank, cols))


def coboundary_hom(S, M, n, variant="zero", nerves=None):
    """The coboundary in degree n as a GroupHom between cochain groups.

    ``nerves``, when given, is the pair (degree-n nerve, degree-(n+1)
    nerve) already built for this semigroup and variant.
    """
    A = M.group
    one = IntMatrix.identity(A.rank)
    if variant == "bimodule":
        last = lambda t: M.right[t[-1]]
    else:
        last = lambda t: one
    if nerves is None:
        nerves = (nerve(S, n, variant), nerve(S, n + 1, variant))
    return assemble_coboundary(S, *nerves, lambda t: A, lambda t: M.matrix(t[0]), last)


@dataclass
class CohomologyResult:
    group: FinAbGroup
    witnesses: list  # cocycle representatives of the generators
    homology: object
    tuples: list
    variant: str

    def coords(self, f, S, M):
        """The class of the cocycle f on the witnesses, read on the stored nerve."""
        return self.homology.coords(_vector_on(M, f, self.tuples))


def _check_module_for_variant(S, M, variant):
    if variant == "bimodule":
        if not isinstance(M, Bimodule):
            raise InvalidModule(None, "bimodule variant needs a Bimodule")
    elif isinstance(M, Bimodule):
        raise InvalidModule(None, "one-sided variant got a Bimodule")
    v = validate_module(M)
    if v:
        raise InvalidModule(v.witness, f"module axioms violated ({v.kind})")
    domain = M.left.keys() if isinstance(M, Bimodule) else M.action.keys()
    if variant == "em":
        need = set(range(S.order))
    else:
        need = set(S.nonzero())
    if not need <= set(domain):
        raise InvalidModule(sorted(need - set(domain)), "action domain too small")


def cohomology_group(S, M, n, variant="zero"):
    """H^n as an invariant-factor group plus witness cocycles.

    ``zero``: H_0^n of a semigroup with zero; ``em``: classical
    cohomology on totally defined cochains; ``bimodule``: two-sided
    version of the zero variant.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if n > DEGREE_CAP:
        raise CapExceeded("degree", n, DEGREE_CAP)
    if n < 0:
        raise DegreeMismatch("negative degree")
    _check_module_for_variant(S, M, variant)
    tuples = nerve(S, n, variant)
    d_out = coboundary_hom(S, M, n, variant, (tuples, nerve(S, n + 1, variant)))
    if n == 0:
        d_in = GroupHom(FinAbGroup(()), d_out.source, SparseMatrix(d_out.source.rank, []))
    else:
        d_in = coboundary_hom(S, M, n - 1, variant, (nerve(S, n - 1, variant), tuples))
    H = complex_homology(d_in, d_out)
    witnesses = [_cochain_on(M, n, tuples, w) for w in H.witnesses]
    return CohomologyResult(H.group, witnesses, H, tuples, variant)


def witness_report(S, M, f, variant="zero"):
    """Certify a cochain: cocycle? coboundary? (with an integer preimage)."""
    _check_module_for_variant(S, M, variant)
    df = coboundary(M, f, variant)
    is_cocycle = all(not any(v) for v in df.values.values())
    is_coboundary, preimage = coboundary_preimage(S, M, f, variant)
    return {
        "is_cocycle": is_cocycle,
        "is_coboundary": is_coboundary,
        "preimage": preimage,
    }


def coboundary_preimage(S, M, f, variant="zero"):
    """(True, g) with coboundary(g) = f, or (False, None).

    In degree 0 only the zero cochain is a coboundary, and it has no
    preimage cochain: the answer is then (True, None).
    """
    n = f.degree
    if n == 0:
        return (not any(any(v) for v in f.values.values()), None)
    prev, tuples = nerve(S, n - 1, variant), nerve(S, n, variant)
    d_prev = coboundary_hom(S, M, n - 1, variant, (prev, tuples))
    x = solve_mod(d_prev.matrix, _vector_on(M, f, tuples), d_prev.target.factors)
    if x is None:
        return (False, None)
    return (True, _cochain_on(M, n - 1, prev, x))


def brute_cohomology(S, M, n, variant="zero"):
    """Oracle twin: search the cocycles, enumerate the boundaries, count cosets.

    Only for finite coefficient groups and small nerves; raises
    CapExceeded when |A|^(nerve size) blows past ``BRUTE_COCHAIN_CAP``.
    """
    _check_module_for_variant(S, M, variant)
    A = M.group
    if A.order() is None:
        raise CapExceeded(f"degree-{n} cochain count (infinite coefficients)", None, BRUTE_COCHAIN_CAP)
    tuples = nerve(S, n, variant)
    total = A.order() ** len(tuples)
    if total > BRUTE_COCHAIN_CAP:
        raise CapExceeded(f"degree-{n} cochain count", total, BRUTE_COCHAIN_CAP)
    elements = A.elements()

    def all_cochains(deg):
        ts = nerve(S, deg, variant)
        for combo in product(elements, repeat=len(ts)):
            yield Cochain(deg, dict(zip(ts, combo)))

    cocycles = [tuple(sorted(f.values.items())) for f in _brute_cocycles(S, M, n, variant)]
    if n == 0:
        boundaries = {tuple(sorted(zero_cochain(S, M, n, variant).values.items()))}
    else:
        prev_total = A.order() ** len(nerve(S, n - 1, variant))
        if prev_total > BRUTE_COCHAIN_CAP:
            raise CapExceeded(f"degree-{n - 1} cochain count", prev_total, BRUTE_COCHAIN_CAP)
        boundaries = set()
        for g in all_cochains(n - 1):
            dg = coboundary(M, g, variant)
            boundaries.add(tuple(sorted(dg.values.items())))
    # quotient Z/B by brute coset bucketing
    keys = {}
    reps = []
    tuple_order = sorted(tuples)

    def add_cochains(c1, c2):
        d1, d2 = dict(c1), dict(c2)
        return tuple(sorted((t, A.add(d1[t], d2[t])) for t in tuple_order))

    for zc in cocycles:
        if zc in keys:
            continue
        cid = len(reps)
        for b in boundaries:
            keys[add_cochains(zc, b)] = cid
        reps.append(zc)

    def add(c1, c2):
        return keys[add_cochains(reps[c1], reps[c2])]

    zero_key = keys[tuple(sorted(zero_cochain(S, M, n, variant).values.items()))]
    inv = finite_invariants_from_orders(list(range(len(reps))), add, zero_key)
    return FinAbGroup(inv)


def _brute_cocycles(S, M, n, variant):
    """Every degree-n cocycle, in the order of a product scan over the nerve.

    Each coordinate of the coboundary is attached to the last nerve
    tuple it reads.  The values are filled depth-first in the order of
    A.elements(), and a coordinate is tested as soon as its last tuple
    is fixed.  Every hit is re-checked with the full ``coboundary``.
    """
    elements = M.group.elements()
    bimod = variant == "bimodule"
    tuples = nerve(S, n, variant)
    pos = {t: i for i, t in enumerate(tuples)}
    checks = [[] for _ in tuples]
    for t in nerve(S, n + 1, variant):
        faces = [t[1:], t[:-1]] + [t[:i] + (S.mul(t[i], t[i + 1]),) + t[i + 2 :] for i in range(n)]
        checks[max(pos[face] for face in faces)].append(t)
    values = {}
    out = []

    def fill(i):
        if i == len(tuples):
            f = Cochain(n, dict(values))
            bad = [t for t, v in coboundary(M, f, variant).values.items() if any(v)]
            if bad:
                raise CertificateError(bad[0], "search emitted a cochain that is not a cocycle")
            out.append(f)
            return
        for v in elements:
            values[tuples[i]] = v
            if not any(any(_coboundary_at(M, values, t, bimod)) for t in checks[i]):
                fill(i + 1)

    fill(0)
    return out
