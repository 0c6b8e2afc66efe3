"""Coefficient structures: 0-modules, two-sided ones among them, and stock constructors.

A module stores one endomorphism matrix per semigroup element in its
action domain.  For a semigroup with zero the domain of a 0-module is
the nonzero part.  A module whose domain covers the whole semigroup is
also a 0-module over S^0 = S with a fresh zero adjoined, which is how
totally defined (Eilenberg-MacLane) cochains read it.

A module may also carry a right action, ``right``, one matrix per
element of a domain that covers the left one.  It is then two-sided,
the natural system D(alpha, a, beta) = alpha m beta of Baues and
Wirsching, and every coboundary reads it in its last term.  ``right``
is None for a one-sided module.

``Violation`` is the one record of a broken law, its kind and witness:
``validate_module`` returns one for a module, and
``schur.validate_factor_set`` for a factor set.
"""

from .abgroups import FinAbGroup, IntMatrix, is_hom, same_map, subgroup
from .errors import InvalidLabeling, InvalidModule, NotIdempotent
from .semigroups import Frozen, subsemigroup


class ZeroModule(Frozen):
    """A module over ``semigroup`` on ``group``, acting by ``action`` (and ``right``)."""

    __slots__ = ("semigroup", "group", "action", "right")

    def __init__(self, semigroup, group, action, right=None):
        super().__init__(semigroup, group, action, right)

    def act(self, s, vec):
        return self.group.reduce(self.action[s].vec(list(vec)))

    def matrix(self, s):
        return self.action[s]


class Violation(Frozen):
    """The law that fails, e.g. "composition" or "cocycle", and its witness."""

    __slots__ = ("kind", "witness")

    def __eq__(self, other):
        return isinstance(other, Violation) and self._values() == other._values()


def _check_action(S, group, action, domain, opposite=False):
    """The action law on the products st != 0 of ``domain``, the action's keys.

    Each distinct matrix, and each distinct triple (action[s], action[t],
    action[st]), keyed by object identity, is checked once, at its first
    pair: a trivial module shares one matrix.
    """
    seen = set()
    for s in domain:
        if id(action[s]) not in seen:
            seen.add(id(action[s]))
            if not is_hom(group, group, action[s]):
                return Violation("endomorphism", s)
    z, inside, seen = S.zero, set(domain), set()
    for s in domain:
        for t in domain:
            st = S.table[t][s] if opposite else S.table[s][t]
            if st == z or st not in inside:
                continue
            key = (id(action[s]), id(action[t]), id(action[st]))
            if key in seen:
                continue
            seen.add(key)
            if not same_map(group, action[s].mul(action[t]), action[st]):
                return Violation("composition", (s, t))
    return None


def validate_module(M):
    """None when all module axioms hold, else a Violation witness.

    action(s)action(t) = action(st) whenever st != 0, on the stored
    action domain.  With a right action, also: it covers the left one's
    domain, its law holds against the opposite semigroup, and the two
    actions commute, checked once per distinct pair of matrices.
    """
    S = M.semigroup
    domain = sorted(M.action)
    v = _check_action(S, M.group, M.action, domain)
    if v or M.right is None:
        return v
    right_domain = sorted(M.right)
    v = _check_action(S, M.group, M.right, right_domain, opposite=True)
    if v:
        return Violation("right-" + v.kind, v.witness)
    missing = [s for s in domain if s not in M.right]
    if missing:
        return Violation("right-missing", missing[0])
    # each distinct pair of matrices, keyed as in _check_action, once
    seen = set()
    for s in domain:
        for t in right_domain:
            key = (id(M.action[s]), id(M.right[t]))
            if key in seen:
                continue
            seen.add(key)
            if not same_map(M.group, M.action[s].mul(M.right[t]), M.right[t].mul(M.action[s])):
                return Violation("compatibility", (s, t))
    return None


def ensure_valid(M):
    """M, or ``InvalidModule``."""
    v = validate_module(M)
    if v:
        raise InvalidModule(v.witness, f"module axioms violated ({v.kind})")
    return M


def trivial_module(S, group):
    """Every element acts as the identity (covers all of S, zero included)."""
    I = IntMatrix.identity(group.rank)
    return ZeroModule(S, group, {s: I for s in range(S.order)})


def trivial_bimodule(S, group):
    """The trivial module, with the identity acting on the right as well."""
    action = trivial_module(S, group).action
    return ZeroModule(S, group, action, action)


def scalar_module(S, group, scalars):
    """Element s acts by the integer scalar scalars[s]."""
    k = group.rank
    action = {s: IntMatrix.from_sparse(k, [{i: c} if c else {} for i in range(k)]) for s, c in scalars.items()}
    return ZeroModule(S, group, action)


def galois_units_module(q, n, S, labeling):
    """Unit group of the degree-n extension of GF(q) as a 0-module.

    The coefficient group is Z/(q^n - 1), written additively as
    exponents of a fixed generator; an element labeled k acts by the
    k-th Frobenius iterate, i.e. multiplication by q^k.  The labeling
    must be additive on nonzero products (mod n).
    """
    order = q**n - 1
    A = FinAbGroup([order])
    z = S.zero
    domain = S.nonzero() if S.has_zero else list(range(S.order))
    for s in domain:
        if s not in labeling:
            raise InvalidLabeling(f"element {s} unlabeled")
    for s in domain:
        for t in domain:
            st = S.table[s][t]
            if st != z and (labeling[s] + labeling[t] - labeling[st]) % n != 0:
                raise InvalidLabeling(f"labeling not additive at ({s}, {t})")
    action = {s: IntMatrix(1, 1, [[pow(q, labeling[s] % n, order)]]) for s in domain}
    return ZeroModule(S, A, action)


def corner_module(M, e, restrict_to=None):
    """The submodule e*A with actions restricted, over a subsemigroup.

    ``e`` must be idempotent; ``restrict_to`` (default: the whole action
    domain) must be closed under multiplication and satisfy
    x * eA <= eA for all its elements.  Returns the module and eA as a
    subgroup presentation of M.group (see abgroups.subgroup).  A
    two-sided M raises ``InvalidModule``.
    """
    S = M.semigroup
    if M.right is not None:
        raise InvalidModule(e, "the corner of a two-sided module is not taken")
    if S.table[e][e] != e:
        raise NotIdempotent(f"element {e} is not idempotent")
    domain = sorted(M.action) if restrict_to is None else sorted(restrict_to)
    pe = M.matrix(e)
    gens = [pe.col(j) for j in range(M.group.rank)]
    sub = subgroup(M.group, gens)
    eA = sub.group
    if restrict_to is None:
        newS = S
        mapping = {s: s for s in domain}
    else:
        newS, mapping = subsemigroup(S, domain)
    action = {}
    for s in domain:
        cols = []
        for w in sub.witnesses:
            c = sub.coords(M.act(s, w))
            if c is None:
                raise InvalidModule((s, e), "action does not preserve the corner")
            cols.append(list(c))
        action[mapping[s]] = IntMatrix.from_columns(cols, eA.rank)
    return ZeroModule(newS, eA, action), sub


def restrict_module(M, indices):
    """Module over the subsemigroup on ``indices``, same coefficient group."""
    newS, mapping = subsemigroup(M.semigroup, indices)
    action = {mapping[s]: M.matrix(s) for s in indices}
    right = None if M.right is None else {mapping[s]: M.right[s] for s in indices}
    return ZeroModule(newS, M.group, action, right)
