"""Semigroup presentations, bounded enumeration, and the gown transform.

The enumeration engine is a two-sided Todd-Coxeter style procedure: it
grows a right-Cayley graph over the free monoid on the generators,
traces every defining relation from every node, and merges nodes with a
union-find, ``_UnionFind``, until the graph is closed; ``gown_sequences``
merges its sequences with the same one.  Tracing relations from all nodes
generates exactly the two-sided congruence, because wP ~ wQ for every
prefix w and right-multiplication consistency is built into the graph.

A presentation with zero words is enumerated with an internal absorbing
generator standing for 0.  Semigroup mode runs in the monoid universe
and drops the empty-word class afterwards; relations with nonempty sides
can never merge anything into that class.
"""

import re
from collections import deque

from .errors import (
    CertificateError,
    GeneratorIsZero,
    MissingZero,
    PresentationSyntaxError,
    UnknownGenerator,
)
from .semigroups import Frozen, backtrack, validate_table


class Presentation(Frozen):
    """Generator names, relations as pairs of words, and zero words; a
    word is a tuple of generator indices.  ``has_zero`` is whether there
    are zero words."""

    __slots__ = ("generators", "relations", "zero_relations")

    def __init__(self, generators, relations, zero_relations=()):
        super().__init__(generators, relations, zero_relations)

    def __eq__(self, other):
        return isinstance(other, Presentation) and self._values() == other._values()

    @property
    def has_zero(self):
        return bool(self.zero_relations)

    def word_names(self, word):
        """The word's generator names, run together when all are single letters, else joined
        by "."; "1" for the empty word, and "0" for the index past the last generator, the
        zero that ``enumerate_presentation`` adjoins."""
        names = [self.generators[g] if g < len(self.generators) else "0" for g in word]
        return ("" if all(len(n) == 1 for n in names) else ".").join(names) or "1"


_SECTION_RE = re.compile(r"^\s*(gens|rels|zeros)\s*:\s*(.*)$", re.S)


def parse_presentation(text):
    """Parse ``gens: ... ; rels: w=w, ... ; zeros: w, ...``.

    Words are generator names separated by whitespace, or juxtaposed
    single-letter names; "1" denotes the empty word (monoid mode only).
    """
    sections = {}
    offset = 0
    for chunk in text.split(";"):
        stripped = chunk.strip()
        if stripped:
            m = _SECTION_RE.match(chunk)
            if not m:
                raise PresentationSyntaxError(
                    f"expected 'gens:', 'rels:' or 'zeros:' section, got {stripped[:30]!r}",
                    position=offset,
                )
            key, body = m.group(1), m.group(2)
            if key in sections:
                raise PresentationSyntaxError(f"duplicate section {key!r}", position=offset)
            sections[key] = (body, offset)
        offset += len(chunk) + 1
    if "gens" not in sections:
        raise PresentationSyntaxError("missing 'gens:' section", position=0)
    gen_body, gen_off = sections["gens"]
    generators = tuple(gen_body.split())
    if not generators:
        raise PresentationSyntaxError("no generators", position=gen_off)
    if len(set(generators)) != len(generators):
        raise PresentationSyntaxError("duplicate generator", position=gen_off)
    for g in generators:
        if g in ("0", "1"):
            raise PresentationSyntaxError(f"generator may not be named {g!r}", position=gen_off)
        if any(c in g for c in "=,;:."):
            raise PresentationSyntaxError(f"bad generator name {g!r}", position=gen_off)
    index = {g: i for i, g in enumerate(generators)}
    single = all(len(g) == 1 for g in generators)

    def parse_word(s, pos):
        tokens = s.split()
        if not tokens:
            raise PresentationSyntaxError("empty word", position=pos)
        out = []
        for tok in tokens:
            if tok == "1":
                continue  # empty word
            if tok in index:
                out.append(index[tok])
            elif single and all(c in index for c in tok):
                out.extend(index[c] for c in tok)
            else:
                raise UnknownGenerator(f"unknown generator in {tok!r}", position=pos)
        return tuple(out)

    relations = []
    if "rels" in sections:
        body, pos = sections["rels"]
        if body.strip():
            for item in body.split(","):
                if "=" not in item:
                    raise PresentationSyntaxError(f"relation {item.strip()!r} lacks '='", position=pos)
                lhs, rhs = item.split("=", 1)
                relations.append((parse_word(lhs, pos), parse_word(rhs, pos)))
    zero_relations = []
    if "zeros" in sections:
        body, pos = sections["zeros"]
        if body.strip():
            for item in body.split(","):
                zero_relations.append(parse_word(item, pos))
    return Presentation(generators, tuple(relations), tuple(zero_relations))


def format_presentation(P):
    parts = ["gens: " + " ".join(P.generators)]
    if P.relations:
        parts.append(
            "rels: " + ", ".join(f"{P.word_names(a)}={P.word_names(b)}" for a, b in P.relations)
        )
    if P.zero_relations:
        parts.append("zeros: " + ", ".join(P.word_names(w) for w in P.zero_relations))
    return "; ".join(parts)


class Truncated(Frozen):
    """An enumeration that stopped at a limit before it finished.

    ``limit`` names the limit that stopped it: "node budget" exactly when
    ``node_budget`` is set, the word graph having outgrown that many nodes
    before it closed, so that the element count is unknown; else "bound",
    the presented object having more than ``bound`` elements.
    ``discovered`` lists the normal forms found: for a node-budget stop
    these are the words of the graph's classes at the stop, which later
    merges could still identify.
    """

    __slots__ = ("discovered", "bound", "node_budget")

    def __init__(self, discovered, bound, node_budget=None):
        super().__init__(discovered, bound, node_budget)

    @property
    def limit(self):
        return "bound" if self.node_budget is None else "node budget"

    @property
    def found(self):
        """How many normal forms the enumeration found before it stopped."""
        return len(self.discovered)


class EnumeratedSemigroup(Frozen):
    """The enumerated semigroup, the normal-form word of each element, the
    element of each generator, and whether it was enumerated as a monoid."""

    __slots__ = ("semigroup", "words", "generator_index", "monoid")


class _Budget(Exception):
    pass


class _UnionFind:
    """The classes of 0..n-1 under ``join``, each kept under its least member."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(self, a, b):
        """Merge the classes of a and b; their roots, kept then merged, equal when already one."""
        a, b = self.find(a), self.find(b)
        if b < a:
            a, b = b, a
        self.parent[b] = a
        return a, b


class _Graph(_UnionFind):
    def __init__(self, ngens, budget):
        super().__init__(0)
        self.ngens = ngens
        self.budget = budget
        self.edges = []
        self.pending = deque()
        self.root = self.new_node()

    def new_node(self):
        if len(self.parent) >= self.budget:
            raise _Budget
        idx = len(self.parent)
        self.parent.append(idx)
        self.edges.append([None] * self.ngens)
        return idx

    def union(self, a, b):
        self.pending.append((a, b))
        self.process()

    def process(self):
        while self.pending:
            a, b = self.join(*self.pending.popleft())
            if a == b:
                continue
            # b's edges move to a
            ea, eb = self.edges[a], self.edges[b]
            for g in range(self.ngens):
                if eb[g] is not None:
                    if ea[g] is None:
                        ea[g] = eb[g]
                    else:
                        self.pending.append((ea[g], eb[g]))

    def trace(self, start, word):
        node = self.find(start)
        for g in word:
            nxt = self.edges[node][g]
            if nxt is None:
                nxt = self.new_node()
                self.edges[node][g] = nxt
            node = self.find(nxt)
        return node

    def live(self):
        return [x for x in range(len(self.parent)) if self.find(x) == x]


def enumerate_presentation(P, bound, mode="semigroup"):
    """Exact multiplication table of the presented (semi)group, if small.

    Returns an EnumeratedSemigroup when the presented object (monoid or
    semigroup, with zero if the presentation has zero words) has at most
    ``bound`` elements; otherwise a Truncated report with the partial
    set of normal forms discovered, also when the word graph outgrows
    max(2000, 60 * (bound + 2)) nodes.  Element order and normal forms
    are deterministic: length-lexicographic least representatives.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if mode not in ("semigroup", "monoid"):
        raise ValueError("mode must be 'semigroup' or 'monoid'")
    if mode == "semigroup":
        for a, b in P.relations:
            if not a or not b:
                raise PresentationSyntaxError("empty word ('1') requires monoid mode")
        if any(not w for w in P.zero_relations):
            raise PresentationSyntaxError("empty zero word requires monoid mode")
    ngens = len(P.generators)
    rels = [(tuple(a), tuple(b)) for a, b in P.relations]
    zero_gen = None
    if P.has_zero:
        zero_gen = ngens
        ngens += 1
        for w in P.zero_relations:
            rels.append((tuple(w), (zero_gen,)))
        for g in range(ngens):
            rels.append(((g, zero_gen), (zero_gen,)))
            rels.append(((zero_gen, g), (zero_gen,)))
    budget = max(2000, 60 * (bound + 2))
    graph = _Graph(ngens, budget)
    try:
        # sweep over nodes in creation order, processing nodes created
        # mid-sweep too; a full sweep without merges means the graph is
        # closed (all edges defined, all relations consistent)
        while True:
            merged_any = False
            idx = 0
            while idx < len(graph.parent):
                node = idx
                idx += 1
                if graph.find(node) != node:
                    continue
                for g in range(ngens):
                    graph.trace(node, (g,))
                for a, b in rels:
                    end_a = graph.trace(node, a)
                    end_b = graph.trace(node, b)
                    if end_a != end_b:
                        graph.union(end_a, end_b)
                        merged_any = True
            if not merged_any:
                break
    except _Budget:
        return Truncated(_partial_words(graph, P, mode), bound, budget)

    # canonical BFS order and normal forms
    rep = _walk(graph)
    order = list(rep)
    unreached = set(graph.live()) - set(order)
    if unreached:
        raise CertificateError(min(unreached), "word graph class not reached from the root")
    root_cls = graph.find(graph.root)
    if mode == "semigroup":
        elements = [x for x in order if x != root_cls]
    else:
        elements = order
    if len(elements) > bound:
        words = tuple(P.word_names(rep[x]) for x in elements)
        return Truncated(words, bound)
    pos = {x: k for k, x in enumerate(elements)}
    zero = None if zero_gen is None else graph.find(graph.trace(graph.root, (zero_gen,)))
    names = ["0" if x == zero else P.word_names(rep[x]) for x in elements]
    table = []
    for a in elements:
        row = []
        for b in elements:
            prod = graph.trace(a, rep[b])
            if mode == "semigroup" and prod == root_cls:
                raise CertificateError((rep[a], rep[b]), "product fell into the empty-word class")
            row.append(pos[prod])
        table.append(row)
    S = validate_table(names, table, None if zero is None else pos[zero])
    gen_index = tuple(pos[graph.find(graph.trace(graph.root, (g,)))] for g in range(len(P.generators)))
    return EnumeratedSemigroup(S, tuple(tuple(rep[x]) for x in elements), gen_index, mode == "monoid")


def _walk(graph):
    """{class: shortest word reaching it}, breadth-first from the root.

    Undefined edges are skipped; the dict is in the order reached.
    """
    rep = {graph.find(graph.root): ()}
    queue = deque(rep)
    while queue:
        node = queue.popleft()
        for g, t in enumerate(graph.edges[node]):
            if t is None:
                continue
            t = graph.find(t)
            if t not in rep:
                rep[t] = rep[node] + (g,)
                queue.append(t)
    return rep


def _partial_words(graph, P, mode):
    words = [w for w in _walk(graph).values() if w or mode == "monoid"]
    words.sort(key=lambda w: (len(w), w))
    return tuple(P.word_names(w) for w in words)


def word_value(E, word):
    """Value of a word (generator indices) in an enumerated semigroup."""
    S = E.semigroup
    if not word:
        if not E.monoid:
            raise ValueError("empty word needs monoid mode")
        return S.identity
    return S.mul_word(E.generator_index[g] for g in word)


def gown_presentation(P, bound=64):
    """Delete the defining relations that hold the zero in place.

    Drops the explicit zero words, and, when the presented semigroup is
    enumerable within ``bound``, also drops any relation both of whose
    sides evaluate to zero; enumeration likewise detects a generator
    equal to zero, which is an error (the transform is undefined then).
    Without a successful enumeration only the mechanical deletion
    happens (the caller asserts no generator is zero).
    """
    if not P.has_zero:
        raise MissingZero("presentation has no zero words")
    relations = P.relations
    E = enumerate_presentation(P, bound)
    if isinstance(E, EnumeratedSemigroup):
        S = E.semigroup
        for g, idx in enumerate(E.generator_index):
            if idx == S.zero:
                raise GeneratorIsZero(P.generators[g])
        kept = []
        for a, b in relations:
            if word_value(E, a) == S.zero and word_value(E, b) == S.zero:
                continue
            kept.append((a, b))
        relations = tuple(kept)
    return Presentation(P.generators, tuple(relations))


# ---------------------------------------------------------------------------
# zero-chained sequences and their merge classes (the gown, seen from S)


class GownClasses(Frozen):
    """The merge classes (frozensets of index sequences) of the zero-chained
    sequences of ``semigroup`` up to ``length_bound``, and each sequence's class."""

    __slots__ = ("semigroup", "length_bound", "classes", "class_of")

    def singleton_class(self, x):
        return self.class_of[(x,)]

    def multiply(self, c1, c2):
        """Class of the product, or None when it leaves the length bound.

        All representative pairs must agree; disagreement would mean the
        merge relation is not respected and raises CertificateError.
        """
        results = set()
        S = self.semigroup
        for s in self.classes[c1]:
            for t in self.classes[c2]:
                p = S.mul(s[-1], t[0])
                if p != S.zero:
                    seq = s[:-1] + (p,) + t[1:]
                else:
                    seq = s + t
                if len(seq) <= self.length_bound and seq in self.class_of:
                    results.add(self.class_of[seq])
        if not results:
            return None
        if len(results) > 1:
            raise CertificateError((c1, c2, sorted(results)), "product not constant on merge classes")
        return next(iter(results))


def _sequences_up_to(S, bound):
    """Zero-chained sequences of length <= bound, shortest first, each length lexicographic.

    Each length is one ``backtrack`` over the nonzero elements that
    keeps a prefix while its last two entries multiply to zero.
    """
    z = S.zero
    chained = lambda s: len(s) == 1 or S.mul(s[-2], s[-1]) == z
    return [tuple(s) for m in range(1, bound + 1) for s in backtrack([S.nonzero()] * m, chained)]


def gown_sequences(S, length_bound):
    """Zero-chained sequences of length <= bound, merged and multiplied.

    Sequences (x_1, ..., x_m) have nonzero entries and consecutive
    products zero.  Two merge moves generate the equivalence, both
    restricted to sequences inside the bound:

    1) same length: x_i = y_i * u and y_{i+1} = u * x_{i+1} for some u,
       all other entries equal;
    2) length drop at an interior position p: x_p = u * v with
       y_{p-1} = x_{p-1} * u and y_p = v * x_{p+1}.
    """
    if length_bound < 1:
        raise ValueError("length bound must be >= 1")
    if not S.has_zero:
        raise MissingZero("gown sequences need a zero")
    z = S.zero
    seqs = _sequences_up_to(S, length_bound)
    index = {s: k for k, s in enumerate(seqs)}
    merged = _UnionFind(len(seqs))
    nonzero = S.nonzero()
    for s in seqs:
        m = len(s)
        # move 1: rewrite across one adjacent pair
        for i in range(m - 1):
            for u in range(S.order):
                for yi in nonzero:
                    if S.mul(yi, u) != s[i]:
                        continue
                    ynext = S.mul(u, s[i + 1])
                    if ynext == z:
                        continue
                    t = s[:i] + (yi, ynext) + s[i + 2 :]
                    if t in index:
                        merged.join(index[s], index[t])
        # move 2: contract an interior factorization
        for p in range(1, m - 1):
            for u in nonzero:
                for v in nonzero:
                    if S.mul(u, v) != s[p]:
                        continue
                    yprev = S.mul(s[p - 1], u)
                    ynext = S.mul(v, s[p + 1])
                    if yprev == z or ynext == z:
                        continue
                    t = s[: p - 1] + (yprev, ynext) + s[p + 2 :]
                    if t in index:
                        merged.join(index[s], index[t])

    groups = {}
    for k, s in enumerate(seqs):
        groups.setdefault(merged.find(k), []).append(s)
    classes = [frozenset(v) for _, v in sorted(groups.items(), key=lambda kv: min(kv[1]))]
    classes.sort(key=lambda c: (min(len(s) for s in c), sorted(c)))
    class_of = {}
    for cid, c in enumerate(classes):
        for s in c:
            class_of[s] = cid
    return GownClasses(S, length_bound, tuple(classes), class_of)
