"""Small stock semigroups and groups used by tests and the CLI."""

from itertools import permutations, product

from .semigroups import adjoin, backtrack, isomorphism_classes, rees_matrix_semigroup, subsemigroup, validate_table


def cyclic_group(n):
    names = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_table(names, table)


def direct_product(G, H):
    pairs = list(product(range(G.order), range(H.order)))
    pos = {p: k for k, p in enumerate(pairs)}
    names = [f"{G.elements[a]}|{H.elements[b]}" for a, b in pairs]
    table = [
        [pos[(G.table[a][c], H.table[b][d])] for c, d in pairs]
        for a, b in pairs
    ]
    return validate_table(names, table)


def klein_four():
    return direct_product(cyclic_group(2), cyclic_group(2))


def symmetric_group_3():
    perms = sorted(permutations(range(3)))
    pos = {p: k for k, p in enumerate(perms)}
    # composition p*q = apply q first, then p
    table = [[pos[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    names = ["".join(str(x) for x in p) for p in perms]
    return validate_table(names, table)


def elementary_abelian_8():
    """(Z/2)^3 with elements named by products of the generators a, b, c."""
    trips = list(product(range(2), repeat=3))
    pos = {t: k for k, t in enumerate(trips)}

    def name(t):
        s = "".join(g for g, bit in zip("abc", t) if bit)
        return s or "1"

    table = [
        [pos[tuple((x + y) % 2 for x, y in zip(s, t))] for t in trips]
        for s in trips
    ]
    return validate_table([name(t) for t in trips], table)


def groups_of_order_up_to(n):
    out = [cyclic_group(k) for k in range(1, n + 1)]
    if n >= 4:
        out.append(klein_four())
    if n >= 6:
        out.append(symmetric_group_3())
    return [G for G in out if G.order <= n]


def null_semigroup(k):
    """k nonzero generators, every product equal to 0."""
    names = [f"a{i}" for i in range(k)] + ["0"]
    table = [[k] * (k + 1) for _ in range(k + 1)]
    return validate_table(names, table, k)


def nil_square_semigroup():
    """The commutative 4-element semigroup u, v, w, 0 with
    u*u = v*v = u*v = w and all products involving w equal to 0."""
    names = ["u", "v", "w", "0"]
    u, v, w, z = 0, 1, 2, 3
    table = [[z] * 4 for _ in range(4)]
    table[u][u] = table[u][v] = table[v][u] = table[v][v] = w
    return validate_table(names, table, z)


def mitchell_quotient():
    """Six elements a, b, c, d, ab, 0 with a*b = c*d = ab, all else 0."""
    names = ["a", "b", "c", "d", "ab", "0"]
    z = 5
    table = [[z] * 6 for _ in range(6)]
    table[0][1] = 4
    table[2][3] = 4
    return validate_table(names, table, z)


def brandt_b2():
    """2x2 matrix-unit semigroup with zero (Brandt semigroup of order 5)."""
    triv = cyclic_group(1)
    P = [[0, None], [None, 0]]
    return rees_matrix_semigroup(triv, 2, 2, P)


def completely_simple(D, rows, cols, sandwich=None):
    """Rees matrix semigroup over a group without zero: the nonzero part of
    ``rees_matrix_semigroup``, so every sandwich entry must be nonzero."""
    if sandwich is None:
        sandwich = [[D.identity] * rows for _ in range(cols)]
    M = rees_matrix_semigroup(D, rows, cols, sandwich)
    return subsemigroup(M, M.nonzero())[0]


def two_chain_monoid():
    """Semilattice {1, e} with e*e = e."""
    return validate_table(["1", "e"], [[0, 1], [1, 1]])


def right_zero_with_identity(k=2):
    """Identity adjoined to a k-element right-zero semigroup."""
    names = [f"r{i}" for i in range(k)]
    table = [[j for j in range(k)] for _ in range(k)]
    return adjoin(validate_table(names, table), "identity")


def monoids_of_order(n):
    """All monoids of order n up to isomorphism, identity listed first.

    Generated by a ``backtrack`` over the table cells with incremental
    associativity pruning; ``isomorphism_classes`` keeps a table unless
    it is isomorphic to one kept before it.  The tables come in
    lexicographic order and every relabeling that fixes the identity of
    a table is one, so the table kept for each class is its least.
    """
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def table_of(values):
        # the identity row and column, then the cells filled so far
        table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
        for (i, j), v in zip(cells, values):
            table[i][j] = v
        return table

    def assoc_ok(values):
        # check all triples whose products are already defined
        table = table_of(values)
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                if ab is None:
                    continue
                for c in range(n):
                    bc = table[b][c]
                    if bc is None:
                        continue
                    left = table[ab][c]
                    right = table[a][bc]
                    if left is not None and right is not None and left != right:
                        return False
        return True

    names = ["1"] + [f"m{i}" for i in range(1, n)]
    tables = backtrack([range(n)] * len(cells), assoc_ok)
    return list(isomorphism_classes(validate_table(names, table_of(values)) for values in tables))


def monoid_catalogue(max_order=4):
    """All monoids up to order 3, plus hand-picked order-4 monoids."""
    cat = []
    for n in range(1, min(3, max_order) + 1):
        cat.extend(monoids_of_order(n))
    if max_order >= 4:
        cat.append(cyclic_group(4))
        cat.append(klein_four())
        # chain semilattice 1 > e > f > g
        cat.append(
            validate_table(
                ["1", "e", "f", "g"],
                [[0, 1, 2, 3], [1, 1, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]],
            )
        )
        # cyclic monoid a^4 = a^3
        cat.append(
            validate_table(
                ["1", "a", "a2", "a3"],
                [[0, 1, 2, 3], [1, 2, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3]],
            )
        )
        cat.append(right_zero_with_identity(3))
        # Z/2 x {1, e} semilattice of groups
        cat.append(direct_product(cyclic_group(2), two_chain_monoid()))
    return cat


NAMED_GROUPS = {
    "Z1": lambda: cyclic_group(1),
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "Z5": lambda: cyclic_group(5),
    "Z6": lambda: cyclic_group(6),
    "V4": klein_four,
    "S3": symmetric_group_3,
    "Z2^3": elementary_abelian_8,
}


def named_group(name):
    try:
        return NAMED_GROUPS[name]()
    except KeyError:
        raise ValueError(f"unknown group name {name!r}; known: {sorted(NAMED_GROUPS)}") from None
