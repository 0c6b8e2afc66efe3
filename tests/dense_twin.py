"""The dense Smith normal form and the solvers on it: reference twins for the tests.

``smith_normal_form`` eliminates on dense rows of its own, with tracked
unimodular transforms, independently of the sparse ``_retire`` that
the package runs; ``solve_exact``, ``kernel_columns`` and
``lattice_basis`` read their answers off it.  The tests check the
package's kernels, solves, subquotients and its core Smith form against
these.
"""

from zerocohom.abgroups import IntMatrix


def smith_normal_form(M):
    """Return (D, U, V, Uinv) with U*M*V = D in Smith normal form.

    D is diagonal with d_1 | d_2 | ..., all d_i >= 0; U, V are unimodular
    and the tracked inverse of U satisfies U*Uinv = I exactly.  The
    elimination works on dense rows of its own.
    """
    m, n = M.m, M.n

    def eye(k):
        return [[int(i == j) for j in range(k)] for i in range(k)]

    a, u, uinv, v = M.a, eye(m), eye(m), eye(n)

    def swap_rows(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:  # column swap on the inverse
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        if c == 0:
            return
        ad, asr = a[dst], a[src]
        for j in range(n):
            ad[j] += c * asr[j]
        ud, usr = u[dst], u[src]
        for j in range(m):
            ud[j] += c * usr[j]
        for r in uinv:  # inverse gets the opposite column op
            r[src] -= c * r[dst]

    def add_col(dst, src, c):
        if c == 0:
            return
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def find_pivot(t):
        piv = None
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
                    if best == 1:
                        return piv
        return piv

    t = 0
    limit = min(m, n)
    while t < limit:
        piv = find_pivot(t)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        if a[t][t] < 0:
            negate_row(t)
        # shrink the pivot: any remainder in its row or column becomes the
        # new (strictly smaller) pivot; clear exactly only once everything
        # is divisible.  Re-selecting after every promotion keeps the
        # coefficient growth tame.  A cleared pivot that does not divide
        # the trailing block takes in the row that it misses, so the next
        # promotion shrinks it further and d_t | d_{t+1} holds at the end.
        while True:
            p = a[t][t]
            promoted = False
            for i in range(t + 1, m):
                x = a[i][t]
                if x % p:
                    add_row(i, t, -(x // p))
                    swap_rows(t, i)
                    if a[t][t] < 0:
                        negate_row(t)
                    promoted = True
                    break
            if promoted:
                continue
            for j in range(t + 1, n):
                x = a[t][j]
                if x % p:
                    add_col(j, t, -(x // p))
                    swap_cols(t, j)
                    if a[t][t] < 0:
                        negate_row(t)
                    promoted = True
                    break
            if promoted:
                continue
            for i in range(t + 1, m):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // p))
            for j in range(t + 1, n):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // p))
            i = next((i for i in range(t + 1, m) if any(x % p for x in a[i][t + 1:])), None)
            if i is None:
                break
            add_row(t, i, 1)
        t += 1
    return IntMatrix(m, n, a), IntMatrix(m, m, u), IntMatrix(n, n, v), IntMatrix(m, m, uinv)


def solve_exact(M, b):
    """One integer solution of M x = b, or None, from U*M*V = D."""
    D, U, V, _ = smith_normal_form(M)
    diag = D.diagonal()
    ub = U.vec(b)
    y = [0] * V.m
    for i in range(U.m):
        d = diag[i] if i < len(diag) else 0
        if d:
            if ub[i] % d != 0:
                return None
            y[i] = ub[i] // d
        elif ub[i] != 0:
            return None
    return V.vec(y)


def kernel_columns(M):
    """Basis (list of columns) of the integer kernel lattice of M."""
    D, U, V, _ = smith_normal_form(M)
    rank = sum(1 for d in D.diagonal() if d)
    return [V.col(j) for j in range(rank, M.n)]


def lattice_basis(cols, dim):
    """Independent basis of the lattice spanned by the given columns."""
    if not cols:
        return []
    A = IntMatrix.from_columns(cols, dim)
    D, _, _, Uinv = smith_normal_form(A)
    basis = []
    for i, d in enumerate(D.diagonal()):
        if d:
            col = [d * x for x in Uinv.col(i)]
            lead = next((x for x in col if x), 0)
            if lead < 0:
                col = [-x for x in col]
            basis.append(col)
    return basis
