"""The dense Smith kernel, kept as the oracle for the logged sparse one.

``snf_with_transforms`` here eliminates on dense lists of lists and
accumulates U, S, V, U^-1 and V^-1 as matrices, with the pivot, combine
and repair rules of ``cechlift.kernels``; the library kernel must give
the same five matrices bit for bit.  ``mat_mul``, ``det_int``,
``identity_matrix`` and ``transpose`` are the dense helpers the tests
check products with.  The library takes a matrix as {column: value}
rows and a column count: ``dense`` turns that form into a list of
lists, ``sparse`` a list of lists into rows, and ``smith_normal_form``
gives the dense U, S and V of the library's factorization.
"""

from __future__ import annotations

from cechlift import abelian


def dense(rows, ncols):
    """The list of lists of a matrix given as {column: value} rows."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def sparse(mat):
    """The {column: value} rows of the nonzero entries of a list of lists."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a:
        return []
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = []
    for row in a:
        out.append([sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)])
    return out


def transpose(a, ncols=None):
    rows = len(a)
    if ncols is None:
        ncols = len(a[0]) if rows else 0
    return [[a[i][j] for i in range(rows)] for j in range(ncols)]


def det_int(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def materialize(fac, m, n):
    """(U, S, V, U^-1, V^-1) of a factorization of an m x n matrix, as
    lists of lists built by replaying its logs on unit vectors."""

    def columns(apply, size):
        return transpose([apply([int(i == j) for i in range(size)]) for j in range(size)], size)

    s = [[0] * n for _ in range(m)]
    for i, d in enumerate(fac.diag):
        s[i][i] = d
    return (
        columns(fac.u_times, m),
        s,
        columns(fac.v_times, n),
        columns(fac.uinv_times, m),
        columns(fac.vinv_times, n),
    )


def smith_normal_form(rows, ncols):
    """(U, S, V) with U @ mat @ V = S, as lists of lists, from the library's
    factorization of the matrix with these {column: value} rows."""
    return materialize(abelian.factor(rows, ncols), len(rows), ncols)[:3]


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a,b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def snf_with_transforms(mat, n):
    """Diagonalize an m x n integer matrix by unimodular transformations.

    Returns ``(U, S, V, Uinv, Vinv)`` as lists of lists with
    ``U @ mat @ V == S``, ``S`` diagonal with non-negative entries in a
    divisibility chain ``S[0][0] | S[1][1] | ...``, and ``U``, ``V``
    unimodular with their exact inverses accumulated alongside.
    """
    m = len(mat)
    a = [[int(x) for x in row] for row in mat]
    u = identity_matrix(m)
    uinv = identity_matrix(m)
    v = identity_matrix(n)
    vinv = identity_matrix(n)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_add(i, j, k):
        # row_i += k * row_j
        ai, aj = a[i], a[j]
        for c in range(n):
            ai[c] += k * aj[c]
        ui, uj = u[i], u[j]
        for c in range(m):
            ui[c] += k * uj[c]
        for r in uinv:
            r[j] -= k * r[i]

    def col_add(i, j, k):
        # col_i += k * col_j
        for r in a:
            r[i] += k * r[j]
        for r in v:
            r[i] += k * r[j]
        vi, vj = vinv[i], vinv[j]
        for c in range(n):
            vj[c] -= k * vi[c]

    def row_combine(i, j, c11, c12, c21, c22):
        # (row_i, row_j) <- (c11*row_i + c12*row_j, c21*row_i + c22*row_j),
        # where the 2x2 block has determinant 1.
        for mat_ in (a, u):
            ri, rj = mat_[i], mat_[j]
            for c in range(len(ri)):
                x, y = ri[c], rj[c]
                ri[c] = c11 * x + c12 * y
                rj[c] = c21 * x + c22 * y
        for r in uinv:
            x, y = r[i], r[j]
            r[i] = c22 * x - c21 * y
            r[j] = -c12 * x + c11 * y

    def col_combine(i, j, c11, c12, c21, c22):
        # (col_i, col_j) <- (c11*col_i + c12*col_j, c21*col_i + c22*col_j)
        for mat_ in (a, v):
            for r in mat_:
                x, y = r[i], r[j]
                r[i] = c11 * x + c12 * y
                r[j] = c21 * x + c22 * y
        ri, rj = vinv[i], vinv[j]
        for c in range(n):
            x, y = ri[c], rj[c]
            ri[c] = c22 * x - c21 * y
            rj[c] = -c12 * x + c11 * y

    t = 0
    while t < min(m, n):
        pivot = _min_abs_position(a, t, m, n)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)

        while True:
            for i in range(t + 1, m):
                w = a[i][t]
                if w == 0:
                    continue
                p = a[t][t]
                if w % p == 0:
                    row_add(i, t, -(w // p))
                else:
                    g, x, y = _xgcd(p, w)
                    row_combine(t, i, x, y, -(w // g), p // g)
            clean = True
            for j in range(t + 1, n):
                w = a[t][j]
                if w == 0:
                    continue
                p = a[t][t]
                if w % p == 0:
                    col_add(j, t, -(w // p))
                else:
                    g, x, y = _xgcd(p, w)
                    col_combine(t, j, x, y, -(w // g), p // g)
                    clean = False  # gcd column combine dirties column t
            if not clean or any(a[i][t] for i in range(t + 1, m)):
                continue
            bad = _non_divisible_position(a, t, m, n)
            if bad is None:
                break
            row_add(t, bad[0], 1)

        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
            for r in uinv:
                r[t] = -r[t]
        t += 1

    return u, a, v, uinv, vinv


def _min_abs_position(a, t, m, n):
    best = None
    best_val = None
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            x = row[j]
            if x == 0:
                continue
            if x < 0:
                x = -x
            if best_val is None or x < best_val:
                best, best_val = (i, j), x
                if x == 1:
                    return best
    return best


def _non_divisible_position(a, t, m, n):
    p = a[t][t]
    if p in (1, -1):
        return None
    for i in range(t + 1, m):
        row = a[i]
        for j in range(t + 1, n):
            if row[j] % p != 0:
                return i, j
    return None
