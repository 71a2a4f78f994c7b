"""The Smith-normal-form kernel over the integers.

Arbitrary-precision Python integers; every factorization in the library
comes from ``snf_with_transforms`` here.

Deterministic rules (part of the library contract, since canonical
solution representatives are derived from these transforms): pivots are
the smallest absolute nonzero entry of the remaining submatrix with
row-major tie-breaking, and clearing uses extended-gcd two-row (resp.
two-column) unimodular combines in index order.
"""

from __future__ import annotations

#: The kernel that runs; reported by benchmarks next to their timings.
BACKEND = "python"


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


def snf_with_transforms(mat):
    """Diagonalize an integer matrix by unimodular transformations.

    Returns ``(U, S, V, Uinv, Vinv)`` as lists of lists with
    ``U @ mat @ V == S``, ``S`` diagonal with non-negative entries in a
    divisibility chain ``S[0][0] | S[1][1] | ...``, and ``U``, ``V``
    unimodular with their exact inverses accumulated alongside.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [[int(x) for x in row] for row in mat]
    u = _identity(m)
    uinv = _identity(m)
    v = _identity(n)
    vinv = _identity(n)

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


def _identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


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
