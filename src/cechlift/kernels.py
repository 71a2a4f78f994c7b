"""The Smith-normal-form kernel over the integers.

Arbitrary-precision Python integers; every factorization in the library
comes from ``snf_with_transforms`` here.

Deterministic rules (part of the library contract, since canonical
solution representatives are derived from these transforms): pivots are
the smallest absolute nonzero entry of the remaining submatrix with
row-major tie-breaking, and clearing uses extended-gcd two-row (resp.
two-column) unimodular combines in index order.  When the cleared pivot
does not divide the rest of the submatrix, the first row (in row-major
order) holding an entry it does not divide is added to the pivot row and
the step repeats.  A negative pivot has its row negated.

A matrix is given as its number of columns and one {column: value}
dict of the nonzero entries per row, the one integer matrix form of the
library.  The elimination runs on copies of these rows (with a column ->
rows index) and keeps no transform matrix.  It records the operations
instead: a row log and a column log of adds, two-by-two combines of
determinant 1 and (rows only) negations, each of determinant +-1, on
row and column labels that never move; swaps only reorder positions,
kept as two permutations.  Both logs run in one direction: a column
operation is logged as the operation V^-1 applies to a vector, so with
U @ M @ V = S each log replayed forward maps M's labels to S's
positions (U b, V^-1 x), and replayed backward, each operation
inverted, maps positions back to labels (U^-1 z, V y).
"""

from __future__ import annotations

#: The kernel that runs; reported by benchmarks next to their timings.
BACKEND = "python"

# A log entry on labels i, j, as it acts on b in U b (row log) or on x in
# V^-1 x (column log; col_i += k * col_j is logged as x_j -= k * x_i):
#   (i,)                 negate i
#   (i, j, k)            i += k * j
#   (i, j, a, b, c, d)   (i, j) <- (a * i + b * j, c * i + d * j), ad - bc = 1


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


class Factorization:
    """U @ M @ V = S for an m x n integer matrix M, kept as its elimination log.

    ``diag`` is the nonzero diagonal of S, a divisibility chain of
    positive integers.  Rows and columns of M are labelled by their
    index in M; ``row_at[p]`` (``col_at[p]``) is the label that ends at
    position p of S, so ``len(col_at)`` is n.  Vectors indexed like the
    rows (columns) of M are in labels, vectors indexed like S in
    positions.  Each log replayed forward gives U and V^-1, and replayed
    backward, each operation inverted, U^-1 and V.  Replays take any
    numbers that add and multiply by integers, Fractions too.
    """

    __slots__ = ("diag", "row_at", "col_at", "_rows", "_cols")

    def __init__(self, diag, row_at, col_at, row_log, col_log):
        self.diag = diag
        self.row_at = row_at
        self.col_at = col_at
        self._rows = row_log
        self._cols = col_log

    @classmethod
    def identity(cls, m, n):
        """U = I_m, V = I_n and an empty diagonal: the factorization of 0."""
        return cls([], list(range(m)), list(range(n)), [], [])

    def u_times(self, b):
        """U b, for b indexed by the rows of M; indexed by positions."""
        return _forward(self._rows, self.row_at, b)

    def uinv_times(self, z):
        """U^-1 z, for z indexed by positions; indexed by the rows of M."""
        return _backward(self._rows, self.row_at, z)

    def v_times(self, y):
        """V y, for y indexed by positions; indexed by the columns of M."""
        return _backward(self._cols, self.col_at, y)

    def vinv_times(self, x):
        """V^-1 x, for x indexed by the columns of M; indexed by positions."""
        return _forward(self._cols, self.col_at, x)

    def vinv_matrix(self, rows):
        """V^-1 @ mat, for a matrix with one {column: value} row per column
        of M; its rows in positions, in the same form.

        One forward pass over the column log, each operation applied to
        whole sparse rows, so the cost follows the log and the nonzeros
        rather than the number of columns of mat.
        """
        rows = [dict(r) for r in rows]
        _replay(rows, self._cols)
        return [rows[j] for j in self.col_at]

    def is_factorization_of(self, rows):
        """Whether every logged combine has determinant 1 (adds and
        negations have +-1 by their form), so U and V are unimodular, and
        U @ M = S @ V^-1 for the M with these {column: value} rows; both
        sides are forward replays on sparse rows, of M and of I_n."""
        combines = (op for op in (*self._rows, *self._cols) if len(op) == 6)
        if any(op[2] * op[5] - op[3] * op[4] != 1 for op in combines):
            return False
        um = [dict(r) for r in rows]
        _replay(um, self._rows)
        vinv = self.vinv_matrix([{j: 1} for j in range(len(self.col_at))])
        sv = [{j: d * x for j, x in r.items()} for d, r in zip(self.diag, vinv)]
        sv += [{}] * (len(um) - len(sv))
        return [um[i] for i in self.row_at] == sv


def _forward(log, at, vec):
    """Replay a log forward on a vector in labels; the result in positions."""
    v = list(vec)
    for op in log:
        if len(op) == 3:
            i, j, k = op
            v[i] += k * v[j]
        elif len(op) == 1:
            i = op[0]
            v[i] = -v[i]
        else:
            i, j, c11, c12, c21, c22 = op
            x, y = v[i], v[j]
            v[i] = c11 * x + c12 * y
            v[j] = c21 * x + c22 * y
    return [v[i] for i in at]


def _backward(log, at, vec):
    """Replay a log backward, each operation inverted, on a vector in
    positions; the result in labels."""
    v = [0] * len(vec)
    for p, i in enumerate(at):
        v[i] = vec[p]
    for op in reversed(log):
        if len(op) == 3:
            i, j, k = op
            v[i] -= k * v[j]
        elif len(op) == 1:
            i = op[0]
            v[i] = -v[i]
        else:
            i, j, c11, c12, c21, c22 = op
            x, y = v[i], v[j]
            v[i] = c22 * x - c12 * y
            v[j] = c11 * y - c21 * x
    return v


def _add_row(ri, rj, k):
    """ri += k * rj on {column: value} dicts, dropping zeros."""
    for c, x in rj.items():
        v = ri.get(c, 0) + k * x
        if v:
            ri[c] = v
        else:
            del ri[c]


def _combine_rows(ri, rj, c11, c12, c21, c22):
    """(c11 ri + c12 rj, c21 ri + c22 rj) as new dicts, zeros dropped."""
    new_i, new_j = {}, {}
    for c in ri.keys() | rj.keys():
        x, y = ri.get(c, 0), rj.get(c, 0)
        v = c11 * x + c12 * y
        if v:
            new_i[c] = v
        v = c21 * x + c22 * y
        if v:
            new_j[c] = v
    return new_i, new_j


def _replay(rows, log):
    """Apply a log's operations, in order, to sparse rows (in place)."""
    for op in log:
        if len(op) == 3:
            _add_row(rows[op[0]], rows[op[1]], op[2])
        elif len(op) == 1:
            r = rows[op[0]]
            for c in r:
                r[c] = -r[c]
        else:
            i, j, c11, c12, c21, c22 = op
            rows[i], rows[j] = _combine_rows(rows[i], rows[j], c11, c12, c21, c22)


def snf_with_transforms(rows, ncols):
    """Diagonalize an integer matrix by logged unimodular operations.

    The matrix has ``ncols`` columns and one {column: value} dict of its
    nonzero entries per row; the rows are copied, never changed.  Returns
    the ``Factorization`` U @ mat @ V = S, S diagonal with non-negative
    entries in a divisibility chain S[0][0] | S[1][1] | ....
    """
    m, n = len(rows), ncols
    a = [dict(row) for row in rows]
    where = [set() for _ in range(n)]  # column label -> row labels with an entry
    for i, row in enumerate(a):
        for j in row:
            where[j].add(i)
    row_at, row_pos = list(range(m)), list(range(m))
    col_at, col_pos = list(range(n)), list(range(n))
    row_log, col_log, diag = [], [], []

    def put(i, j, v):
        if v:
            if j not in a[i]:
                where[j].add(i)
            a[i][j] = v
        elif j in a[i]:
            del a[i][j]
            where[j].discard(i)

    def row_add(i, j, k):
        # row_i += k * row_j
        ri = a[i]
        for c, x in a[j].items():
            put(i, c, ri.get(c, 0) + k * x)
        row_log.append((i, j, k))

    def row_combine(i, j, c11, c12, c21, c22):
        ri, rj = a[i], a[j]
        for c in ri.keys() | rj.keys():
            x, y = ri.get(c, 0), rj.get(c, 0)
            put(i, c, c11 * x + c12 * y)
            put(j, c, c21 * x + c22 * y)
        row_log.append((i, j, c11, c12, c21, c22))

    def col_add(i, j, k):
        # col_i += k * col_j
        for r in where[j]:
            put(r, i, a[r].get(i, 0) + k * a[r][j])
        col_log.append((j, i, -k))  # as V^-1 acts: x_j -= k * x_i

    def col_combine(i, j, c11, c12, c21, c22):
        for r in where[i] | where[j]:
            x, y = a[r].get(i, 0), a[r].get(j, 0)
            put(r, i, c11 * x + c12 * y)
            put(r, j, c21 * x + c22 * y)
        col_log.append((i, j, c22, -c21, -c12, c11))  # the inverse 2 x 2

    def swap(at, pos, p, q):
        at[p], at[q] = at[q], at[p]
        pos[at[p]], pos[at[q]] = p, q

    for t in range(min(m, n)):
        pivot = _pivot(a, row_at, col_pos, t)
        if pivot is None:
            break
        swap(row_at, row_pos, t, row_pos[pivot[0]])
        swap(col_at, col_pos, t, col_pos[pivot[1]])
        r, c = row_at[t], col_at[t]
        while True:
            for i in sorted(where[c] - {r}, key=row_pos.__getitem__):
                w, p = a[i][c], a[r][c]
                if w % p == 0:
                    row_add(i, r, -(w // p))
                else:
                    g, x, y = _xgcd(p, w)
                    row_combine(r, i, x, y, -(w // g), p // g)
            clean = True
            for j in sorted(a[r].keys() - {c}, key=col_pos.__getitem__):
                w, p = a[r][j], a[r][c]
                if w % p == 0:
                    col_add(j, c, -(w // p))
                else:
                    g, x, y = _xgcd(p, w)
                    col_combine(c, j, x, y, -(w // g), p // g)
                    clean = False  # gcd column combine dirties column c
            if not clean or len(where[c]) > 1:
                continue
            bad = _non_divisible_row(a, row_at, t, a[r][c])
            if bad is None:
                break
            row_add(r, bad, 1)
        if a[r][c] < 0:
            row_log.append((r,))
        diag.append(abs(a[r][c]))
    return Factorization(diag, row_at, col_at, row_log, col_log)


def _pivot(a, row_at, col_pos, t):
    """(row, column) labels of the smallest |entry| left, row-major first.

    The rows at positions >= t hold exactly the remaining submatrix,
    so the first of them with a unit entry holds the pivot.
    """
    best = None
    for p in range(t, len(row_at)):
        i = row_at[p]
        row = a[i]
        if not row:
            continue
        units = [j for j, x in row.items() if x in (1, -1)]
        if units:
            return i, min(units, key=col_pos.__getitem__)
        j = min(row, key=lambda j: (abs(row[j]), col_pos[j]))
        if best is None or abs(row[j]) < best[0]:
            best = abs(row[j]), i, j
    return None if best is None else best[1:]


def _non_divisible_row(a, row_at, t, p):
    """The first row after position t with an entry p does not divide."""
    if p in (1, -1):
        return None
    for q in range(t + 1, len(row_at)):
        i = row_at[q]
        if any(x % p for x in a[i].values()):
            return i
    return None
