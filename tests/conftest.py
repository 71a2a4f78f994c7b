"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's Smith-normal-form
machinery: diagonal invariant factors are recomputed by a separate
first-nonzero-pivot reduction without transform tracking, and the small
cases are additionally cross-checked against determinantal divisors.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import pytest

from cechlift import abelian, fixtures
from cechlift.complexes import (
    Cover,
    SimplicialComplex,
    downward_closure,
    nerve,
    validate_complex,
)
from cechlift.tower import CentralExtension, FiniteGroup, split_extension
from snf_oracle import dense


# ---------------------------------------------------------------------------
# independent linear-algebra oracles
# ---------------------------------------------------------------------------

def dense_coboundary(k, p):
    """coboundary_matrix(p) of the complex k as a list of lists."""
    return dense(k.coboundary_matrix(p), len(k.simplices_of_dim(p)))


def oracle_invariant_factors(mat):
    """Invariant factors by plain gcd reduction, no transforms.

    First-nonzero pivoting and naive Euclid dances instead of the
    library's minimal-pivot extended-gcd kernel, so the code path
    shares nothing with cechlift.kernels beyond arithmetic.
    """
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    out = []
    t = 0
    while t < min(m, n):
        piv = next(
            ((i, j) for i in range(t, m) for j in range(t, n) if a[i][j]), None
        )
        if piv is None:
            break
        a[t], a[piv[0]] = a[piv[0]], a[t]
        for row in a:
            row[t], row[piv[1]] = row[piv[1]], row[t]
        while True:
            for i in range(t + 1, m):
                while a[i][t] % a[t][t]:
                    # one Euclid step: remainder lands in row i, then the
                    # strictly smaller pivot is swapped up
                    q = a[i][t] // a[t][t]
                    for c in range(n):
                        a[i][c] -= q * a[t][c]
                    a[t], a[i] = a[i], a[t]
                q = a[i][t] // a[t][t]
                if q:
                    for c in range(n):
                        a[i][c] -= q * a[t][c]
            for j in range(t + 1, n):
                while a[t][j] % a[t][t]:
                    q = a[t][j] // a[t][t]
                    for r in range(m):
                        a[r][j] -= q * a[r][t]
                    for r in range(m):
                        a[r][t], a[r][j] = a[r][j], a[r][t]
                q = a[t][j] // a[t][t]
                if q:
                    for r in range(m):
                        a[r][j] -= q * a[r][t]
            if any(a[i][t] for i in range(t + 1, m)):
                continue
            # a unit pivot divides every entry: nothing to scan
            bad = None if a[t][t] in (1, -1) else next(
                (
                    (i, j)
                    for i in range(t + 1, m)
                    for j in range(t + 1, n)
                    if a[i][j] % a[t][t]
                ),
                None,
            )
            if bad is None:
                break
            for c in range(n):
                a[t][c] += a[bad[0]][c]
        out.append(abs(a[t][t]))
        t += 1
    return out


def oracle_determinantal_divisors(mat):
    """Invariant factors d_k = D_k / D_{k-1} from gcds of k x k minors.

    Exponential; only for tiny matrices, as the strongest independent
    cross-check.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0

    def minor_det(rows, cols):
        k = len(rows)
        sub = [[mat[r][c] for c in cols] for r in rows]
        if k == 1:
            return sub[0][0]
        total = 0
        for perm in itertools.permutations(range(k)):
            sign = 1
            seen = list(perm)
            for i in range(k):
                for j in range(i + 1, k):
                    if seen[i] > seen[j]:
                        sign = -sign
            prod = 1
            for i in range(k):
                prod *= sub[i][perm[i]]
            total += sign * prod
        return total

    divisors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                g = gcd(g, minor_det(rows, cols))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def oracle_augmented_solve(rows, ncols, b, m):
    """x with M x = b mod m, or None, from the augmented system [M | m*I].

    M has ``ncols`` columns and the given {column: value} rows.  Solves
    over Z for (x, k) with M x + m k = b and keeps x: the route the
    library took before Z/m was solved on the Smith diagonal.
    """
    aug = [{**row, ncols + i: m} for i, row in enumerate(rows)]
    sol = abelian.solve(aug, b, "Z", ncols + len(rows))
    return None if sol is None else sol[:ncols]


def oracle_fraction_back_substitute(rows, ncols, b, ring):
    """x with M x = b over "Q" or "Q/Z" (mod 1), or None, in Fractions.

    M has ``ncols`` columns and the given {column: value} rows.
    Back-substitutes through the library's factorization U M V = S with
    every product taken on Fractions: t = U b must vanish past the rank
    (be integral over Q/Z), y_j = t_j / s_j with free coordinates zero,
    and x = V y, reduced mod 1 over Q/Z.  This is how the library solved
    over Q and Q/Z before it cleared denominators once.
    """
    fac = abelian.factor(rows, ncols)
    t = fac.u_times([Fraction(bi) for bi in b])
    r = len(fac.diag)
    if any(tj.denominator != 1 if ring == "Q/Z" else tj for tj in t[r:]):
        return None
    y = [tj / sj for tj, sj in zip(t, fac.diag)] + [Fraction(0)] * (len(fac.col_at) - r)
    x = fac.v_times(y)
    return [xi % 1 for xi in x] if ring == "Q/Z" else x


def oracle_cohomology_group_Z(d_prev, d_next, dim):
    """H = ker(d_next)/im(d_prev) over Z from the reduction oracle.

    Free rank is dim - rank(d_next) - rank(d_prev); the torsion of H is
    the torsion of coker(d_prev) (torsion elements are automatically
    cocycles), i.e. the invariant factors of d_prev exceeding 1.
    """
    f_next = [d for d in oracle_invariant_factors(d_next) if d]
    f_prev = [d for d in oracle_invariant_factors(d_prev) if d]
    tors = [d for d in f_prev if d > 1]
    free = dim - len(f_next) - len(f_prev)
    return abelian.canonical_presentation(tors + [0] * free).group


def oracle_cohomology_order_mod(d_prev, d_next, modulus, dim):
    """|ker/im| over Z/m via |ker| * |im| = m^dim and invariant factors."""

    def image_size(mat):
        size = 1
        for d in oracle_invariant_factors(mat):
            size *= modulus // gcd(modulus, d)
        return size

    ker_size = modulus ** dim // image_size(d_next)
    im_prev = image_size(d_prev)
    assert ker_size % im_prev == 0
    return ker_size // im_prev


def connected_component_count(k):
    """The number of connected components of the complex k, by union-find."""
    verts = [s[0] for s in k.simplices_of_dim(0)]
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in k.simplices_of_dim(1):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in verts})


def oracle_goodness_failures(cover, nerve_, max_degree=None):
    """The failures of verify_good_cover, from components and invariant factors.

    Every intersection is checked, collapsible or not, with
    ``oracle_invariant_factors`` in place of the Smith kernel.
    """
    from cechlift.abelian import FgAbelianGroup

    if max_degree is None:
        max_degree = cover.base.dim + 1
    failures = []
    for s in sorted(nerve_.simplices):
        w = nerve_.intersection_of[s]
        comps = connected_component_count(w)
        if comps != 1:
            failures.append((s, 0, FgAbelianGroup((0,) * (comps - 1))))
        diags = [oracle_invariant_factors(dense_coboundary(w, q)) for q in range(max_degree + 1)]
        for q in range(1, max_degree + 1):
            free = len(w.simplices_of_dim(q)) - len(diags[q]) - len(diags[q - 1])
            h = FgAbelianGroup([d for d in diags[q - 1] if d > 1] + [0] * free)
            if not h.is_trivial():
                failures.append((s, q, h))
    return tuple(failures)


# ---------------------------------------------------------------------------
# the dunce hat
# ---------------------------------------------------------------------------

#: A triangle with boundary word a a a^-1, each side subdivided in three
#: (corners and side points labelled 0, 1, 2) and five interior vertices
#: 3..7: 8 vertices, 24 edges, 17 triangles.  Every edge lies on two or
#: three triangles, so no face is free, yet the complex is contractible.
DUNCE_HAT_TRIANGLES = (
    (0, 1, 3), (1, 2, 3), (0, 2, 4), (0, 1, 4), (1, 2, 5), (0, 2, 5),
    (0, 2, 6), (1, 2, 6), (0, 1, 7), (2, 3, 4), (1, 4, 5), (0, 5, 6),
    (1, 6, 7), (0, 3, 7), (3, 4, 5), (3, 5, 6), (3, 6, 7),
)


def dunce_hat():
    return validate_complex(DUNCE_HAT_TRIANGLES, vertex_count=8)


# ---------------------------------------------------------------------------
# random generators (seeded by each test)
# ---------------------------------------------------------------------------

def random_complex(rng, max_vertices=7, max_cells=6, max_dim=3):
    n = rng.randint(2, max_vertices)
    cells = []
    for _ in range(rng.randint(1, max_cells)):
        size = rng.randint(1, min(max_dim + 1, n))
        cells.append(tuple(sorted(rng.sample(range(n), size))))
    return validate_complex(cells, vertex_count=n)


def random_cover(rng, k):
    """A random cover: random closed pieces plus a mop-up piece."""
    simps = sorted(k.simplices)
    pieces = []
    covered = set()
    for _ in range(rng.randint(1, 4)):
        chosen = [s for s in simps if rng.random() < 0.5]
        if not chosen:
            chosen = [rng.choice(simps)]
        closed = downward_closure(chosen)
        pieces.append(SimplicialComplex(k.vertex_count, closed))
        covered |= closed
    rest = set(simps) - covered
    if rest:
        pieces.append(SimplicialComplex(k.vertex_count, downward_closure(rest)))
    return Cover(k, tuple(pieces))


def random_fg_group(rng, max_modulus=6, max_rank=2):
    moduli = []
    m = rng.randint(2, max_modulus)
    moduli.append(m)
    if max_rank > 1 and rng.random() < 0.4:
        moduli.append(m * rng.randint(1, max(1, max_modulus // m)))
    if rng.random() < 0.3:
        moduli.append(0)
    return abelian.canonical_presentation(moduli).group


def random_cochain(rng, carrier, group, degree):
    from cechlift.cochains import Cochain

    values = {}
    for s in carrier.simplices_of_dim(degree):
        if rng.random() < 0.7:
            if isinstance(group, abelian.CircleGroup):
                from fractions import Fraction

                values[s] = abelian.CircleElement(
                    Fraction(rng.randint(0, 7), rng.randint(1, 8))
                )
            else:
                values[s] = abelian.GroupElement(
                    group, tuple(rng.randint(-6, 6) for _ in group.moduli)
                )
    return Cochain(carrier, degree, group, values)


def klein_four():
    return FiniteGroup(
        tuple(tuple(a ^ b for b in range(4)) for a in range(4)), 0
    )


def noncommutative_derived_extensions():
    """Two extensions whose derived quotient at level 1 is not commutative.

    The first is the product Z/2 x (Z/2 + Z/2); the second extends its
    total by Z/2 with the factor set h_1 k_2 on the kernel coordinates h
    and k of the two factors, a bilinear cocycle.  The elements of the
    second total over the identity of the base Z/2 form the dihedral
    group of order 8.
    """
    z2 = abelian.FgAbelianGroup((2,))
    first = split_extension(FiniteGroup.cyclic(2), abelian.FgAbelianGroup((2, 2)))
    h = {
        first.with_kernel_offset(a, k): k.coords
        for a in range(2)
        for k in first.kernel.elements()
    }
    n = first.total.order
    fs = [[z2.element((h[t][0] * h[u][1],)) for u in range(n)] for t in range(n)]
    return first, CentralExtension(first.total, z2, fs)


def symmetric_group_3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    table = tuple(
        tuple(index[compose(p, q)] for q in perms) for p in perms
    )
    return FiniteGroup(table)


def random_finite_group(rng, max_order=6):
    choices = [FiniteGroup.cyclic(m) for m in range(2, max_order + 1)]
    choices.append(klein_four())
    if max_order >= 6:
        choices.append(symmetric_group_3())
    return rng.choice(choices)


def random_kernel(rng, max_order=4):
    options = [(2,), (3,), (4,), (2, 2)]
    options = [mod for mod in options if _order(mod) <= max_order]
    return abelian.FgAbelianGroup(rng.choice(options))


def _order(moduli):
    n = 1
    for m in moduli:
        n *= m
    return n


def random_factor_set(rng, group, kernel):
    """A random normalized 2-cocycle: coboundary plus an optional carry."""
    n = group.order
    beta = [kernel.zero()] * n
    for a in range(n):
        if a != group.identity:
            beta[a] = abelian.GroupElement(
                kernel, tuple(rng.randrange(m) for m in kernel.moduli)
            )
    fs = [
        [beta[a] + beta[b] - beta[group.mul(a, b)] for b in range(n)]
        for a in range(n)
    ]
    if rng.random() < 0.6 and group.table == FiniteGroup.cyclic(n).table:
        t = abelian.GroupElement(
            kernel, tuple(rng.randrange(m) for m in kernel.moduli)
        )
        for a in range(n):
            for b in range(n):
                if a + b >= n:
                    fs[a][b] = fs[a][b] + t
    return tuple(tuple(row) for row in fs)


def random_extension(rng, max_base=6, max_kernel=4):
    base = random_finite_group(rng, max_base)
    kernel = random_kernel(rng, max_kernel)
    return CentralExtension(base, kernel, random_factor_set(rng, base, kernel))


def coboundary_transitions(rng, nerve_, group):
    """Transitions of a trivializable bundle: g_ij = h_i^{-1} h_j."""
    from cechlift.tower import TransitionCocycle

    npieces = len(nerve_.cover.pieces)
    h = [rng.randrange(group.order) for _ in range(npieces)]
    g = {}
    for (i, j) in nerve_.simplices_of_dim(1):
        g[(i, j)] = group.mul(group.inv(h[i]), h[j])
    return TransitionCocycle(nerve_, group, g)


def free_circle_transitions(rng, nerve_, group):
    """Arbitrary transitions; valid on nerves without 2-simplices."""
    from cechlift.tower import TransitionCocycle

    assert not nerve_.simplices_of_dim(2)
    g = {e: rng.randrange(group.order) for e in nerve_.simplices_of_dim(1)}
    return TransitionCocycle(nerve_, group, g)


# ---------------------------------------------------------------------------
# shared expensive fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def hexagon():
    return fixtures.hexagon()


@pytest.fixture(scope="session")
def circle_cover(hexagon):
    return fixtures.three_arc_cover(hexagon)


@pytest.fixture(scope="session")
def circle_nerve(circle_cover):
    return nerve(circle_cover)


@pytest.fixture(scope="session")
def rp2():
    return fixtures.rp2_minimal()


@pytest.fixture(scope="session")
def rp2_cover_nerve():
    return fixtures.rp2_good_cover()


@pytest.fixture(scope="session")
def torus_cover():
    return fixtures.torus_product()


@pytest.fixture(scope="session")
def torus_nerve(torus_cover):
    _, cov = torus_cover
    return nerve(cov)


@pytest.fixture(scope="session")
def bd3():
    return fixtures.boundary_delta3()
