"""lift-descent: the geometric pipeline on many small, distinct covers.

Covers: seeded product covers of k-arc covers of the 2k-cycle (k = 3..6;
k = 3 is the shape of the shipped torus fixture), the RP^2 dual-block
cover, and seeded k-arc covers of n-cycles.  Jobs per cover: nerve and
goodness; Giraud obstruction, lift and tower obstructions of seeded Z/2
transitions; descent of seeded circle cocycles t*x (+ t*x cup y on
tori) plus a coboundary; curvature and characteristic form of the
package made non-flat by a seeded global rational 1-form a; holonomy
with the default and shuffled solver choices, and on the non-flat
package.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle
from common import Job, job_rng

TORUS_KS = (3, 4, 5, 6)
TOWER_LEVELS_ON_TORUS = 3  # only k = 3: a level costs two nerve cohomologies
CIRCLES = ((6, 3), (7, 3), (8, 4), (9, 3), (10, 5), (12, 4), (12, 6), (15, 5))


class Cover:
    """A seeded cover with everything its jobs share, built at set-up.

    ``loop`` and ``surface`` are cycles for holonomy, each a triple
    (canonical simplex -> coefficient, library Chain, supporting
    subcomplex); ``x`` and ``y`` are integral 1-cocycles on the nerve
    generating the classes the transitions and cocycles are built from.
    """

    def __init__(self, lib, name, cover, expected_nerve, loop=None, x=None):
        self.name = name
        self.cover = cover
        self.nerve = lib.complexes.nerve(cover)
        self.expected_nerve = expected_nerve
        self.loop = loop
        self.x = x
        self.y = None
        self.surface = None


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _circle(lib, rng, n, cuts):
    """(cover of a relabelled n-cycle by arcs between cut positions, cycle).

    ``cycle`` maps canonical edges to +-1 along the traversal order.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [tuple(sorted((perm[i], perm[(i + 1) % n]))) for i in range(n)]
    cycle = {e: (1 if perm[i] < perm[(i + 1) % n] else -1) for i, e in enumerate(edges)}
    base = lib.complexes.validate_complex(edges, vertex_count=n)
    arcs = []
    for a, start in enumerate(cuts):
        stop = cuts[(a + 1) % len(cuts)] + (n if a == len(cuts) - 1 else 0)
        arcs.append(lib.complexes.validate_complex(
            [edges[i % n] for i in range(start, stop)], vertex_count=n))
    return lib.complexes.Cover(base, tuple(arcs)), cycle


def _circle_generator(k):
    """Integral 1-cocycle on the k-arc nerve generating H^1 (k >= 3)."""
    return {(0, k - 1): -1}


def _pullback(nerve_simplices, k, component, gen):
    """Pull a circle-nerve 1-cochain back to the product-cover nerve."""
    out = {}
    for p1, p2 in nerve_simplices:
        i1, i2 = divmod(p1, k)[component], divmod(p2, k)[component]
        if i1 < i2 and (i1, i2) in gen:
            out[(p1, p2)] = gen[(i1, i2)]
        elif i1 > i2 and (i2, i1) in gen:
            out[(p1, p2)] = -gen[(i2, i1)]
    return out


def _subcomplex(lib, base, chain):
    cx = lib.complexes
    return cx.SimplicialComplex(base.vertex_count, cx.downward_closure(chain))


def _torus_cover(lib, seed, k):
    rng = job_rng(seed, "torus", k)
    n = 2 * k
    rot_a, rot_b = rng.randrange(2), rng.randrange(2)
    ca, cycle_a = _circle(lib, rng, n, [(2 * i + rot_a) % n for i in range(k)])
    cb, cycle_b = _circle(lib, rng, n, [(2 * i + rot_b) % n for i in range(k)])
    cx = lib.complexes
    cover = cx.product_cover(ca, cb)
    base = cover.base
    # degree-1 loop: the first circle at one vertex of the second
    y0 = rng.randrange(n)
    loop = {}
    for (u, v), c in cycle_a.items():
        loop[(u * n + y0, v * n + y0)] = c
    za = cx.Chain(ca.base, 1, cycle_a)
    zb = cx.Chain(cb.base, 1, cycle_b)
    surface = cx.shuffle_product_chain(za, zb, base, n)
    out = Cover(lib, f"torus{k}", cover, (k * k, 4 * k * k, 4 * k * k, k * k),
                loop=(loop, cx.Chain(base, 1, loop), _subcomplex(lib, base, loop)))
    out.surface = (dict(surface.coefficients), surface, _subcomplex(lib, base, surface.coefficients))
    edges = out.nerve.simplices_of_dim(1)
    gen = _circle_generator(k)
    out.x = _pullback(edges, k, 0, gen)
    out.y = _pullback(edges, k, 1, gen)
    return out


def _circle_cover(lib, seed, n, k):
    rng = job_rng(seed, "circle", n, k)
    cuts = sorted(rng.sample(range(n), k))
    cover, cycle = _circle(lib, rng, n, cuts)
    return Cover(lib, f"circle{n}.{k}", cover, (k, k),
                 loop=(cycle, lib.complexes.Chain(cover.base, 1, cycle), cover.base),
                 x=_circle_generator(k))


def _z2_transitions(lib, c, rng, terms):
    """Z/2 transitions: sum of coeff * class cocycle plus a seeded coboundary."""
    edges = c.nerve.simplices_of_dim(1)
    h = [rng.randrange(2) for _ in c.nerve.simplices_of_dim(0)]
    g = oracle.combine(list(terms) + [(1, {(i, j): h[j] - h[i] for i, j in edges})], 2)
    return lib.tower.TransitionCocycle(c.nerve, lib.tower.FiniteGroup.cyclic(2), g)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def build(lib, seed, small=False, corrupt=False):
    towers = {level: lib.fixtures.z2_tower(level) for level in range(1, 5)}
    jobs = []
    for k in TORUS_KS[:1] if small else TORUS_KS:
        c = _torus_cover(lib, seed, k)
        if corrupt and not jobs:
            c.expected_nerve = c.expected_nerve[:-1] + (c.expected_nerve[-1] + 1,)
        rng = job_rng(seed, c.name, "g")
        g = _z2_transitions(lib, c, rng, [(rng.randrange(2), c.x), (rng.randrange(2), c.y)])
        jobs += _cover_jobs(lib, c)
        jobs += _lift_jobs(lib, seed, c, g, towers, True,
                           range(1, TOWER_LEVELS_ON_TORUS + 1) if k == 3 else ())
        jobs += _gerbe_jobs(lib, seed, c)
        jobs += _line_jobs(lib, seed, c)
    if not small:
        c = Cover(lib, "rp2", lib.fixtures.rp2_good_cover()[0], (6, 15, 10))
        w1 = oracle.fg_values(lib.fixtures.rp2_orientation_cocycle(c.nerve))
        g = _z2_transitions(lib, c, job_rng(seed, "rp2", "g"), [(1, w1)])
        jobs += _cover_jobs(lib, c)
        jobs += _lift_jobs(lib, seed, c, g, towers, False, (2, 4))
    for n, k in CIRCLES[:2] if small else CIRCLES:
        c = _circle_cover(lib, seed, n, k)
        rng = job_rng(seed, c.name, "g")
        g = _z2_transitions(lib, c, rng, [(rng.randrange(2), c.x)])
        level = job_rng(seed, c.name, "tower").randint(1, 4)
        jobs += _cover_jobs(lib, c)
        jobs += _lift_jobs(lib, seed, c, g, towers, True, (level,))
        jobs += _line_jobs(lib, seed, c)
    return jobs


def _cover_jobs(lib, c):
    def nerve_check(state, _, nrv):
        counts = tuple(len(nrv.simplices_of_dim(d)) for d in range(nrv.dim + 1))
        oracle.require(counts == c.expected_nerve, f"nerve counts {counts}, expected {c.expected_nerve}")

    def good_check(state, _, report):
        oracle.require(report.ok, f"cover reported not good: {report.failures[:2]}")
        oracle.require(report.max_degree == c.cover.base.dim + 1, "goodness degree bound")

    return [
        Job(f"{c.name}/nerve", lambda _: lib.complexes.nerve(c.cover), nerve_check),
        Job(f"{c.name}/verify_good_cover",
            lambda _: lib.cochains.verify_good_cover(c.cover, c.nerve), good_check),
    ]


def _lift_jobs(lib, seed, c, g, towers, liftable, levels):
    ext = towers[1].extensions[0]
    nrv = c.nerve
    edges, triangles = nrv.simplices_of_dim(1), nrv.simplices_of_dim(2)

    def giraud_check(state, _, cocycle):
        values = oracle.fg_values(cocycle)
        oracle.require(not oracle.reduce(oracle.delta(values, nrv.simplices_of_dim(3)), 2),
                       "obstruction is not a cocycle")
        exact = oracle.is_mod2_coboundary(values, edges, triangles)
        oracle.require(exact == liftable, f"obstruction class zero: {exact}, expected {liftable}")

    def lift_check(state, _, result):
        if not liftable:
            oracle.require(tuple(result.coords) == (1,), f"lift class {result.coords}, expected (1,)")
            return
        table = ext.total.table
        for i, j in edges:
            oracle.require(ext.project(result.value(i, j)) == g.value(i, j),
                           "lift does not project to the transitions")
        for i, j, k in triangles:
            oracle.require(table[result.value(i, j)][result.value(j, k)] == result.value(i, k),
                           "lift breaks the cocycle law")

    jobs = [
        Job(f"{c.name}/giraud_obstruction", lambda _: lib.tower.giraud_obstruction(g, ext), giraud_check),
        Job(f"{c.name}/lift_transitions", lambda _: lib.tower.lift_transitions(g, ext), lift_check),
    ]
    for level in levels:
        def tower_check(state, _, seq, level=level):
            if liftable:
                oracle.require(seq.status == ("lifted", level), f"tower status {seq.status}")
                oracle.require(all(not any(e.coords) for e in seq.entries), "nonzero tower class")
            else:
                oracle.require(seq.status == ("blocked", 1), f"tower status {seq.status}")
                oracle.require(tuple(seq.entries[0].coords) == (1,), "level-1 class is not 1")

        jobs.append(Job(f"{c.name}/tower_obstructions/L{level}",
                        lambda _, level=level: lib.tower.tower_obstructions(g, towers[level]),
                        tower_check))
    return jobs


def _circle_cochain(lib, nrv, degree, values):
    return lib.cochains.Cochain(nrv, degree, lib.abelian.CIRCLE, values)


def _holonomy_jobs(lib, seed, c, key, chain, t):
    """Default and shuffled holonomy of state[key] around a cycle: +-t."""
    _, z, v = chain

    def check_default(state, _, h):
        oracle.require(h.value in (t % 1, -t % 1), f"holonomy {h.value}, expected +-{t}")
        state[key + "/hol"] = h.value

    def check_shuffled(state, _, h):
        oracle.require(h.value == state[key + "/hol"], "holonomy depends on the solver choices")

    shuffle_seed = job_rng(seed, key, "shuffle").randrange(1 << 30)
    return [
        Job(f"{key}/holonomy", lambda pkg: lib.deligne.holonomy(pkg, v, z), check_default,
            lambda state: state[key]),
        Job(f"{key}/holonomy_shuffled",
            lambda pkg: lib.deligne.holonomy(pkg, v, z, shuffle=random.Random(shuffle_seed)),
            check_shuffled, lambda state: state[key]),
    ]


def _descent_job(lib, c, key, cocycle, degree):
    def check(state, _, pkg):
        oracle.require(pkg.degree == degree and sorted(pkg.layers) == list(range(degree)),
                       "package has the wrong shape")
        # descent packages are flat: D A^(0) vanishes on every piece
        for (i,), local in pkg.layers[0].values.items():
            piece = c.cover.pieces[i]
            curv = oracle.delta(local, piece.simplices_of_dim(degree + 1))
            oracle.require(not curv, f"descent package is not flat on piece {i}")
        state[key] = pkg

    return Job(f"{key}/descent_chain",
               lambda _: lib.deligne.descent_chain(cocycle, c.cover, c.nerve), check)


def _gerbe_jobs(lib, seed, c):
    """Degree-2 package of t * x cup y + delta eta on a torus cover."""
    rng = job_rng(seed, c.name, "gerbe")
    t = Fraction(rng.randrange(1, 12), 12)
    nrv = c.nerve
    eta = {e: Fraction(rng.randrange(12), 12) for e in nrv.simplices_of_dim(1)}
    triangles = nrv.simplices_of_dim(2)
    xy = oracle.cup(c.x, 1, c.y, 1, triangles)
    values = oracle.combine([(t, xy), (1, oracle.delta(eta, triangles))], 1)
    cocycle = _circle_cochain(lib, nrv, 2, values)
    key = f"{c.name}/gerbe"
    return [_descent_job(lib, c, key, cocycle, 2)] + _holonomy_jobs(lib, seed, c, key, c.surface, t)


def _line_jobs(lib, seed, c):
    """Degree-1 package of t * x (+ s * y) + delta eta, then made non-flat."""
    rng = job_rng(seed, c.name, "line")
    t = Fraction(rng.randrange(1, 12), 12)
    nrv = c.nerve
    eta = {(i,): Fraction(rng.randrange(12), 12) for (i,) in nrv.simplices_of_dim(0)}
    edges = nrv.simplices_of_dim(1)
    terms = [(t, c.x), (1, oracle.delta(eta, edges))]
    if c.y is not None:
        terms.append((Fraction(rng.randrange(12), 12), c.y))
    cocycle = _circle_cochain(lib, nrv, 1, oracle.combine(terms, 1))
    base = c.cover.base
    a = {e: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for e in base.simplices_of_dim(1)}
    a = oracle.reduce(a, 0)
    curvature = oracle.delta(a, base.simplices_of_dim(2))
    power = rng.randint(1, 2)
    char = curvature
    for i in range(1, power):
        char = oracle.cup(char, 2 * i, curvature, 2, base.simplices_of_dim(2 * i + 2))
    loop_values, z, v = c.loop
    shift = oracle.pairing(a, loop_values)
    key = f"{c.name}/line"

    def nonflat(state):
        pkg = state[key]
        dl = lib.deligne
        local = {(i,): {s: a[s] for s in piece.simplices_of_dim(1) if s in a}
                 for i, piece in enumerate(c.cover.pieces)}
        layer = pkg.layers[0] + dl.DoubleCochain(c.cover, nrv, 0, 1, local)
        return dl.DelignePackage(c.cover, nrv, 1, pkg.cocycle, {0: layer})

    def curvature_check(state, _, f):
        oracle.require(oracle.reduce(f.values, 0) == curvature, "curvature differs from D a")

    def char_check(state, _, f):
        oracle.require(oracle.reduce(f.values, 0) == char, f"curvature^{power} differs from (D a)^{power}")

    def shifted_check(state, _, h):
        want = (state[key + "/hol"] + shift) % 1
        oracle.require(h.value == want, f"non-flat holonomy {h.value}, expected {want}")

    return [
        _descent_job(lib, c, key, cocycle, 1),
        *_holonomy_jobs(lib, seed, c, key, c.loop, t),
        Job(f"{c.name}/nonflat/curvature", lambda pkg: lib.deligne.curvature(pkg), curvature_check, nonflat),
        Job(f"{c.name}/nonflat/characteristic_form",
            lambda pkg: lib.deligne.characteristic_form(pkg, power), char_check, nonflat),
        Job(f"{c.name}/nonflat/holonomy", lambda pkg: lib.deligne.holonomy(pkg, v, z), shifted_check, nonflat),
    ]
