"""cohomology-ladder: cohomology and coboundary decisions on a size ladder.

Each rung is a complex relabelled by the seed.  A pass first computes
the planned cohomology groups (with generators), then decides, per
rung: class coordinates of seeded sums of generators plus seeded
coboundaries, coboundary-ness of seeded coboundaries (the witness is
re-checked), and coboundary-ness of nonzero classes (must be refused).
"""

from __future__ import annotations

from fractions import Fraction

import oracle
from common import (
    COEFFS,
    Job,
    as_library_values,
    coefficient_group,
    cycle_graph,
    is_cyclic,
    job_rng,
    random_cochain,
    relabel,
)

ALL_EXACT = tuple((c, p) for p in (1, 2) for c in ("Z", "Z2", "Z3", "Q", "QZ"))

# rung, cohomology kind, constructor, cohomology jobs, coboundary decisions,
# class-coordinate decisions per nonzero class.  Z/m cohomology stops at
# torus36.  H^1(torus36; Z/2) takes seconds where every other job takes
# at most a few tenths; it runs in every pass, so its time is a median too.
RUNGS = (
    ("rp2_minimal", "rp2", lambda fx, cx: fx.rp2_minimal(),
     tuple((c, p) for c in ("Z", "Z2", "Z3") for p in (0, 1, 2)), ALL_EXACT, 2),
    ("bsd_s2", "s2", lambda fx, cx: fx.barycentric_subdivision(fx.boundary_delta3())[0],
     (("Z", 1), ("Z", 2), ("Z2", 2), ("Z3", 2)), ALL_EXACT, 2),
    ("c4xc6", "torus", lambda fx, cx: cx.product_complex(cycle_graph(cx, 4), cycle_graph(cx, 6))[0],
     (("Z", 1), ("Z", 2), ("Z2", 2), ("Z3", 0)), ALL_EXACT, 2),
    ("bsd_rp2", "rp2", lambda fx, cx: fx.barycentric_subdivision(fx.rp2_minimal())[0],
     (("Z", 1), ("Z", 2)),
     (("Z", 1), ("Z", 2), ("Z2", 2), ("Q", 1), ("QZ", 2)), 2),
    ("torus36", "torus", lambda fx, cx: cx.product_complex(cycle_graph(cx, 6), cycle_graph(cx, 6))[0],
     (("Z", 1), ("Z2", 1)),
     (("Z", 1), ("Z2", 1), ("Z3", 1), ("Q", 2), ("QZ", 1)), 3),
    ("c6xc8", "torus", lambda fx, cx: cx.product_complex(cycle_graph(cx, 6), cycle_graph(cx, 8))[0],
     (("Z", 0),), (("Z", 1), ("Z", 2), ("Q", 1), ("QZ", 2)), 0),
)
SMALL_RUNGS = ("rp2_minimal", "bsd_s2")


def build(lib, seed, small=False, corrupt=False):
    jobs = []
    for name, kind, construct, cohoms, exacts, ncoords in RUNGS:
        if small and name not in SMALL_RUNGS:
            continue
        k = relabel(lib.complexes, construct(lib.fixtures, lib.complexes), job_rng(seed, name))
        jobs.extend(_rung_jobs(lib, seed, name, kind, k, cohoms, exacts, ncoords, corrupt and not jobs))
    return jobs


def _rung_jobs(lib, seed, rung, kind, k, cohoms, exacts, ncoords, corrupt):
    jobs = []
    decisions = []
    for coef, p in cohoms:
        moduli = oracle.cohomology_moduli(kind, p, COEFFS[coef])
        # self-test hook: the first group of the run expects an extra Z
        expected = moduli + (0,) if corrupt and not jobs else moduli
        jobs.append(_cohomology_job(lib, rung, k, coef, p, expected))
        if p == 0 or not moduli:
            continue
        key = (rung, coef, p)
        for i in range(ncoords):
            decisions.append(_coords_job(lib, seed, key, k, i))
        decisions.append(_nonexact_job(lib, seed, key, k, coef))
        if coef == "Z" and 0 in moduli:
            decisions.append(_nonexact_job(lib, seed, key, k, "Q"))
            decisions.append(_nonexact_job(lib, seed, key, k, "QZ"))
    for coef, p in exacts:
        decisions.append(_exact_job(lib, seed, rung, k, coef, p))
    job_rng(seed, rung, "order").shuffle(decisions)
    return jobs + decisions


def _cohomology_job(lib, rung, k, coef, p, expected):
    group = coefficient_group(lib.abelian, coef)
    simplices = k.simplices_of_dim(p + 1)

    def call(_):
        classes = lib.cochains.cohomology_classes(k, group, p)
        return classes, classes.group, classes.generators()

    def check(state, _, result):
        classes, h, gens = result
        oracle.require(h.moduli == expected, f"H^{p} = {h.moduli}, expected {expected}")
        oracle.require(len(gens) == len(expected), "generator count differs from rank")
        for g in gens:
            oracle.require(
                not oracle.reduce(oracle.delta(oracle.fg_values(g), simplices), COEFFS[coef]),
                "a generator is not a cocycle",
            )
        state[(rung, coef, p)] = (classes, expected, [oracle.fg_values(g) for g in gens])

    return Job(f"{rung}/cohomology/{coef}/p{p}", call, check)


def _seeded_class(rng, key, k, state, nonzero):
    """(coefficients a_i, plain cochain sum a_i gen_i + delta y)."""
    rung, coef, p = key
    classes, moduli, gens = state[key]
    a = [rng.randint(-4, 4) if m == 0 else rng.randrange(m) for m in moduli]
    if nonzero and not any(a):
        a[0] = 1
    y = random_cochain(rng, k.simplices_of_dim(p - 1), coef)
    terms = [(ai, g) for ai, g in zip(a, gens)]
    terms.append((1, oracle.delta(y, k.simplices_of_dim(p))))
    return classes, moduli, a, oracle.combine(terms, COEFFS[coef])


def _coords_job(lib, seed, key, k, i):
    rung, coef, p = key
    group = coefficient_group(lib.abelian, coef)

    def prepare(state):
        rng = job_rng(seed, *key, "coords", i)
        classes, moduli, a, x = _seeded_class(rng, key, k, state, nonzero=False)
        return classes, moduli, a, lib.cochains.Cochain(k, p, group, as_library_values(x, coef))

    def call(args):
        classes, _, _, x = args
        return classes.class_coords(x)

    def check(state, args, coords):
        _, moduli, a, _ = args
        want = tuple(ai % m if m else ai for ai, m in zip(a, moduli))
        got = tuple(c % m if m else c for c, m in zip(coords, moduli))
        oracle.require(got == want, f"class coordinates {coords}, expected {want}")

    return Job(f"{rung}/class_coords/{coef}/p{p}#{i}", call, check, prepare)


def _nonexact_job(lib, seed, key, k, over):
    """is_coboundary of a nonzero class must be refused.

    Over Z and Z/m the class is a seeded nonzero sum of generators; over
    Q and Q/Z it is a non-integral multiple of a free integral generator.
    """
    rung, coef, p = key
    group = coefficient_group(lib.abelian, over)

    def prepare(state):
        rng = job_rng(seed, *key, "nonexact", over)
        if over == coef:
            x = _seeded_class(rng, key, k, state, nonzero=True)[3]
        else:
            _, moduli, gens = state[key]
            den = rng.randint(2, 5)
            y = random_cochain(rng, k.simplices_of_dim(p - 1), over)
            terms = [
                (Fraction(rng.randrange(1, den), den), gens[moduli.index(0)]),
                (1, oracle.delta(y, k.simplices_of_dim(p))),
            ]
            x = oracle.combine(terms, COEFFS[over])
        return lib.cochains.Cochain(k, p, group, as_library_values(x, over))

    def call(x):
        return lib.cochains.is_coboundary(x)

    def check(state, x, witness):
        oracle.require(witness is None, "a nonzero class was reported as a coboundary")

    return Job(f"{rung}/is_coboundary/{over}/p{p}/nonzero", call, check, prepare)


def _exact_job(lib, seed, rung, k, coef, p):
    group = coefficient_group(lib.abelian, coef)
    modulus = COEFFS[coef]
    lower, here = k.simplices_of_dim(p - 1), k.simplices_of_dim(p)

    def as_number(v):
        if is_cyclic(coef):
            return v.coords[0]
        return v.value if coef == "QZ" else v

    def prepare(state):
        rng = job_rng(seed, rung, "exact", coef, p)
        x = oracle.reduce(oracle.delta(random_cochain(rng, lower, coef), here), modulus)
        return x, lib.cochains.Cochain(k, p, group, as_library_values(x, coef))

    def call(args):
        return lib.cochains.is_coboundary(args[1])

    def check(state, args, witness):
        oracle.require(witness is not None, "a coboundary was refused")
        oracle.require(
            oracle.witness_ok(witness, args[0], here, modulus, as_number),
            "delta(witness) differs from the input",
        )

    return Job(f"{rung}/is_coboundary/{coef}/p{p}/exact", call, check, prepare)
