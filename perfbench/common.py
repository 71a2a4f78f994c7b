"""Pieces shared by the workloads: the job record and input generators.

A job is three steps.  ``prepare(state)`` builds the library inputs
from the job's own seed and the results of earlier jobs; only
``call(args)`` is timed (and traced); ``check(state, args, result)``
compares the answer with the oracle and may record results for later
jobs.  Every pass re-runs the same jobs on the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable


@dataclass
class Job:
    name: str
    call: Callable[[Any], Any]
    check: Callable[[dict, Any, Any], None]
    prepare: Callable[[dict], Any] = lambda state: None


#: Coefficient name -> oracle modulus: 0 for Z and Q, 1 for Q/Z, m for Z/m.
COEFFS = {"Z": 0, "Z2": 2, "Z3": 3, "Q": 0, "QZ": 1}


def coefficient_group(abelian, name):
    if name == "Q":
        return abelian.QQ
    if name == "QZ":
        return abelian.CIRCLE
    return abelian.FgAbelianGroup((COEFFS[name],))


def is_cyclic(name):
    return name in ("Z", "Z2", "Z3")


def random_value(rng, name):
    """A seeded coefficient value as a plain number."""
    if name == "Z":
        return rng.randint(-3, 3)
    if name in ("Z2", "Z3"):
        return rng.randrange(COEFFS[name])
    if name == "Q":
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return Fraction(rng.randrange(12), 12)


def random_cochain(rng, simplices, name):
    return {s: random_value(rng, name) for s in simplices}


def as_library_values(values, name):
    """Plain numbers to what Cochain accepts for the coefficient group."""
    if is_cyclic(name):
        return {s: (v,) for s, v in values.items()}
    return dict(values)


def relabel(complexes, k, rng):
    """A copy of k with its vertices permuted by the seed."""
    perm = list(range(k.vertex_count))
    rng.shuffle(perm)
    simplices = {tuple(sorted(perm[v] for v in s)) for s in k.simplices}
    return complexes.SimplicialComplex(k.vertex_count, simplices)


def cycle_graph(complexes, n):
    return complexes.validate_complex([(i, (i + 1) % n) for i in range(n)])


def job_rng(seed, *parts):
    """An independent generator per job, so inputs repeat in every pass."""
    return random.Random(f"{seed}/" + "/".join(str(p) for p in parts))
