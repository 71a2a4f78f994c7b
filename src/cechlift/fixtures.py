"""Built-in desk-scale fixtures: complexes, covers, cycles, cocycles.

Everything here is deterministic; tests and the CLI ``fixtures``
subcommand share these constructions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .abelian import CIRCLE, CircleElement, FgAbelianGroup, GroupElement
from .cochains import Cochain, cohomology_classes, cup
from .complexes import (
    Cover,
    SimplicialComplex,
    fundamental_cycle,
    nerve,
    product_cover,
    shuffle_product_chain,
    validate_complex,
)
from .deligne import descent_chain
from .tower import CentralExtension, ExtensionTower, FiniteGroup, TransitionCocycle


def triangle_boundary():
    """The 3-cycle: smallest circle."""
    return validate_complex([(0, 1), (1, 2), (0, 2)])


def hexagon():
    """The 6-cycle; the circle all flat-bundle fixtures live on."""
    return validate_complex([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def hexagon_cycle(k=None):
    """The coherently oriented fundamental 1-cycle of the hexagon."""
    k = k if k is not None else hexagon()
    signs = {e: 1 for e in k.simplices_of_dim(1)}
    signs[(0, 5)] = -1
    return fundamental_cycle(k, 1, signs)


def boundary_delta3():
    """The boundary of the tetrahedron: a 2-sphere."""
    return validate_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def boundary_delta3_cycle(k=None):
    k = k if k is not None else boundary_delta3()
    faces = k.simplices_of_dim(2)
    signs = dict(zip(faces, (1, -1, 1, -1)))
    return fundamental_cycle(k, 2, signs)


def rp2_minimal():
    """The 6-vertex triangulation of the real projective plane."""
    return validate_complex(
        [
            (0, 1, 2),
            (0, 1, 3),
            (0, 2, 4),
            (0, 3, 5),
            (0, 4, 5),
            (1, 2, 5),
            (1, 3, 4),
            (1, 4, 5),
            (2, 3, 4),
            (2, 3, 5),
        ]
    )


def three_arc_cover(k=None):
    """The hexagon covered by three closed arcs of two edges each.

    Pairwise overlaps are single vertices and the triple overlap is
    empty, so the nerve is the triangle boundary.
    """
    k = k if k is not None else hexagon()
    arcs = [
        validate_complex([(0, 1), (1, 2)], vertex_count=6),
        validate_complex([(2, 3), (3, 4)], vertex_count=6),
        validate_complex([(4, 5), (0, 5)], vertex_count=6),
    ]
    return Cover(k, tuple(arcs))


def torus_product():
    """(hexagon x hexagon, 9-piece product cover): the torus fixture.

    The 3-arc cover is good on the hexagon, and products of good circle
    covers stay good, which the test suite re-verifies at runtime.
    """
    cov = product_cover(three_arc_cover(), three_arc_cover())
    return cov.base, cov


def torus_cycle(product):
    """Shuffle-product fundamental 2-cycle of hexagon x hexagon."""
    za = hexagon_cycle()
    zb = hexagon_cycle()
    return shuffle_product_chain(za, zb, product, 6)


# ---------------------------------------------------------------------------
# barycentric subdivision and the dual-block cover
# ---------------------------------------------------------------------------

def barycentric_subdivision(k):
    """(bsd(k), vertex_of) with one bsd vertex per simplex of k.

    Simplices of the subdivision are the chains of the face poset;
    vertex ids follow the (dimension, lexicographic) order of k's
    simplices, so chains are strictly increasing tuples.  Each chain is
    extended through an index of the proper cofaces of its top simplex,
    so the work is linear in the number of chains.  Every subchain of a
    chain is a chain, so the result is built without re-checking faces.
    """
    order = sorted(k.simplices, key=lambda s: (len(s), s))
    vertex_of = {s: i for i, s in enumerate(order)}
    cofaces = [[] for _ in order]
    for t in order:
        for size in range(1, len(t)):
            for face in itertools.combinations(t, size):
                cofaces[vertex_of[face]].append(vertex_of[t])
    chains = []
    stack = [(i,) for i in range(len(order))]
    while stack:
        chain = stack.pop()
        chains.append(chain)
        stack.extend(chain + (j,) for j in cofaces[chain[-1]])
    return SimplicialComplex._trusted(len(order), chains), vertex_of


def dual_block_cover(k):
    """One piece per vertex of k: the closed dual block in bsd(k).

    Piece v consists of the chains whose minimal simplex contains v.
    The nerve of this cover is k itself, and for the surface fixtures
    every intersection is acyclic (re-verified at runtime), which makes
    it the good cover used for the projective-plane bundle fixtures.
    Each chain is handed to the vertices of its minimal simplex in one
    pass.  A subchain's minimal simplex contains that of the chain, so
    each piece is downward closed and built without re-checking faces.
    """
    bsd, vertex_of = barycentric_subdivision(k)
    simplex_of = {i: s for s, i in vertex_of.items()}
    blocks = {v: [] for (v,) in k.simplices_of_dim(0)}
    for chain in bsd.simplices:
        for v in simplex_of[chain[0]]:
            blocks[v].append(chain)
    return Cover(bsd, tuple(SimplicialComplex._trusted(bsd.vertex_count, b) for b in blocks.values()))


def rp2_good_cover():
    cover = dual_block_cover(rp2_minimal())
    return cover, nerve(cover)


# ---------------------------------------------------------------------------
# standard cocycles
# ---------------------------------------------------------------------------

def generator_cocycle(carrier, coefficients, degree, index=0):
    """A deterministic representative of a cohomology generator."""
    classes = cohomology_classes(carrier, coefficients, degree)
    gens = classes.generators()
    if index >= len(gens):
        raise IndexError(f"H^{degree} has only {len(gens)} generators")
    return gens[index]


def rp2_orientation_cocycle(nerve_):
    """The mod-2 one-cocycle of the orientation double cover.

    A representative of the generator of H^1(RP^2; Z/2) on the nerve of
    the dual-block cover (which is the minimal triangulation itself).
    """
    return generator_cocycle(nerve_, FgAbelianGroup((2,)), 1)


def circle_flat_cocycle(nerve_, theta):
    """Circle 1-cocycle on the 3-arc nerve with signed loop sum theta.

    The nerve of the three-arc cover has no 2-simplices, so any values
    form a cocycle; the chart-crossing sum along the oriented hexagon
    works out to value((0,1)) + value((1,2)) - value((0,2)).
    """
    theta = Fraction(theta)
    return Cochain(nerve_, 1, CIRCLE, {(0, 1): CircleElement(theta)})


def _carry_extensions(levels):
    """The first ``levels`` extensions of the tower Z/2 -> Z/4 -> Z/8 -> ...

    Each level extends the cyclic group of order m reached so far by Z/2
    with the carry factor set: 1 exactly where log x + log y >= m, for the
    discrete log that takes the group to Z/m.  The total element (a, h)
    has index 2a + h and log ``log[a] + m * h``, so the next level's log
    is read off without a search.
    """
    z2 = FgAbelianGroup((2,))
    carry = (z2.zero(), z2.element((1,)))
    base, log = FiniteGroup.cyclic(2), [0, 1]
    exts = []
    for _ in range(levels):
        m = base.order
        fs = tuple(tuple(carry[log[x] + log[y] >= m] for y in range(m)) for x in range(m))
        exts.append(CentralExtension(base, z2, fs))
        base, log = exts[-1].total, [log[a] + m * h for a in range(m) for h in (0, 1)]
    return exts


def z2_z4_extension():
    """The nonsplit extension of Z/2 by Z/2 with total group Z/4: the
    first level of ``z2_tower``."""
    return _carry_extensions(1)[0]


def z2_tower(levels=2):
    """The tower Z/2 -> Z/4 -> Z/8 -> ... of ``levels`` carry extensions,
    each by Z/2; level 2 extends Z/4 to Z/8."""
    return ExtensionTower(_carry_extensions(levels))


def circle_double_cover_transitions(nerve_):
    """Z/2 transitions of the nontrivial double cover of the circle."""
    return TransitionCocycle(nerve_, FiniteGroup.cyclic(2), {(0, 2): 1})


def rp2_orientation_transitions(nerve_):
    """Z/2 transitions of the orientation double cover of RP^2."""
    w = rp2_orientation_cocycle(nerve_)
    g = {e: w.value(e).coords[0] for e in nerve_.simplices_of_dim(1)}
    return TransitionCocycle(nerve_, FiniteGroup.cyclic(2), g)


def circle_flat_package(theta):
    """Flat circle-bundle package on the 3-arc hexagon cover."""
    cov = three_arc_cover()
    nrv = nerve(cov)
    return descent_chain(circle_flat_cocycle(nrv, theta), cov, nrv)


def torus_flat_gerbe(t):
    """Flat gerbe package on the torus with holonomy class t.

    The classifying cocycle is t times the integer generator
    x cup y of H^2 of the product-cover nerve, reduced mod 1.
    """
    torus, cov = torus_product()
    nrv = nerve(cov)
    x, y = torus_nerve_generators(nrv)
    omega = cup(x, y)
    t = Fraction(t)
    values = {s: CircleElement(t * v.coords[0]) for s, v in omega.values.items()}
    c = Cochain(nrv, 2, CIRCLE, values)
    return descent_chain(c, cov, nrv)


def torus_nerve_generators(nerve_):
    """Integer pullback 1-cocycles along the two torus projections.

    Pieces of the product cover are indexed by pairs (i, j) in row-major
    order; the pullback of a triangle-nerve 1-cochain a under the first
    projection has value a(i1, i2) on the nerve edge ((i1,j1),(i2,j2)).
    """
    za = FgAbelianGroup((0,))

    def pullback(component):
        values = {}
        for e in nerve_.simplices_of_dim(1):
            (p1, p2) = e
            a1, b1 = divmod(p1, 3)
            a2, b2 = divmod(p2, 3)
            i1, i2 = (a1, a2) if component == 0 else (b1, b2)
            # generator of H^1 of the triangle-boundary nerve: value -1
            # on the edge (0,2), so the oriented loop pairing is +1
            if (i1, i2) == (0, 2):
                values[e] = GroupElement(za, (-1,))
            elif (i1, i2) == (2, 0):
                values[e] = GroupElement(za, (1,))
        return Cochain(nerve_, 1, za, values)

    return pullback(0), pullback(1)
