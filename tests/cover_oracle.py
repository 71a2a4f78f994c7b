"""The quadratic cover and product constructors, kept as the oracle for the library's.

``product_cover`` tests every product simplex against every pair of
pieces and projects it to both factors again for each pair;
``star_cover`` looks up s union {v} for every vertex v and every simplex
s; ``product_complex`` and ``shuffle_product_chain`` walk the staircase
move strings of every pair of factor simplices.  The library indexes the
pieces at each factor simplex, gathers the stars in one pass and builds
each staircase once per call; both must return the same complexes,
pieces (in the same order) and chains.
"""

from __future__ import annotations

import itertools

from cechlift.complexes import Chain, Cover, SimplicialComplex, downward_closure
from cechlift.errors import InvalidComplex


def star_cover(complex_):
    """One piece per vertex: every simplex s with s union {v} in the complex."""
    if complex_.is_empty():
        raise InvalidComplex("star cover of an empty complex")
    pieces = []
    for (v,) in complex_.simplices_of_dim(0):
        star = set()
        for s in complex_.simplices:
            merged = tuple(sorted(set(s) | {v}))
            if merged in complex_.simplices:
                star.add(s)
        pieces.append(SimplicialComplex(complex_.vertex_count, star))
    return Cover(complex_, tuple(pieces))


def _staircase_paths(p, q):
    """Monotone lattice paths through a (p+1) x (q+1) grid, as move strings."""
    moves = ["R"] * p + ["U"] * q
    return sorted(set(itertools.permutations(moves)))


def _shuffle_sign(path):
    inv = 0
    ups_seen = 0
    for mv in path:
        if mv == "U":
            ups_seen += 1
        else:
            inv += ups_seen
    return -1 if inv % 2 else 1


def product_complex(a, b):
    """The staircase triangulation of a x b, with vertex projections."""
    if a.is_empty() or b.is_empty():
        raise InvalidComplex("product of an empty complex")
    nb = b.vertex_count

    def vid(x, y):
        return x * nb + y

    top = set()
    for sa in a.simplices:
        p = len(sa) - 1
        for sb in b.simplices:
            q = len(sb) - 1
            for path in _staircase_paths(p, q):
                i = j = 0
                verts = [vid(sa[0], sb[0])]
                for mv in path:
                    if mv == "R":
                        i += 1
                    else:
                        j += 1
                    verts.append(vid(sa[i], sb[j]))
                top.add(tuple(verts))
    product = SimplicialComplex(a.vertex_count * nb, downward_closure(top))
    proj_a = tuple(x // nb for x in range(a.vertex_count * nb))
    proj_b = tuple(x % nb for x in range(a.vertex_count * nb))
    return product, proj_a, proj_b


def product_cover(cover_a, cover_b):
    """Cover of the product by staircase products of pieces, indexed by pairs."""
    product, _, _ = product_complex(cover_a.base, cover_b.base)
    nb = cover_b.base.vertex_count
    pieces = []
    for pa in cover_a.pieces:
        for pb in cover_b.pieces:
            simps = set()
            for s in product.simplices:
                sa = tuple(sorted({v // nb for v in s}))
                sb = tuple(sorted({v % nb for v in s}))
                if pa.has_simplex(sa) and pb.has_simplex(sb):
                    simps.add(s)
            pieces.append(SimplicialComplex(product.vertex_count, simps))
    return Cover(product, tuple(pieces))


def shuffle_product_chain(za, zb, product, proj_a_count):
    """Eilenberg-Zilber shuffle image of za x zb in the staircase triangulation."""
    nb = product.vertex_count // proj_a_count
    p = za.degree
    q = zb.degree
    coeffs = {}
    for sa, ca in za.coefficients.items():
        for sb, cb in zb.coefficients.items():
            for path in _staircase_paths(p, q):
                sign = _shuffle_sign(path)
                i = j = 0
                verts = [sa[0] * nb + sb[0]]
                for mv in path:
                    if mv == "R":
                        i += 1
                    else:
                        j += 1
                    verts.append(sa[i] * nb + sb[j])
                t = tuple(verts)
                if len(set(t)) != len(t):
                    continue
                coeffs[t] = coeffs.get(t, 0) + sign * ca * cb
    coeffs = {s: c for s, c in coeffs.items() if c}
    return Chain(product, p + q, coeffs)
