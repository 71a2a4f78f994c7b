"""Finite abstract simplicial complexes, covers, nerves, products, chains.

Simplices are canonical strictly increasing vertex tuples; every
alternating sign in the library derives from this single ordering
convention.  Complexes are immutable after validation, so they can be
shared and hashed freely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    DuplicateVertexInSimplex,
    InvalidComplex,
    InvalidCover,
    NotACycle,
)


def _coboundary_matrix(carrier, p):
    """Rows = (p+1)-simplices, columns = p-simplices, entries (-1)^j.

    Shared by SimplicialComplex and Nerve, whose simplices are both
    increasing tuples listed by ``simplices_of_dim``.
    """
    rows = carrier.simplices_of_dim(p + 1)
    cols = carrier.simplices_of_dim(p)
    index = {s: i for i, s in enumerate(cols)}
    mat = [[0] * len(cols) for _ in rows]
    for ridx, s in enumerate(rows):
        for j in range(len(s)):
            face = s[:j] + s[j + 1 :]
            if face:
                mat[ridx][index[face]] += (-1) ** j
    return mat


class SimplicialComplex:
    """A downward-closed set of strictly increasing vertex tuples."""

    __slots__ = ("vertex_count", "simplices", "_by_dim")

    def __init__(self, vertex_count, simplices):
        self.vertex_count = int(vertex_count)
        self.simplices = frozenset(tuple(s) for s in simplices)
        by_dim = {}
        for s in self.simplices:
            if not all(isinstance(v, int) for v in s):
                raise InvalidComplex(f"non-integer vertex in {s}")
            if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
                raise InvalidComplex(f"simplex {s} is not strictly increasing")
            if s and (s[0] < 0 or s[-1] >= self.vertex_count):
                raise InvalidComplex(f"vertex out of range in {s}")
            by_dim.setdefault(len(s) - 1, []).append(s)
        for s in self.simplices:
            for face in itertools.combinations(s, len(s) - 1):
                if face and face not in self.simplices:
                    raise InvalidComplex(f"missing face {face} of {s}")
        self._by_dim = {d: tuple(sorted(v)) for d, v in by_dim.items()}

    def simplices_of_dim(self, d):
        return self._by_dim.get(d, ())

    @property
    def dim(self):
        return max(self._by_dim, default=-1)

    def euler_characteristic(self):
        return sum((-1) ** d * len(v) for d, v in self._by_dim.items())

    def is_empty(self):
        return not self.simplices

    def has_simplex(self, s):
        return tuple(s) in self.simplices

    def vertices(self):
        return self.simplices_of_dim(0)

    def subcomplex(self, simplices):
        """The subcomplex on the given simplices (must be closed)."""
        return SimplicialComplex(self.vertex_count, simplices)

    def is_subcomplex_of(self, other):
        return self.simplices <= other.simplices and self.vertex_count == other.vertex_count

    def boundary_matrix(self, d):
        """Rows = (d-1)-simplices, columns = d-simplices, entries (-1)^j."""
        rows = self.simplices_of_dim(d - 1)
        cols = self.simplices_of_dim(d)
        index = {s: i for i, s in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for cidx, s in enumerate(cols):
            for j in range(len(s)):
                face = s[:j] + s[j + 1 :]
                if face:
                    mat[index[face]][cidx] += (-1) ** j
        return mat

    coboundary_matrix = _coboundary_matrix

    def connected_component_count(self):
        verts = [s[0] for s in self.simplices_of_dim(0)]
        parent = {v: v for v in verts}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.simplices_of_dim(1):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return len({find(v) for v in verts})

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertex_count == other.vertex_count
            and self.simplices == other.simplices
        )

    def __hash__(self):
        return hash((self.vertex_count, self.simplices))

    def __repr__(self):
        counts = [len(self.simplices_of_dim(d)) for d in range(self.dim + 1)]
        return f"SimplicialComplex(vertices={self.vertex_count}, counts={counts})"


def downward_closure(simplices):
    closed = set()
    for s in simplices:
        s = tuple(s)
        for k in range(1, len(s) + 1):
            closed.update(itertools.combinations(s, k))
    return closed


def validate_complex(raw, vertex_count=None):
    """Build the complex generated by the given simplices.

    Input tuples may be unsorted; repeating a vertex inside a tuple is
    an error.  The result is the downward closure, canonically ordered.
    """
    sorted_simplices = []
    max_vertex = -1
    for s in raw:
        t = tuple(sorted(int(v) for v in s))
        if len(set(t)) != len(t):
            raise DuplicateVertexInSimplex(f"repeated vertex in {tuple(s)}")
        if t and t[0] < 0:
            raise InvalidComplex(f"negative vertex in {tuple(s)}")
        if t:
            max_vertex = max(max_vertex, t[-1])
        sorted_simplices.append(t)
    if vertex_count is None:
        vertex_count = max_vertex + 1
    return SimplicialComplex(vertex_count, downward_closure(sorted_simplices))


@dataclass(frozen=True)
class Cover:
    """An ordered family of subcomplexes whose union is the base."""

    base: SimplicialComplex
    pieces: tuple

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        covered = set()
        for i, piece in enumerate(self.pieces):
            if not isinstance(piece, SimplicialComplex):
                raise InvalidCover(f"piece {i} is not a complex")
            if not piece.is_subcomplex_of(self.base):
                raise InvalidCover(f"piece {i} is not a subcomplex of the base")
            covered |= piece.simplices
        if covered != self.base.simplices:
            missing = sorted(self.base.simplices - covered)[:3]
            raise InvalidCover(f"pieces do not cover the base; e.g. {missing}")

    def __len__(self):
        return len(self.pieces)


def star_cover(complex_):
    """One piece per vertex: the closed star of that vertex.

    The closed star of v is every simplex s with s union {v} in the
    complex; it is downward closed and the pieces cover the base.
    """
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


class Nerve:
    """All index tuples of the cover with non-empty intersection.

    ``intersection_of`` maps each nerve simplex to the corresponding
    intersection subcomplex.
    """

    __slots__ = ("cover", "simplices", "intersection_of", "_by_dim")

    def __init__(self, cover, simplices, intersection_of):
        self.cover = cover
        self.simplices = frozenset(simplices)
        self.intersection_of = dict(intersection_of)
        by_dim = {}
        for s in self.simplices:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self._by_dim = {d: tuple(sorted(v)) for d, v in by_dim.items()}

    def simplices_of_dim(self, d):
        return self._by_dim.get(d, ())

    @property
    def dim(self):
        return max(self._by_dim, default=-1)

    def has_simplex(self, s):
        return tuple(s) in self.simplices

    coboundary_matrix = _coboundary_matrix

    def __repr__(self):
        counts = [len(self.simplices_of_dim(d)) for d in range(self.dim + 1)]
        return f"Nerve(counts={counts})"


def nerve(cover):
    """Enumerate every non-empty intersection, up to the full index set.

    Candidates of each dimension extend nerve simplices one index at a
    time; downward closure of the nerve makes this exhaustive.
    """
    simplices = []
    intersections = {}
    current = []
    for i, piece in enumerate(cover.pieces):
        if not piece.is_empty():
            t = (i,)
            simplices.append(t)
            intersections[t] = piece
            current.append(t)
    while current:
        nxt = []
        for t in current:
            for j in range(t[-1] + 1, len(cover.pieces)):
                cand = t + (j,)
                inter = intersections[t].simplices & cover.pieces[j].simplices
                if inter:
                    sub = SimplicialComplex(cover.base.vertex_count, inter)
                    simplices.append(cand)
                    intersections[cand] = sub
                    nxt.append(cand)
        current = nxt
    return Nerve(cover, simplices, intersections)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def _staircase_paths(p, q):
    """Monotone lattice paths through a (p+1) x (q+1) grid, as move strings."""
    moves = ["R"] * p + ["U"] * q
    return sorted(set(itertools.permutations(moves)))


def product_complex(a, b):
    """The staircase triangulation of the product, with vertex projections.

    Vertices are pairs (x, y) numbered x * b.vertex_count + y; each cell
    sigma x tau is triangulated by the monotone staircase paths of its
    grid.  Returns (complex, proj_a, proj_b) where the projections map
    product vertex ids to factor vertex ids.
    """
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


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chain:
    """An integer chain supported on existing simplices of its complex."""

    complex: SimplicialComplex
    degree: int
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        coeffs = {}
        for s, c in self.coefficients.items():
            s = tuple(s)
            if len(s) != self.degree + 1:
                raise NotACycle(f"simplex {s} has wrong degree")
            if not self.complex.has_simplex(s):
                raise InvalidComplex(f"chain supported on missing simplex {s}")
            if c:
                coeffs[s] = int(c)
        object.__setattr__(self, "coefficients", coeffs)

    def __add__(self, other):
        if self.complex != other.complex or self.degree != other.degree:
            raise NotACycle("cannot add chains of different carriers")
        out = dict(self.coefficients)
        for s, c in other.coefficients.items():
            out[s] = out.get(s, 0) + c
        return Chain(self.complex, self.degree, out)

    def items(self):
        return sorted(self.coefficients.items())


def chain_boundary(chain):
    """The alternating-face boundary of a chain."""
    out = {}
    for s, c in chain.coefficients.items():
        for j in range(len(s)):
            face = s[:j] + s[j + 1 :]
            if face:
                out[face] = out.get(face, 0) + (-1) ** j * c
    out = {s: c for s, c in out.items() if c}
    return Chain(chain.complex, chain.degree - 1, out)


def fundamental_cycle(complex_, d, signs):
    """The chain sum of signs(s) * s over all d-simplices; must be a cycle.

    ``signs`` assigns +1 or -1 to every d-simplex.  Raises NotACycle if
    the alternating-face boundary does not vanish.
    """
    simps = complex_.simplices_of_dim(d)
    coeffs = {}
    for s in simps:
        if s not in signs:
            raise NotACycle(f"no orientation assigned to {s}")
        sign = int(signs[s])
        if sign not in (1, -1):
            raise NotACycle(f"orientation of {s} must be +1 or -1")
        coeffs[s] = sign
    chain = Chain(complex_, d, coeffs)
    if d > 0 and chain_boundary(chain).coefficients:
        raise NotACycle("boundary of the proposed cycle is nonzero")
    return chain


def shuffle_product_chain(za, zb, product, proj_a_count):
    """Eilenberg-Zilber shuffle image of a chain product in the staircase
    triangulation.

    For cycles za (degree p) and zb (degree q) this is a (p+q)-cycle of
    the product whose pairing against Alexander-Whitney cup products
    splits as the product of the factor pairings.
    """
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
                # staircase vertices are strictly increasing pairs; with
                # increasing factor simplices the tuple is already sorted
                coeffs[t] = coeffs.get(t, 0) + sign * ca * cb
    coeffs = {s: c for s, c in coeffs.items() if c}
    return Chain(product, p + q, coeffs)


def _shuffle_sign(path):
    inv = 0
    ups_seen = 0
    for mv in path:
        if mv == "U":
            ups_seen += 1
        else:
            inv += ups_seen
    return -1 if inv % 2 else 1
