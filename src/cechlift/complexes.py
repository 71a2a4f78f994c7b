"""Finite abstract simplicial complexes, covers, nerves, products, chains.

Simplices are canonical strictly increasing vertex tuples; every
alternating sign in the library derives from this single ordering
convention.  Complexes are immutable after validation, so they can be
shared and hashed freely.

``SimplicialComplex(vertex_count, simplices)`` validates its input.  The
private ``SimplicialComplex._trusted`` checks nothing and is used only
where the result is a complex by construction: the intersections and the
nerve built by ``nerve``, the pieces of ``Cover.restricted_to``,
``star_cover`` and ``product_cover``, the staircase product of
``product_complex`` (a downward closure), the barycentric subdivision
and the dual-block pieces of ``fixtures`` (subchains of face-poset
chains are chains), ``validate_complex`` after its own checks, cover
pieces read by ``io.cover_from_json`` (closures of faces checked against
the base), and the support subcomplex of ``cechlift holonomy`` (the
closure of a chain on the base).  Likewise ``Chain._trusted`` builds the
boundary of a chain in ``chain_boundary``: the faces of a validated
chain's simplices lie in its complex.

A complex stores its simplices as a frozenset and groups them by
dimension, sorted, on the first ``simplices_of_dim``, ``dim`` or
``euler_characteristic``; a nerve intersection that is only built is
never sorted.  The greedy collapse runs on a face graph of integer
indices (``_collapse_graph``): the simplices in (dimension, tuple)
order, the facet indices of each, and the count and xor of its coface
indices.  Each collapse builds its own graph and drops it; only the
sorted certificate is kept.
``nerve`` finds the pieces that meet a nerve simplex's intersection
through an index of the pieces at each vertex.

The cover and product constructors do work proportional to what they
output.  ``product_cover`` indexes each factor cover once as {base
simplex: ascending indices of the pieces holding it}, projects each
product simplex once to its pair of factor simplices and adds it to
piece i * len(cover_b) + j for every piece i at the first and j at the
second.  ``star_cover`` gathers every star in one pass over the
simplices: a simplex t at v and its facet t minus v lie in the star of v.
``product_complex`` and ``shuffle_product_chain`` build the staircase
paths of each pair of dimensions, and their shuffle signs, once per call,
and ``product_complex`` closes only the staircases of pairs of maximal
simplices.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass, field

from .abelian import Presentation, factor
from .errors import (
    DuplicateVertexInSimplex,
    InvalidComplex,
    InvalidCover,
    NotACycle,
)


def _group_by_dim(simplices):
    """``{dimension: simplices of that dimension in tuple order}``."""
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    return {d: tuple(sorted(v)) for d, v in by_dim.items()}


def _collapse_graph(complex_):
    """The face graph a greedy collapse runs on: (simplices, faces, count, xor).

    ``simplices`` in (dimension, tuple) order; ``faces[i]`` the indices of
    the facets of simplex i (none for a vertex); ``count[i]`` the number
    of its cofaces one dimension up and ``xor[i]`` the xor of their
    indices, which is the index of the coface when there is only one.
    """
    simplices = tuple(itertools.chain.from_iterable(
        complex_.simplices_of_dim(d) for d in range(complex_.dim + 1)
    ))
    index = {s: i for i, s in enumerate(simplices)}
    count = [0] * len(simplices)
    xor = [0] * len(simplices)
    faces = []
    for i, s in enumerate(simplices):
        fs = tuple(index[s[:j] + s[j + 1 :]] for j in range(len(s))) if len(s) > 1 else ()
        for f in fs:
            count[f] += 1
            xor[f] ^= i
        faces.append(fs)
    return simplices, tuple(faces), count, xor


def _greedy_collapse(graph, shuffle=None):
    """The (free face, coface) pairs of a greedy elementary collapse, or None.

    Runs on a ``_collapse_graph``.  Simplices are tried in (dimension,
    tuple) order, or in the order ``shuffle.shuffle`` makes of it; the
    smallest free face (a simplex with exactly one remaining proper
    coface, which is then maximal and one dimension up) is removed with
    its coface until none is left.  Removing a cell takes it out of the
    count and the xor of each of its facets, so a free face's coface is
    its xor, and a removed face has count 0.  The pairs are returned in
    collapse order when a single vertex remains, and None otherwise.
    The graph's counts and xors are used up.
    """
    simplices, faces, count, xor = graph
    n = len(simplices)
    if shuffle is None:
        order = rank = range(n)
    else:
        order = list(range(n))
        shuffle.shuffle(order)
        rank = [0] * n
        for r, i in enumerate(order):
            rank[i] = r
    free = [rank[i] for i in range(n) if count[i] == 1]
    heapq.heapify(free)
    push, pop = heapq.heappush, heapq.heappop
    pairs = []
    while free:
        sigma = order[pop(free)]
        if count[sigma] != 1:
            continue
        tau = xor[sigma]
        pairs.append((sigma, tau))
        for cell in (tau, sigma):
            for f in faces[cell]:
                c = count[f] = count[f] - 1
                xor[f] ^= cell
                if c == 1:
                    push(free, rank[f])
    if n - 2 * len(pairs) != 1:
        return None
    return tuple([(simplices[s], simplices[t]) for s, t in pairs])


_UNBUILT = object()


class SimplicialComplex:
    """A downward-closed set of strictly increasing vertex tuples."""

    __slots__ = ("vertex_count", "simplices", "_by_dim", "_factored", "_presented", "_collapse")

    def __init__(self, vertex_count, simplices):
        vertex_count = operator.index(vertex_count)
        simplices = frozenset(tuple(s) for s in simplices)
        for s in simplices:
            if not all(isinstance(v, int) for v in s):
                raise InvalidComplex(f"non-integer vertex in {s}")
            if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
                raise InvalidComplex(f"simplex {s} is not strictly increasing")
            if s and (s[0] < 0 or s[-1] >= vertex_count):
                raise InvalidComplex(f"vertex out of range in {s}")
        for s in simplices:
            for face in itertools.combinations(s, len(s) - 1):
                if face and face not in simplices:
                    raise InvalidComplex(f"missing face {face} of {s}")
        self._set(vertex_count, simplices)

    @classmethod
    def _trusted(cls, vertex_count, simplices):
        """A complex that is valid by construction; nothing is checked.

        ``vertex_count`` must be an int and ``simplices`` a downward-closed
        set of strictly increasing integer tuples with vertices in
        [0, vertex_count).
        """
        self = cls.__new__(cls)
        self._set(vertex_count, frozenset(simplices))
        return self

    def _set(self, vertex_count, simplices):
        self.vertex_count = vertex_count
        self.simplices = simplices
        self._by_dim = None
        self._factored = {}
        self._presented = {}
        self._collapse = _UNBUILT

    def _dims(self):
        """The simplices grouped by dimension, sorted on first use and kept."""
        if self._by_dim is None:
            self._by_dim = _group_by_dim(self.simplices)
        return self._by_dim

    def simplices_of_dim(self, d):
        return self._dims().get(d, ())

    @property
    def dim(self):
        return max(self._dims(), default=-1)

    def collapse(self, shuffle=None):
        """A collapse certificate: (free face, coface) pairs down to a vertex.

        A complex with a certificate is acyclic, and the pairs read in
        reverse are a chain contraction.  None when the greedy collapse
        stops early, which a complex that is not acyclic always does and
        an acyclic one (the dunce hat) may.  Each collapse runs on a face
        graph (``_collapse_graph``) built for it and dropped after.  The
        certificate of the sorted order is built on first use and kept.  A
        ``shuffle`` (a ``random.Random``) reorders the free faces of a
        fresh certificate, which is not kept.
        """
        if shuffle is not None:
            return _greedy_collapse(_collapse_graph(self), shuffle)
        if self._collapse is _UNBUILT:
            self._collapse = _greedy_collapse(_collapse_graph(self))
        return self._collapse

    def euler_characteristic(self):
        return sum((-1) ** d * len(v) for d, v in self._dims().items())

    def is_empty(self):
        return not self.simplices

    def has_simplex(self, s):
        return tuple(s) in self.simplices

    def is_subcomplex_of(self, other):
        return self.simplices <= other.simplices and self.vertex_count == other.vertex_count

    def coboundary_matrix(self, p):
        """Rows = (p+1)-simplices, columns = p-simplices, entries (-1)^j.

        One {column: +-1} dict per row, over the p + 2 faces of its
        simplex; the matrix has ``len(simplices_of_dim(p))`` columns.
        """
        if p < 0:
            return [{} for _ in self.simplices_of_dim(p + 1)]
        index = {s: i for i, s in enumerate(self.simplices_of_dim(p))}
        return [
            {index[s[:j] + s[j + 1 :]]: -1 if j % 2 else 1 for j in range(len(s))}
            for s in self.simplices_of_dim(p + 1)
        ]

    def factored_coboundary(self, p):
        """The Smith factorization (``abelian.factor``) of coboundary_matrix(p).

        Built on first use and kept by the complex, which is immutable;
        two threads that race here compute the same deterministic value.
        """
        fac = self._factored.get(p)
        if fac is None:
            fac = factor(self.coboundary_matrix(p), len(self.simplices_of_dim(p)))
            self._factored[p] = fac
        return fac

    def cohomology_presentation(self, p):
        """The presentation of the relations R of H^p, for every coefficient group.

        R is V_p^-1 @ delta_{p-1} past the rank of delta_p, one replay of
        the kept factorization's column log (its rows at the pivots are zero,
        as delta_p @ delta_{p-1} = 0), factored once and kept.  Where delta_p
        has rank 0, as in the top degree, V_p is the identity and R is
        delta_{p-1} itself: its kept factorization presents it, and no Smith
        call is made for R.
        """
        pres = self._presented.get(p)
        if pres is None:
            fac = self.factored_coboundary(p)
            r = len(fac.diag)
            if r:
                rows = fac.vinv_matrix(self.coboundary_matrix(p - 1))[r:]
                pres = Presentation.of(factor(rows, len(self.simplices_of_dim(p - 1))))
            else:
                pres = Presentation.of(self.factored_coboundary(p - 1))
            self._presented[p] = pres
        return pres

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
        return f"{type(self).__name__}(vertices={self.vertex_count}, counts={counts})"


def downward_closure(simplices):
    closed = set()
    for s in simplices:
        s = tuple(s)
        for k in range(1, len(s) + 1):
            closed.update(itertools.combinations(s, k))
    return closed


def maximal_simplices(simplices):
    """The simplices that are not a facet of any simplex, sorted."""
    facets = {s[:j] + s[j + 1 :] for s in simplices for j in range(len(s))}
    return [s for s in sorted(simplices) if s not in facets]


def validate_complex(raw, vertex_count=None):
    """Build the complex generated by the given simplices.

    Input tuples may be unsorted; repeating a vertex inside a tuple is
    an error, and so is a vertex outside [0, vertex_count).  The result is
    the downward closure, canonically ordered.
    """
    sorted_simplices = []
    largest = ()
    for s in raw:
        t = tuple(sorted(operator.index(v) for v in s))
        if len(set(t)) != len(t):
            raise DuplicateVertexInSimplex(f"repeated vertex in {tuple(s)}")
        if t and t[0] < 0:
            raise InvalidComplex(f"negative vertex in {tuple(s)}")
        if t and (not largest or t[-1] > largest[-1]):
            largest = t
        sorted_simplices.append(t)
    if vertex_count is None:
        vertex_count = largest[-1] + 1 if largest else 0
    vertex_count = operator.index(vertex_count)
    if largest and largest[-1] >= vertex_count:
        raise InvalidComplex(f"vertex out of range in {largest}")
    return SimplicialComplex._trusted(vertex_count, downward_closure(sorted_simplices))


@dataclass(frozen=True)
class Cover:
    """An ordered family of subcomplexes whose union is the base."""

    base: SimplicialComplex
    pieces: tuple
    _restrictions: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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

    def restricted_to(self, v):
        """(the cover of v by each piece cut down to v, its nerve).

        ``v`` must be a subcomplex of the base.  Built on first use and
        kept by the cover, which is immutable, so the restricted nerve and
        the collapse certificates of its intersections are built once per
        subcomplex.  Nothing is evicted: the cover holds one entry for
        every distinct ``v`` it was asked for, for as long as it lives.
        """
        kept = self._restrictions.get(v)
        if kept is None:
            pieces = tuple(
                SimplicialComplex._trusted(v.vertex_count, piece.simplices & v.simplices)
                for piece in self.pieces
            )
            cover_v = Cover(v, pieces)
            kept = self._restrictions[v] = (cover_v, nerve(cover_v))
        return kept


def star_cover(complex_):
    """One piece per vertex: the closed star of that vertex.

    The closed star of v is every simplex s with s union {v} in the
    complex, that is every t at v and every t minus {v}; it is downward
    closed and the pieces cover the base.  The stars are gathered in one
    pass over the simplices.
    """
    if complex_.is_empty():
        raise InvalidComplex("star cover of an empty complex")
    stars = {v: set() for (v,) in complex_.simplices_of_dim(0)}
    for t in complex_.simplices:
        for j, v in enumerate(t):
            star = stars[v]
            star.add(t)
            if len(t) > 1:
                star.add(t[:j] + t[j + 1 :])
    pieces = tuple(
        SimplicialComplex._trusted(complex_.vertex_count, star) for star in stars.values()
    )
    return Cover(complex_, pieces)


class Nerve(SimplicialComplex):
    """The complex on a cover's piece indices whose simplices are the index
    tuples with non-empty intersection.

    ``intersection_of`` maps each nerve simplex (its keys are exactly the
    simplices) to the corresponding intersection subcomplex.
    """

    __slots__ = ("cover", "intersection_of")

    def __init__(self, cover, intersection_of):
        super().__init__(len(cover.pieces), intersection_of)
        self.cover = cover
        self.intersection_of = dict(intersection_of)


def nerve(cover):
    """Enumerate every non-empty intersection, up to the full index set.

    Candidates of each dimension extend nerve simplices one index at a
    time; downward closure of the nerve makes this exhaustive.  Two
    subcomplexes meet exactly when they share a vertex, so a nerve
    simplex t is extended only by the pieces j > t[-1] that contain a
    vertex of its intersection, found through an index of the pieces at
    each vertex and tried in ascending order.
    """
    pieces = cover.pieces
    intersections = {}
    pieces_at = {}
    current = []
    for i, piece in enumerate(pieces):
        if not piece.is_empty():
            t = (i,)
            intersections[t] = piece
            current.append(t)
            for s in piece.simplices:
                if len(s) == 1:
                    pieces_at.setdefault(s[0], []).append(i)
    while current:
        nxt = []
        for t in current:
            inter = intersections[t].simplices
            last = t[-1]
            meeting = sorted({
                j for s in inter if len(s) == 1 for j in pieces_at[s[0]] if j > last
            })
            for j in meeting:
                cand = t + (j,)
                intersections[cand] = SimplicialComplex._trusted(
                    cover.base.vertex_count, inter & pieces[j].simplices
                )
                nxt.append(cand)
        current = nxt
    out = Nerve._trusted(len(pieces), intersections)
    out.cover = cover
    out.intersection_of = intersections
    return out


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def _staircases(p, q):
    """The monotone lattice paths through a (p+1) x (q+1) grid, with signs.

    Each path is a pair (its grid points (i, j) from (0, 0) to (p, q),
    its shuffle sign), in the lexicographic order of its move string with
    "R" (i + 1) before "U" (j + 1), which is the lexicographic order of
    the positions of its R moves.  The sign is -1 to the number of
    (U, R) pairs in the string, the inversions of the shuffle.
    """
    out = []
    for r_at in itertools.combinations(range(p + q), p):
        i, steps = 0, [(0, 0)]
        for k in range(p + q):
            i += i < p and r_at[i] == k
            steps.append((i, k + 1 - i))
        # the i-th R move, at position r_at[i], follows r_at[i] - i U moves
        inv = sum(r_at) - p * (p - 1) // 2
        out.append((tuple(steps), -1 if inv % 2 else 1))
    return out


def product_complex(a, b):
    """The staircase triangulation of the product, with vertex projections.

    Vertices are pairs (x, y) numbered x * b.vertex_count + y; each cell
    sigma x tau of maximal simplices is triangulated by the monotone
    staircase paths of its grid, built once per pair of dimensions (a
    staircase of faces is a face of one of these).  Returns (complex,
    proj_a, proj_b) where the projections map product vertex ids to
    factor vertex ids.
    """
    if a.is_empty() or b.is_empty():
        raise InvalidComplex("product of an empty complex")
    nb = b.vertex_count
    tops_b = maximal_simplices(b.simplices)
    staircases = {}
    top = set()
    for sa in maximal_simplices(a.simplices):
        p = len(sa) - 1
        xa = [x * nb for x in sa]
        for sb in tops_b:
            key = (p, len(sb) - 1)
            paths = staircases.get(key)
            if paths is None:
                paths = staircases[key] = _staircases(*key)
            for steps, _ in paths:
                top.add(tuple([xa[i] + sb[j] for i, j in steps]))
    product = SimplicialComplex._trusted(a.vertex_count * nb, downward_closure(top))
    proj_a = tuple(x // nb for x in range(a.vertex_count * nb))
    proj_b = tuple(x % nb for x in range(a.vertex_count * nb))
    return product, proj_a, proj_b


def _pieces_at(cover):
    """``{base simplex: ascending indices of the pieces holding it}``."""
    at = {}
    for i, piece in enumerate(cover.pieces):
        for s in piece.simplices:
            at.setdefault(s, []).append(i)
    return at


def product_cover(cover_a, cover_b):
    """Cover of the product by staircase products of pieces, indexed by pairs.

    Piece i * len(cover_b) + j holds the product simplices whose
    projections lie in piece i of ``cover_a`` and piece j of ``cover_b``.
    Each product simplex is projected once and added to every piece at
    its pair of projections, found through an index of the pieces at
    each simplex of either factor.
    """
    product, _, _ = product_complex(cover_a.base, cover_b.base)
    nb = cover_b.base.vertex_count
    at_a, at_b = _pieces_at(cover_a), _pieces_at(cover_b)
    width = len(cover_b.pieces)
    simps = [set() for _ in range(len(cover_a.pieces) * width)]
    for s in product.simplices:
        sa = tuple(sorted({v // nb for v in s}))
        sb = tuple(sorted({v % nb for v in s}))
        js = at_b[sb]
        for i in at_a[sa]:
            row = i * width
            for j in js:
                simps[row + j].add(s)
    pieces = tuple(SimplicialComplex._trusted(product.vertex_count, ps) for ps in simps)
    return Cover(product, pieces)


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
            c = operator.index(c)
            if c:
                coeffs[s] = c
        object.__setattr__(self, "coefficients", coeffs)

    def __add__(self, other):
        if self.complex != other.complex or self.degree != other.degree:
            raise NotACycle("cannot add chains of different carriers")
        out = dict(self.coefficients)
        for s, c in other.coefficients.items():
            out[s] = out.get(s, 0) + c
        return Chain(self.complex, self.degree, out)

    @classmethod
    def _trusted(cls, complex_, degree, coefficients):
        """A chain that is valid by construction; nothing is checked.

        Every key must be a degree-``degree`` simplex of ``complex_`` and
        every coefficient a nonzero int.
        """
        self = cls.__new__(cls)
        object.__setattr__(self, "complex", complex_)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coefficients", coefficients)
        return self

    def items(self):
        return sorted(self.coefficients.items())


def chain_boundary(chain):
    """The alternating-face boundary of a chain.

    The faces of a chain's simplices lie in its complex, so the result is
    built by ``Chain._trusted``; a vertex's only face is empty and adds
    nothing.
    """
    out = {}
    for s, c in chain.coefficients.items():
        if len(s) < 2:
            continue
        for j in range(len(s)):
            face = s[:j] + s[j + 1 :]
            out[face] = out.get(face, 0) + (-c if j & 1 else c)
    return Chain._trusted(
        chain.complex, chain.degree - 1, {s: c for s, c in out.items() if c}
    )


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
        sign = operator.index(signs[s])
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
    paths = _staircases(p, q)
    coeffs = {}
    for sa, ca in za.coefficients.items():
        xa = [x * nb for x in sa]
        for sb, cb in zb.coefficients.items():
            c = ca * cb
            for steps, sign in paths:
                t = tuple([xa[i] + sb[j] for i, j in steps])
                coeffs[t] = coeffs.get(t, 0) + sign * c
    coeffs = {s: c for s, c in coeffs.items() if c}
    return Chain(product, p + q, coeffs)
