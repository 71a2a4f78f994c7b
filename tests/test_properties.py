"""Property tests: independent routes to the same cohomology and solutions.

Random small complexes (and random subcomplexes of the minimal RP^2,
which carry 2-torsion) are drawn by ``hypothesis``.  The Z/m answers of
the diagonal Smith solve are checked against the universal coefficient
theorem, against the coboundary that produced them, and against the
augmented ``[A | m*I]`` solve and exhaustive search; class coordinates
over Z/m and mixed groups read back the combination of generators that
made a cocycle; the Q and Q/Z
answers, computed on integers, against back-substitution in Fractions.
The Smith kernel is checked against the Euler characteristic, which
counts simplices, and against barycentric subdivision, which factors
other matrices for the same groups; the transforms replayed from its
log equal those of the dense kernel in ``snf_oracle`` bit for bit, on
random integer matrices and on coboundary matrices, whose sparse rows
equal the face incidence term by term; the subdivision and the dual block
cover against a brute-force enumeration of face-poset chains.  Giraud obstructions of random transition cocycles on
the shipped nerves obey the cocycle law, and their classes do not depend
on the section of the extension; over random extensions (the
non-abelian S3 and the Klein four-group among the bases), with and
without a section twist, the Giraud cocycle and the lift equal the
per-triangle construction of ``extension_oracle``; a tower run, one
lift per level, gives the entries and status of the class-first run in
``tower_oracle``, with and without witness shifts, and a lift is
refused exactly when the Giraud class is nonzero.  A collapse of a cover
intersection by the set-based ``collapse_oracle`` implies the invariant
factors find it acyclic, and the oracle's contraction solves D v = rhs
exactly; the collapse on face indices collapses exactly the complexes
that the oracle collapses, sorted or shuffled.  The nerve of the dual block cover of a complex is that
complex, and the nerve built through the vertex index equals the
brute-force nerve, key order included; the loader's count of the
nerve's intersections is the sum of their sizes, and a cover file is
admitted exactly when its closure, its pieces and its nerve are within
the budget for the vertex ids it lists.  Product covers (of random
covers and of one-piece covers, piece order included), star covers (with
isolated vertices), product complexes and shuffle chains of random
cycles equal the quadratic constructors of ``cover_oracle``.  The coboundary summed on plain coordinates
(integer numerators over Q and Q/Z)
equals the term-by-term face sum of ``cochain_oracle`` over Z, Z/2, Z/6,
Z + Z/2, Z/2 + Z/4 + Z, Q and Q/Z, and ``is_coboundary`` refuses exactly the
non-cocycles and finds a witness exactly for the exact cocycles; both
hold only reduced nonzero values (Q/Z values are Fractions in (0, 1)); its
witnesses and refusals, class coordinates and generators equal the
per-coefficient-type routes of ``cochain_oracle``, and so do cup
products, or both sides refuse the pair of groups.  The
Deligne double complex on integer numerators gives the layers,
potentials, residual, global form and holonomy of the Fraction
arithmetic in ``deligne_oracle``, and holonomy's flag sum equals the
trivialization's global form paired with the cycle under random gauge
moves and shuffled piece assignments.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechlift import abelian, fixtures, io, kernels
from cechlift.abelian import CIRCLE, QQ, CircleElement, FgAbelianGroup
from cechlift.cochains import (
    Cochain,
    coboundary,
    cohomology_classes,
    cup,
    is_coboundary,
    verify_good_cover,
)
from cechlift.complexes import (
    Chain,
    Cover,
    SimplicialComplex,
    chain_boundary,
    downward_closure,
    nerve,
    product_complex,
    product_cover,
    shuffle_product_chain,
    star_cover,
    validate_complex,
)
from cechlift.deligne import (
    DelignePackage,
    DoubleCochain,
    _d,
    _delta,
    _flag_step,
    _min_piece_assignment,
    add_exact_datum,
    add_global_datum,
    cech_delta,
    descent_chain,
    form_d,
    holonomy,
    pair,
    shift_cocycle,
)
from cechlift.errors import FormatError, NoProduct, NotACocycle
from cechlift.tower import (
    ExtensionTower,
    FiniteGroup,
    Obstruction,
    TransitionCocycle,
    giraud_obstruction,
    lift_transitions,
    obstruction_class,
    split_extension,
    tower_obstructions,
)

from conftest import (
    connected_component_count,
    dense_coboundary,
    dunce_hat,
    oracle_augmented_solve,
    oracle_invariant_factors,
    oracle_fraction_back_substitute,
    oracle_goodness_failures,
    random_cochain,
    random_cover,
    random_extension,
)
import cochain_oracle
import collapse_oracle
import cover_oracle
import deligne_oracle
import extension_oracle
import snf_oracle
import tower_oracle
from snf_oracle import dense, sparse

SETTINGS = settings(max_examples=60, deadline=None)

RP2_TRIANGLES = sorted(fixtures.rp2_minimal().simplices_of_dim(2))


@st.composite
def complexes(draw):
    """A random complex on up to 6 vertices, or a random piece of RP^2."""
    if draw(st.booleans()):
        faces = draw(
            st.lists(st.sampled_from(RP2_TRIANGLES), min_size=1, max_size=10, unique=True)
        )
        return validate_complex(faces, vertex_count=6)
    n = draw(st.integers(2, 6))
    cells = draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), min_size=1, max_size=6)
    )
    return validate_complex([tuple(sorted(c)) for c in cells], vertex_count=n)


moduli = st.sampled_from([2, 3, 4, 6, 9])


def _uct_prediction(h_p, h_next, m):
    """H^p(Z) (x) Z/m + Tor(H^{p+1}(Z), Z/m), in invariant-factor form."""
    raw = [m if d == 0 else gcd(d, m) for d in h_p.moduli]
    raw += [gcd(d, m) for d in h_next.moduli if d]
    return abelian.canonical_presentation(raw).group


@SETTINGS
@given(complexes(), moduli)
def test_mod_m_cohomology_obeys_universal_coefficients(k, m):
    z = FgAbelianGroup((0,))
    for p in range(k.dim + 1):
        h_p = cohomology_classes(k, z, p).group
        h_next = cohomology_classes(k, z, p + 1).group
        got = cohomology_classes(k, FgAbelianGroup((m,)), p).group
        assert got == _uct_prediction(h_p, h_next, m), (p, h_p, h_next)


#: Cyclic and mixed coefficient groups.  Z/2 + Z/3 is not in
#: invariant-factor form; it enters as the Z/6 it is isomorphic to.
COEFFICIENTS = [FgAbelianGroup((m,)) for m in (2, 3, 4, 6, 9)] + [
    FgAbelianGroup((2, 4)),
    FgAbelianGroup((3, 6)),
    abelian.canonical_presentation([2, 3]).group,
    FgAbelianGroup((4, 0)),
]


@SETTINGS
@given(complexes(), st.sampled_from(COEFFICIENTS), st.randoms(use_true_random=False))
def test_class_coordinates_read_combinations_of_generators(k, group, rng):
    """Generators are cocycles with unit coordinates, and the class of
    a_1 g_1 + ... + a_n g_n + delta y has coordinates a reduced by the orders."""
    for p in range(k.dim + 1):
        classes = cohomology_classes(k, group, p)
        gens = classes.generators()
        for i, g in enumerate(gens):
            assert coboundary(g).is_zero()
            assert classes.class_coords(g) == tuple(int(i == j) for j in range(len(gens)))
        a = [rng.randint(-20, 20) for _ in gens]
        x = coboundary(random_cochain(rng, k, group, p - 1)) if p else Cochain(k, 0, group)
        for ai, g in zip(a, gens):
            x = x + Cochain(k, p, group, {s: ai * v for s, v in g.values.items()})
        orders = classes.group.moduli
        assert classes.class_coords(x) == tuple(ai % o if o else ai for ai, o in zip(a, orders))


#: Complexes of dimension at most 2, so that their subdivisions stay small.
surfaces = complexes().filter(lambda k: k.dim <= 2)


@SETTINGS
@given(surfaces)
def test_euler_characteristic_is_alternating_sum_of_free_ranks(k):
    z = FgAbelianGroup((0,))
    ranks = [cohomology_classes(k, z, p).group.moduli.count(0) for p in range(k.dim + 1)]
    assert k.euler_characteristic() == sum((-1) ** p * r for p, r in enumerate(ranks))


@SETTINGS
@given(
    st.one_of(
        complexes().filter(lambda k: len(k.simplices_of_dim(0)) == k.vertex_count),
        st.sampled_from([fixtures.rp2_minimal(), fixtures.boundary_delta3()]),
    )
)
def test_nerve_of_the_dual_block_cover_is_the_complex(k):
    """The pieces of vertices v_0..v_q meet exactly when v_0..v_q span a simplex."""
    assert nerve(fixtures.dual_block_cover(k)) == k


def _face_poset_chains(k):
    """Every chain s_0 < s_1 < ... of simplices of k, by brute force."""
    by_dim = [k.simplices_of_dim(d) for d in range(k.dim + 1)]
    for size in range(1, k.dim + 2):
        for dims in itertools.combinations(range(k.dim + 1), size):
            for chain in itertools.product(*(by_dim[d] for d in dims)):
                if all(set(a) < set(b) for a, b in zip(chain, chain[1:])):
                    yield chain


@SETTINGS
@given(
    st.one_of(
        complexes().filter(lambda k: len(k.simplices_of_dim(0)) == k.vertex_count),
        st.sampled_from([fixtures.rp2_minimal(), fixtures.boundary_delta3()]),
    )
)
def test_subdivision_and_dual_blocks_match_brute_force_chains(k):
    """bsd(k) is the complex of face-poset chains, vertices numbered in
    (dimension, tuple) order, and piece v of the dual block cover holds the
    chains whose minimal simplex contains v."""
    bsd, vertex_of = fixtures.barycentric_subdivision(k)
    order = sorted(k.simplices, key=lambda s: (len(s), s))
    assert vertex_of == {s: i for i, s in enumerate(order)}
    chains = list(_face_poset_chains(k))
    assert bsd.vertex_count == len(order)
    assert bsd.simplices == {tuple(vertex_of[s] for s in c) for c in chains}
    cover = fixtures.dual_block_cover(k)
    assert cover.base.simplices == bsd.simplices
    assert [piece.simplices for piece in cover.pieces] == [
        {tuple(vertex_of[s] for s in c) for c in chains if v in c[0]}
        for (v,) in k.simplices_of_dim(0)
    ]


def _same_pieces(got, want):
    """Equal bases and equal pieces in the same order."""
    assert got.base == want.base
    assert len(got.pieces) == len(want.pieces)
    for i, (g, w) in enumerate(zip(got.pieces, want.pieces)):
        assert (g.vertex_count, g.simplices) == (w.vertex_count, w.simplices), i


@settings(max_examples=40, deadline=None)
@given(complexes(), complexes(), st.randoms(use_true_random=False), st.booleans())
def test_product_cover_matches_the_quadratic_oracle(a, b, rng, one_piece):
    """The piece (i, j) of the indexed product cover is the oracle's, for
    random covers and with a one-piece cover on either side."""
    ca = random_cover(rng, a)
    cb = Cover(b, (b,)) if one_piece else random_cover(rng, b)
    for x, y in ((ca, cb), (cb, ca)):
        _same_pieces(product_cover(x, y), cover_oracle.product_cover(x, y))


@SETTINGS
@given(complexes(), st.integers(0, 2), st.integers(0, 1))
def test_star_cover_matches_the_quadratic_oracle(k, isolated, unused):
    """The stars gathered in one pass are the oracle's, one per vertex in
    order, also with isolated vertices and with vertex ids that are not
    simplices."""
    n = k.vertex_count
    k = validate_complex(
        sorted(k.simplices) + [(n + i,) for i in range(isolated)],
        vertex_count=n + isolated + unused,
    )
    _same_pieces(star_cover(k), cover_oracle.star_cover(k))


def _random_cycle(data, k):
    """A random integer cycle on k: a 0-chain or the boundary of a chain."""
    d = data.draw(st.integers(0, k.dim))
    coeffs = {s: data.draw(st.integers(-2, 2)) for s in k.simplices_of_dim(d)}
    chain = Chain(k, d, coeffs)
    return chain if d == 0 else chain_boundary(chain)


@SETTINGS
@given(complexes(), complexes(), st.data())
def test_product_complex_and_shuffle_chain_match_the_staircase_oracle(a, b, data):
    """The staircases built once per call give the oracle's product complex,
    projections and shuffle chain of random cycles, coefficient order included."""
    got = product_complex(a, b)
    assert got == cover_oracle.product_complex(a, b)
    za, zb = _random_cycle(data, a), _random_cycle(data, b)
    chain = shuffle_product_chain(za, zb, got[0], a.vertex_count)
    want = cover_oracle.shuffle_product_chain(za, zb, got[0], a.vertex_count)
    assert chain == want
    assert list(chain.coefficients) == list(want.coefficients)


@SETTINGS
@given(surfaces, moduli)
def test_cohomology_is_invariant_under_subdivision(k, m):
    bsd, _ = fixtures.barycentric_subdivision(k)
    for coefficients in (FgAbelianGroup((0,)), FgAbelianGroup((m,))):
        for p in range(k.dim + 1):
            assert (
                cohomology_classes(bsd, coefficients, p).group
                == cohomology_classes(k, coefficients, p).group
            ), (p, coefficients)


@st.composite
def integer_matrices(draw):
    """(rows, ncols): entries in -6..6 times a scale, so that pivots need
    not be units, with some rows and columns zeroed; 0 x n has no rows
    and n x 0 has n empty rows."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    scale = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
    zero_rows = draw(st.sets(st.integers(0, 5), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 5), max_size=2))
    mat = [
        [0 if i in zero_rows or j in zero_cols else scale * draw(st.integers(-6, 6)) for j in range(cols)]
        for i in range(rows)
    ]
    return sparse(mat), cols


def _agrees_with_the_dense_oracle(rows, n):
    """The library kernel on the {column: value} rows and the dense kernel
    on their list of lists agree: U, S, V, U^-1 and V^-1 replayed from the
    log equal the dense kernel's bit for bit; the verify check holds; and
    V^-1 of a whole matrix replayed on rows equals the dense product."""
    m, mat = len(rows), dense(rows, n)
    fac = kernels.snf_with_transforms(rows, n)
    oracle = snf_oracle.snf_with_transforms(mat, n)
    assert snf_oracle.materialize(fac, m, n) == oracle
    assert fac.is_factorization_of(rows)
    d = snf_oracle.transpose(mat, n)
    assert dense(fac.vinv_matrix(sparse(d)), m) == snf_oracle.mat_mul(oracle[4], d)


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_logged_kernel_matches_the_dense_oracle(matrix):
    _agrees_with_the_dense_oracle(*matrix)


@SETTINGS
@given(complexes())
def test_logged_kernel_matches_the_dense_oracle_on_incidence_matrices(k):
    for p in range(k.dim + 1):
        _agrees_with_the_dense_oracle(k.coboundary_matrix(p), len(k.simplices_of_dim(p)))


@SETTINGS
@given(complexes())
def test_coboundary_matrix_is_the_face_incidence(k):
    """Row t of delta_p holds [t : s] = (-1)^j at each face s of t, the
    face without vertex j: p + 2 entries of +-1 and no stored zero."""
    for p in range(k.dim):
        cols = k.simplices_of_dim(p)
        rows = k.coboundary_matrix(p)
        assert len(rows) == len(k.simplices_of_dim(p + 1))
        for t, row in zip(k.simplices_of_dim(p + 1), rows):
            oracle = {}
            for j in range(len(t)):
                face = t[:j] + t[j + 1 :]
                oracle[cols.index(face)] = oracle.get(cols.index(face), 0) + (-1) ** j
            assert row == oracle
            assert len(row) == p + 2
            assert all(x in (1, -1) for x in row.values())


def _cycle(n):
    return validate_complex([(i, (i + 1) % n) for i in range(n)])


NAMED_COMPLEXES = {
    "bsd_rp2": lambda: fixtures.barycentric_subdivision(fixtures.rp2_minimal())[0],
    "torus36": lambda: product_complex(_cycle(6), _cycle(6))[0],
    "c6xc8": lambda: product_complex(_cycle(6), _cycle(8))[0],
}


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("name", sorted(NAMED_COMPLEXES))
def test_logged_kernel_matches_the_dense_oracle_on_ladder_complexes(name, p):
    k = NAMED_COMPLEXES[name]()
    _agrees_with_the_dense_oracle(k.coboundary_matrix(p), len(k.simplices_of_dim(p)))


@SETTINGS
@given(complexes(), moduli, st.data())
def test_coboundaries_get_mod_m_witnesses(k, m, data):
    group = FgAbelianGroup((m, 2 * m)) if data.draw(st.booleans()) else FgAbelianGroup((m,))
    p = data.draw(st.integers(1, max(1, k.dim)))
    values = {
        s: tuple(data.draw(st.integers(-20, 20)) for _ in group.moduli)
        for s in k.simplices_of_dim(p - 1)
    }
    x = coboundary(Cochain(k, p - 1, group, values))
    w = is_coboundary(x)
    assert w is not None
    assert coboundary(w) == x
    assert all(0 <= c < mod for v in w.values.values() for c, mod in zip(v.coords, group.moduli))


#: Z, Z/2, Z/6, Z + Z/2, Z/2 + Z/4 + Z, Q and Q/Z.
RAW_GROUPS = [FgAbelianGroup(m) for m in ((0,), (2,), (6,), (2, 0), (2, 4, 0))] + [QQ, CIRCLE]
Z = FgAbelianGroup((0,))

#: Random complexes, or a circle, RP^2 and a 2-sphere, whose cocycles
#: are often not exact.
carriers = st.one_of(
    complexes(),
    st.sampled_from([fixtures.hexagon(), fixtures.rp2_minimal(), fixtures.boundary_delta3()]),
)


def _assert_reduced(group, values):
    """Every value is a nonzero element of the group in reduced form: fg
    coordinates in [0, m) for each modulus m, a Q value a Fraction (in
    lowest terms, as every Fraction is), a Q/Z value such a Fraction in
    (0, 1)."""
    for v in values.values():
        assert v != group.zero()
        if isinstance(group, FgAbelianGroup):
            assert all(0 <= c < m for c, m in zip(v.coords, group.moduli) if m)
        else:
            x = v.value if group == CIRCLE else v
            assert type(x) is Fraction and gcd(x.numerator, x.denominator) == 1
            assert group != CIRCLE or 0 < x < 1


def _draw_cochain(data, k, group, p):
    """A cochain with random values on every simplex or on a random
    support (built by the validating constructor)."""
    simps = k.simplices_of_dim(p)
    if simps and not data.draw(st.booleans()):
        simps = data.draw(st.lists(st.sampled_from(simps), unique=True))
    if isinstance(group, FgAbelianGroup):
        value = st.tuples(*(st.integers(-8, 8) for _ in group.moduli))
    else:
        value = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6))
    return Cochain(k, p, group, {s: data.draw(value) for s in simps})


@SETTINGS
@given(carriers, st.sampled_from(RAW_GROUPS), st.data())
def test_coboundary_matches_the_term_by_term_oracle(k, group, data):
    """Sums of plain coordinates (over Q and Q/Z, of integer numerators over
    one denominator), reduced once, equal the element-wise face sum and
    hold only reduced nonzero values."""
    x = _draw_cochain(data, k, group, data.draw(st.integers(0, k.dim)))
    dx = coboundary(x)
    assert (dx.degree, dx.group) == (x.degree + 1, group)
    assert dx.values == cochain_oracle.coboundary(x).values
    _assert_reduced(group, dx.values)


def _cocycle(data, k, group, p):
    """A cocycle whose exactness is known from elsewhere.

    Over an fg group: a random combination of the generators of H^p, to
    be read back by ``class_coords``.  Over Q and Q/Z: half of a free
    generator of H^p(Z), which is not exact, or None without one.
    """
    if isinstance(group, FgAbelianGroup):
        x = Cochain(k, p, group)
        for g in cohomology_classes(k, group, p).generators():
            a = data.draw(st.integers(1, 4))
            x = x + Cochain(k, p, group, {s: a * v for s, v in g.values.items()})
        return x
    classes = cohomology_classes(k, Z, p)
    free = [g for g, o in zip(classes.generators(), classes.group.moduli) if o == 0]
    if not free:
        return None
    g = data.draw(st.sampled_from(free))
    return Cochain(k, p, group, {s: Fraction(v.coords[0], 2) for s, v in g.values.items()})


@settings(max_examples=200, deadline=None)
@given(carriers, st.sampled_from(RAW_GROUPS), st.data())
def test_is_coboundary_decides_exactness_and_refuses_non_cocycles(k, group, data):
    """NotACocycle exactly when delta x != 0 (degree 0, degrees without
    simplices and higher degrees alike); otherwise a witness exactly when
    x is exact, and it solves delta w = x with reduced nonzero values.
    The witness or refusal, the class coordinates and the generators
    equal those of the oracle."""
    # degree 0, a degree without simplices, and twice as often each degree between
    p = data.draw(st.sampled_from([0, k.dim + 1, *range(1, k.dim + 1), *range(1, k.dim + 1)]))
    kind = data.draw(st.sampled_from(["random", "exact", "cocycle"]))
    x = _cocycle(data, k, group, p) if kind == "cocycle" else None
    inexact = x is not None and not isinstance(group, FgAbelianGroup)
    if x is None:
        x = Cochain(k, p, group) if kind == "exact" else _draw_cochain(data, k, group, p)
    if p and kind != "random":
        x = x + coboundary(_draw_cochain(data, k, group, p - 1))
    if not cochain_oracle.coboundary(x).is_zero():
        for decide in (is_coboundary, cochain_oracle.is_coboundary):
            with pytest.raises(NotACocycle):
                decide(x)
        return
    w = is_coboundary(x)
    assert w == cochain_oracle.is_coboundary(x)
    if isinstance(group, FgAbelianGroup):
        classes = cohomology_classes(k, group, p)
        coords = classes.class_coords(x)
        assert coords == cochain_oracle.class_coords(classes, x)
        assert classes.generators() == cochain_oracle.generators(classes)
    if p == 0:
        assert (w is not None) == x.is_zero()
    elif isinstance(group, FgAbelianGroup):
        assert (w is not None) == (not any(coords))
    elif kind == "exact" or inexact:
        assert (w is not None) == (kind == "exact")
    if w is not None:
        assert coboundary(w) == x
        _assert_reduced(group, w.values)


#: Z, Z/2, Z/3, Q, Q/Z and Z/2 + Z/2: every declared product and refusals.
CUP_GROUPS = [FgAbelianGroup(m) for m in ((0,), (2,), (3,), (2, 2))] + [QQ, CIRCLE]


@SETTINGS
@given(carriers, st.data())
def test_cup_equals_the_product_table_oracle(k, data):
    """On every pair of groups, products of split values joined by the
    target equal the table's per-pair products, or both sides refuse the
    pair with the same NoProduct."""
    p = data.draw(st.integers(0, k.dim))
    q = data.draw(st.integers(0, k.dim - p))
    fronts = [_draw_cochain(data, k, g, p) for g in CUP_GROUPS]
    backs = [_draw_cochain(data, k, g, q) for g in CUP_GROUPS]
    for a, b in itertools.product(fronts, backs):
        try:
            expected = cochain_oracle.cup(a, b)
        except NoProduct as refusal:
            with pytest.raises(NoProduct, match=re.escape(str(refusal))):
                cup(a, b)
            continue
        assert cup(a, b) == expected


@SETTINGS
@given(st.sampled_from(CUP_GROUPS), st.data())
def test_split_gives_ints_over_one_denominator_that_join_inverts(group, data):
    """``split`` gives one map of ints per ring over n: 1 for an fg group,
    the lcm of the denominators over Q and Q/Z; ``join`` gives back the
    values."""
    if isinstance(group, FgAbelianGroup):
        value = st.tuples(*(st.integers(-8, 8) for _ in group.moduli))
    else:
        value = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 12))
    drawn = data.draw(st.dictionaries(st.integers(0, 20), value, max_size=8))
    values = {k: group.element(v) for k, v in drawn.items()}
    values = {k: v for k, v in values.items() if v != group.zero()}
    maps, n = group.split(values)
    assert len(maps) == len(group.rings)
    assert all(type(x) is int for raw in maps for x in raw.values()) and type(n) is int
    if isinstance(group, FgAbelianGroup):
        assert n == 1
    else:
        fractions = [v.value if group == CIRCLE else v for v in values.values()]
        assert n == lcm(*(x.denominator for x in fractions))
    assert group.join(maps, n) == values


small_systems = st.integers(1, 3).flatmap(
    lambda rows: st.integers(1, 3).flatmap(
        lambda cols: st.tuples(
            st.lists(
                st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            ),
            st.lists(st.integers(-6, 6), min_size=rows, max_size=rows),
        )
    )
)


@settings(max_examples=300, deadline=None)
@given(small_systems, st.integers(2, 12))
def test_diagonal_mod_m_solve_agrees_with_augmented_solve(system, m):
    mat, b = system
    rows, n = sparse(mat), len(mat[0])
    x = abelian.solve(rows, b, m, n)
    assert (x is None) == (oracle_augmented_solve(rows, n, b, m) is None)
    if m <= 6:
        feasible = any(
            all((sum(a * c for a, c in zip(row, cand)) - bi) % m == 0 for row, bi in zip(mat, b))
            for cand in itertools.product(range(m), repeat=len(mat[0]))
        )
        assert (x is not None) == feasible
    if x is not None:
        assert all(0 <= xi < m for xi in x)
        assert all((ax - bi) % m == 0 for ax, bi in zip(abelian.mat_vec(mat, x), b))


rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 8, 9]))


@st.composite
def rational_systems(draw):
    """(A, b): a small integer matrix A, often with invariant factors > 1, and b rational.

    Half the time b = A x + k for a rational x and an integer vector k,
    so the system is solvable over Q/Z (and over Q when k = 0); otherwise
    b is drawn freely, with mixed denominators.
    """
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
    entries = st.integers(-4, 4)
    mat = [[scale * draw(entries) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        x = [draw(rationals) for _ in range(cols)]
        shift = draw(st.lists(st.sampled_from([0, 0, 1, -2]), min_size=rows, max_size=rows))
        b = [sum(a * xi for a, xi in zip(row, x)) + k for row, k in zip(mat, shift)]
    else:
        b = [draw(rationals) for _ in range(rows)]
    return mat, b


@settings(max_examples=200, deadline=None)
@given(rational_systems(), st.sampled_from(["Q", "Q/Z"]))
def test_integer_back_substitution_matches_fraction_oracle(system, ring):
    """Clearing denominators once gives the Fraction solution, value for value."""
    mat, b = system
    rows, n = sparse(mat), len(mat[0])
    x = abelian.solve(rows, b, ring, n)
    assert x == oracle_fraction_back_substitute(rows, n, b, ring)
    if x is not None:
        assert all(type(xi) is Fraction for xi in x)


#: The shipped nerves: the three-arc cover of the hexagon, the dual-block
#: cover of RP^2 and the torus product cover.
NERVES = (
    nerve(fixtures.three_arc_cover()),
    fixtures.rp2_good_cover()[1],
    nerve(fixtures.torus_product()[1]),
)

#: The shipped extensions: Z/2 by Z/2 (total Z/4), Z/4 by Z/2 (total Z/8)
#: and the third level of the Z/2 tower (total Z/16).
EXTENSIONS = (
    fixtures.z2_z4_extension(),
    fixtures.z2_tower(2).extensions[1],
    fixtures.z2_tower(3).extensions[2],
)


def _power(group, a, k):
    out = group.identity
    for _ in range(k):
        out = group.mul(out, a)
    return out


def _order(group, a):
    return next(k for k in range(1, group.order + 1) if _power(group, a, k) == group.identity)


def random_transitions(randrange, nrv, base):
    """g_ij = h_i^-1 a^w(ij) h_j, w a random Z/ord(a) 1-cocycle, h a random gauge.

    w is a random combination of the generators of H^1(nerve; Z/ord(a)),
    so that nontrivial bundles are drawn as well as trivial ones.
    ``randrange(n)`` draws each number in [0, n).
    """
    a = randrange(base.order)
    d = _order(base, a)
    gens = cohomology_classes(nrv, FgAbelianGroup((d,)), 1).generators() if d > 1 else []
    weights = [randrange(d) for _ in gens]
    h = [randrange(base.order) for _ in nrv.cover.pieces]
    values = {}
    for e in nrv.simplices_of_dim(1):
        w = sum(k * gen.value(e).coords[0] for k, gen in zip(weights, gens))
        values[e] = base.mul(base.mul(base.inv(h[e[0]]), _power(base, a, w % d)), h[e[1]])
    return TransitionCocycle(nrv, base, values)


def _drawn(draw):
    return lambda n: draw(st.integers(0, n - 1))


@st.composite
def transition_cocycles(draw, nrv, base):
    return random_transitions(_drawn(draw), nrv, base)


def random_twist(randrange, ext):
    """A random normalized section twist: a kernel element per base
    element, zero on the identity."""
    twist = {a: ext.kernel.zero() for a in range(ext.base.order)}
    for a in twist:
        if a != ext.base.identity:
            twist[a] = ext.kernel.element(tuple(randrange(m) for m in ext.kernel.moduli))
    return twist.__getitem__


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(NERVES), st.sampled_from(EXTENSIONS), st.data())
def test_giraud_obstruction_is_a_cocycle_whose_class_ignores_the_section(nrv, ext, data):
    g = data.draw(transition_cocycles(nrv, ext.base))
    twist = random_twist(_drawn(data.draw), ext)
    c = giraud_obstruction(g, ext)
    twisted = giraud_obstruction(g, ext, section_twist=twist)
    assert coboundary(c).is_zero() and coboundary(twisted).is_zero()
    coords = obstruction_class(c).coords
    assert obstruction_class(twisted).coords == coords
    assert (is_coboundary(c) is None) == any(coords)


@pytest.mark.parametrize("twisted", [False, True], ids=["section", "twisted"])
@pytest.mark.parametrize("nrv", NERVES, ids=["circle", "rp2", "torus"])
def test_giraud_and_lift_equal_the_per_triangle_oracle(nrv, twisted):
    """One lift per canonical edge on the total's table gives the cocycle of
    three lifts per triangle, and the lift read through ``value``.

    The inputs come from seeded generators, not shrinking draws, so that
    the non-abelian S3 base of ``random_extension`` (seeds 0, 2, 6, 23)
    meets transitions that do not commute.
    """
    for seed in range(30):
        rng = random.Random(seed)
        ext = random_extension(rng)
        g = random_transitions(rng.randrange, nrv, ext.base)
        twist = random_twist(rng.randrange, ext) if twisted else None
        assert giraud_obstruction(g, ext, section_twist=twist) == (
            extension_oracle.giraud_obstruction(g, ext, section_twist=twist)
        ), seed
        got, want = lift_transitions(g, ext), extension_oracle.lift_transitions(g, ext)
        assert type(got) is type(want), seed
        if isinstance(want, Obstruction):
            assert got.cocycle == want.cocycle, seed
            assert (got.cohomology, got.coords) == (want.cohomology, want.coords), seed
        else:
            assert (got.nerve, got.group, got.g) == (want.nerve, want.group, want.g), seed


def _split_tower():
    ext1 = split_extension(FiniteGroup.cyclic(2), FgAbelianGroup((2, 2)))
    return ExtensionTower([ext1, split_extension(ext1.total, FgAbelianGroup((2,)))])


#: The Z/2 towers of one to three levels and a split tower whose first
#: kernel is Z/2 + Z/2.
TOWERS = (*(fixtures.z2_tower(n) for n in (1, 2, 3)), _split_tower())


@st.composite
def tower_inputs(draw, nrv, tower):
    """Transitions on the base of the tower, and witness shifts for some levels.

    The transitions are drawn on the total of a random level and projected
    to the base, so they lift at least that far; the shifts are random
    kernel-valued 1-cocycles, a coboundary plus a combination of the
    generators of H^1.
    """
    top = draw(st.integers(0, len(tower)))
    group = tower.extensions[top - 1].total if top else tower.extensions[0].base
    g = draw(transition_cocycles(nrv, group))
    values = {}
    for e in nrv.simplices_of_dim(1):
        v = g.value(*e)
        for ext in reversed(tower.extensions[:top]):
            v = ext.project(v)
        values[e] = v
    shifts = {}
    for level, ext in enumerate(tower.extensions, 1):
        if draw(st.booleans()):
            rng = random.Random(draw(st.integers(0, 2**16)))
            shift = coboundary(random_cochain(rng, nrv, ext.kernel, 0))
            for gen in cohomology_classes(nrv, ext.kernel, 1).generators():
                if draw(st.booleans()):
                    shift = shift + gen
            shifts[level] = shift
    return TransitionCocycle(nrv, tower.extensions[0].base, values), shifts


def _assert_tower_run_equals_the_oracle(g, tower, shifts):
    """The entries and status of the class-first oracle; and each level's
    lift is refused exactly when its Giraud class is nonzero."""
    seq = tower_obstructions(g, tower, witness_shifts=shifts)
    entries, status = tower_oracle.tower_obstructions(g, tower, witness_shifts=shifts)
    assert seq.status == status
    assert len(seq.entries) == len(entries)
    for got, want in zip(seq.entries, entries):
        assert got.level == want.level and got.degree == want.degree
        assert got.coefficients == want.coefficients and got.cocycle == want.cocycle
        assert got.cohomology == want.cohomology and got.coords == want.coords
    current = g
    for level, ext in enumerate(tower.extensions, 1):
        lifted = lift_transitions(current, ext, witness_shift=(shifts or {}).get(level))
        blocked = not obstruction_class(giraud_obstruction(current, ext)).is_zero()
        assert isinstance(lifted, Obstruction) == blocked
        if blocked:
            return
        current = lifted


TOWER_IDS = ["z2-1", "z2-2", "z2-3", "split"]


@pytest.mark.parametrize("tower", TOWERS, ids=TOWER_IDS)
@pytest.mark.parametrize("nrv", NERVES, ids=["circle", "rp2", "torus"])
@settings(max_examples=15, deadline=None)
@given(shifted=st.booleans(), data=st.data())
def test_tower_run_equals_the_class_first_oracle(nrv, tower, shifted, data):
    g, shifts = data.draw(tower_inputs(nrv, tower))
    _assert_tower_run_equals_the_oracle(g, tower, shifts if shifted else None)


@pytest.mark.parametrize("tower", TOWERS, ids=TOWER_IDS)
def test_shipped_rp2_tower_runs_equal_the_class_first_oracle(tower):
    """The orientation bundle of RP^2 blocks the Z/2 towers at level 1 and
    then runs the connecting operators."""
    _, nrv = fixtures.rp2_good_cover()
    _assert_tower_run_equals_the_oracle(fixtures.rp2_orientation_transitions(nrv), tower, None)


# ---------------------------------------------------------------------------
# collapse certificates
# ---------------------------------------------------------------------------

#: The shipped covers: the three-arc cover of the hexagon, the dual-block
#: cover of RP^2, the torus product cover and the star cover of the
#: boundary of the 3-simplex (11 of its intersections are not acyclic).
COVERS = (
    fixtures.three_arc_cover(),
    fixtures.rp2_good_cover()[0],
    fixtures.torus_product()[1],
    star_cover(fixtures.boundary_delta3()),
)


@st.composite
def covers(draw):
    """A shipped cover, a star cover, or a product of two star covers."""
    kind = draw(st.sampled_from(["shipped", "star", "product"]))
    if kind == "shipped":
        return draw(st.sampled_from(COVERS))
    if kind == "star":
        return star_cover(draw(complexes()))
    a, b = (draw(complexes().filter(lambda k: k.dim <= 1 and k.vertex_count <= 4)) for _ in "ab")
    return product_cover(star_cover(a), star_cover(b))


@st.composite
def intersections(draw):
    nrv = nerve(draw(covers()))
    return nrv.intersection_of[draw(st.sampled_from(sorted(nrv.simplices)))]


@SETTINGS
@given(covers())
def test_goodness_report_equals_the_invariant_factor_check(cover):
    """Skipping collapsible intersections leaves every report as it was."""
    nrv = nerve(cover)
    report = verify_good_cover(cover, nrv)
    assert report.max_degree == cover.base.dim + 1
    assert report.failures == oracle_goodness_failures(cover, nrv)


@settings(max_examples=100, deadline=None)
@given(intersections(), st.integers(0, 10**6), st.booleans())
def test_a_collapse_certificate_proves_acyclicity_and_solves_exactly(w, seed, shuffled):
    """(a) The oracle's collapse pairs imply the invariant factors find
    every reduced H^q trivial.

    (b) For rhs = D x, x a random rational q-cochain, the oracle's
    contraction solve (of the sorted or a shuffled collapse) gives
    D v = rhs.
    """
    if collapse_oracle.greedy_collapse(w) is None:
        return
    assert connected_component_count(w) == 1
    for q in range(1, w.dim + 2):
        d_prev = oracle_invariant_factors(dense_coboundary(w, q - 1))
        d_next = oracle_invariant_factors(dense_coboundary(w, q))
        assert all(d == 1 for d in d_prev), q
        assert len(w.simplices_of_dim(q)) == len(d_prev) + len(d_next), q
    rng = random.Random(seed)
    for q in range(w.dim):
        x = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for s in w.simplices_of_dim(q)}
        rhs = coboundary(Cochain(w, q, QQ, x)).values
        v = deligne_oracle.solve_local_d(w, q, rhs, random.Random(seed) if shuffled else None)
        assert coboundary(Cochain(w, q, QQ, v)).values == rhs, q


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        intersections(),
        complexes(),
        st.sampled_from([dunce_hat(), fixtures.triangle_boundary(), SimplicialComplex(0, ())]),
    ),
    st.integers(0, 2**32),
)
def test_indexed_collapse_equals_the_set_based_oracle(k, seed):
    """The collapse on face indices reaches one vertex exactly when the
    oracle's collapse does, in sorted and in shuffled order, and keeps
    its answer."""
    w = SimplicialComplex._trusted(k.vertex_count, k.simplices)
    want = collapse_oracle.greedy_collapse(k) is not None
    assert w.collapses() is want
    assert (collapse_oracle.greedy_collapse(k, random.Random(seed)) is not None) is want
    assert w.collapses() is want


def brute_force_nerve(cover):
    """{index tuple: its intersection} over every index subset with a
    non-empty intersection, by size and then lexicographically.

    A subset is extended by every later index; the supersets of a subset
    with an empty intersection are empty too and are not tried.
    """
    out = {}
    level = [((), None)]
    while level:
        nxt = []
        for t, inter in level:
            for j in range(t[-1] + 1 if t else 0, len(cover.pieces)):
                piece = cover.pieces[j].simplices
                meet = piece if inter is None else inter & piece
                if meet:
                    nxt.append((t + (j,), meet))
        out.update(nxt)
        level = nxt
    return out


@st.composite
def random_covers(draw):
    """A cover of a random complex whose pieces include empty ones,
    duplicates and single vertices, which meet the others in one vertex."""
    k = draw(complexes())
    simps = sorted(k.simplices)
    pieces = []
    for _ in range(draw(st.integers(0, 4))):
        chosen = draw(st.lists(st.sampled_from(simps), max_size=4))
        pieces.append(SimplicialComplex(k.vertex_count, downward_closure(chosen)))
    vertices = [s for s in simps if len(s) == 1]
    for v in draw(st.lists(st.sampled_from(vertices), max_size=2)):
        pieces.append(SimplicialComplex(k.vertex_count, {v}))
    if pieces and draw(st.booleans()):
        pieces.append(draw(st.sampled_from(pieces)))
    if draw(st.booleans()):
        pieces.append(SimplicialComplex(k.vertex_count, ()))
    pieces.append(k)
    order = draw(st.permutations(range(len(pieces))))
    return Cover(k, tuple(pieces[i] for i in order))


def _assert_nerve_is_the_brute_force_nerve(cover):
    nrv = nerve(cover)
    expected = brute_force_nerve(cover)
    assert list(nrv.intersection_of) == list(expected)
    assert {t: w.simplices for t, w in nrv.intersection_of.items()} == expected
    assert nrv.simplices == frozenset(expected)


@SETTINGS
@given(random_covers())
def test_nerve_through_the_vertex_index_is_the_brute_force_nerve(cover):
    """Same intersections, in the same key order, as trying every subset."""
    _assert_nerve_is_the_brute_force_nerve(cover)


@st.composite
def budget_covers(draw, kind):
    """A ``conftest.random_cover``, a star cover, or a random cover with one
    of its pieces repeated, of a random complex."""
    k = draw(complexes())
    if kind == "star":
        return star_cover(k)
    cover = random_cover(random.Random(draw(st.integers(0, 2**32 - 1))), k)
    if kind == "repeated":
        piece = draw(st.sampled_from(cover.pieces))
        cover = Cover(k, cover.pieces + (piece,) * draw(st.integers(2, 6)))
    return cover


@pytest.mark.parametrize("kind", ["random", "star", "repeated"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), per_id=st.integers(0, 8), stage=st.integers(0, 2), offset=st.integers(-2, 2))
def test_a_cover_file_is_admitted_exactly_within_its_budget(kind, data, per_id, stage, offset):
    """The loader's nerve count is the sum of |W_t| over the nerve, and a
    cover file is admitted exactly when its base's closure, its pieces and
    its nerve are each within the budget for the vertex ids listed for
    them: the base's, the pieces', and both together.  The floor is drawn
    next to the budget of one stage."""
    cover = data.draw(budget_covers(kind))
    obj = io.cover_to_json(cover)
    if kind == "star":
        obj = {"kind": "cover", "base": obj["base"], "star_cover": True}
    counted = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_check_budget", lambda what, built, *_: counted.update({what: built}))
        io.cover_from_json(obj)
    size = sum(len(w.simplices) for w in nerve(cover).intersection_of.values())
    assert counted["cover: the nerve's intersections may hold"] == size
    base = obj["base"]["simplices"]
    pieces = [face for piece in obj.get("pieces", ()) for face in piece]

    def closure(faces):
        return sum(2 ** len(face) - 1 for face in faces)

    def ids(faces):
        return sum(len(face) for face in faces)

    stages = [(closure(base), ids(base)), (closure(pieces), ids(pieces)), (size, ids(base + pieces))]
    built, listed = stages[stage]
    floor = max(0, built - per_id * listed + offset)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "BUDGET_FLOOR", floor)
        mp.setattr(io, "BUDGET_PER_ID", per_id)
        if all(built <= floor + per_id * listed for built, listed in stages):
            assert io.cover_from_json(obj).pieces == cover.pieces
        else:
            with pytest.raises(FormatError, match="over the limit"):
                io.cover_from_json(obj)


def test_nerve_of_181_dual_blocks_is_the_brute_force_nerve():
    bsd2, _ = fixtures.barycentric_subdivision(
        fixtures.barycentric_subdivision(fixtures.rp2_minimal())[0]
    )
    cover = fixtures.dual_block_cover(bsd2)
    assert len(cover) == 181
    _assert_nerve_is_the_brute_force_nerve(cover)


# ---------------------------------------------------------------------------
# the Deligne double complex on numerators against the Fraction oracle
# ---------------------------------------------------------------------------

def _torus_loop(torus):
    """The hexagon x {0} inside the torus fixture, with its oriented cycle."""
    edges = [(a * 6, b * 6) for a, b in fixtures.hexagon().simplices_of_dim(1)]
    v = SimplicialComplex(torus.vertex_count, downward_closure(edges))
    signs = {e: 1 for e in edges}
    signs[(0, 30)] = -1
    return v, Chain(v, 1, signs)


def _deligne_cases():
    """(cover, nerve, degree, integral generator cocycles, v, z) per fixture.

    The three-arc circle cover, the torus product cover in degrees 1 and
    2, and the RP^2 dual-block cover in degree 2, where every circle
    2-cocycle is a coboundary and the trivialization runs on the whole
    base with no cycle to pair with.
    """
    circle = fixtures.three_arc_cover()
    circle_nerve = nerve(circle)
    torus, torus_cover = fixtures.torus_product()
    torus_nerve = nerve(torus_cover)
    x, y = fixtures.torus_nerve_generators(torus_nerve)
    rp2, rp2_nerve = fixtures.rp2_good_cover()

    def ints(c):
        return {s: v.coords[0] for s, v in c.values.items()}

    loop, loop_cycle = _torus_loop(torus)
    return {
        "circle": (circle, circle_nerve, 1, [{(0, 1): 1}], circle.base, fixtures.hexagon_cycle()),
        "torus-1": (torus_cover, torus_nerve, 1, [ints(x), ints(y)], loop, loop_cycle),
        "torus-2": (torus_cover, torus_nerve, 2, [ints(cup(x, y))], torus, fixtures.torus_cycle(torus)),
        "rp2-2": (rp2, rp2_nerve, 2, [], rp2.base, None),
    }


DELIGNE_CASES = _deligne_cases()


def _random_package(case, seed):
    """A descent package of sum t_i g_i + delta eta, all denominators in 2..30,
    and a second one moved by a global datum of prime denominator > 30
    (so coprime to them) and, in degree 1, made non-flat by a global 1-form."""
    cover, nrv, d, gens, _, _ = case
    rng = random.Random(seed)

    def fraction():
        den = rng.randint(2, 30)
        return Fraction(rng.randrange(den), den)

    terms = [(fraction(), g) for g in gens]
    values = {s: sum((t * g.get(s, 0) for t, g in terms), Fraction(0)) for s in nrv.simplices_of_dim(d)}
    eta = {s: fraction() for s in nrv.simplices_of_dim(d - 1) if rng.random() < 0.6}
    eta = Cochain(nrv, d - 1, CIRCLE, eta)
    c = Cochain(nrv, d, CIRCLE, values) + coboundary(eta)
    pkg = descent_chain(c, cover, nrv)
    prime = rng.choice([31, 37, 41, 43])
    base = cover.base
    f = Cochain(base, d - 1, QQ, {
        s: Fraction(rng.randint(-5, 5), prime) for s in base.simplices_of_dim(d - 1) if rng.random() < 0.5
    })
    moved = add_global_datum(pkg, f)
    if d == 1:
        a = {s: Fraction(rng.randint(-3, 3), prime) for s in base.simplices_of_dim(1) if rng.random() < 0.5}
        local = {(i,): {s: a[s] for s in p.simplices_of_dim(1) if s in a} for i, p in enumerate(cover.pieces)}
        layer = moved.layers[0] + DoubleCochain(cover, nrv, 0, 1, local)
        moved = DelignePackage(cover, nrv, 1, c, {0: layer})
    return c, pkg, moved


DOUBLE_COCHAIN_COVERS = {name: DELIGNE_CASES[name][:2] for name in ("circle", "torus-1", "rp2-2")}


def _random_double_values(rng, nrv, p, q):
    """Values of bidegree (p, q): ints and Fractions of several
    denominators, zeros included."""
    def value():
        v = rng.randint(-6, 6)
        return v if rng.random() < 0.3 else Fraction(v, rng.choice([1, 2, 3, 4, 6, 9, 10]))

    return {
        t: {s: value() for s in nrv.intersection_of[t].simplices_of_dim(q) if rng.random() < 0.5}
        for t in nrv.simplices_of_dim(p)
        if rng.random() < 0.7
    }


def _entrywise(op, a, b):
    """op on two Fraction value maps, entry by entry, zeros dropped."""
    out = {}
    for t in set(a) | set(b):
        x, y = a.get(t, {}), b.get(t, {})
        loc = {s: op(x.get(s, 0), y.get(s, 0)) for s in set(x) | set(y)}
        loc = {s: v for s, v in loc.items() if v}
        if loc:
            out[t] = loc
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DOUBLE_COCHAIN_COVERS)), st.integers(0, 2**32 - 1))
def test_double_cochains_are_numerators_over_the_least_denominator(name, seed):
    """A DoubleCochain holds its values as numerators over their least
    common denominator: ``values`` round-trips, == is equality of values,
    and + and - across different denominators are Fraction arithmetic."""
    cover, nrv = DOUBLE_COCHAIN_COVERS[name]
    rng = random.Random(seed)
    p, q = rng.randint(0, nrv.dim), rng.randint(0, 2)
    a = _random_double_values(rng, nrv, p, q)
    x = DoubleCochain(cover, nrv, p, q, a)
    assert x.values == _entrywise(lambda u, v: Fraction(u), a, {})
    assert DoubleCochain(cover, nrv, p, q, x.values) == x
    # the same values written otherwise, one entry moved, or fresh values
    kind = rng.randrange(3)
    if kind < 2:
        b = {t: {s: Fraction(3 * v, 3) for s, v in loc.items()} for t, loc in a.items()}
        b.setdefault(nrv.simplices_of_dim(p)[0], {})
        if kind and any(b.values()):
            t = rng.choice([t for t, loc in b.items() if loc])
            s = rng.choice(sorted(b[t]))
            b[t][s] += Fraction(rng.choice([-1, 1]), rng.choice([1, 5, 7]))
    else:
        b = _random_double_values(rng, nrv, p, q)
    y = DoubleCochain(cover, nrv, p, q, b)
    assert (x == y) is (x.values == y.values)
    total, diff = x + y, x - y
    assert total.values == _entrywise(lambda u, v: u + v, x.values, y.values)
    assert diff.values == _entrywise(lambda u, v: u - v, x.values, y.values)
    assert (-x).values == _entrywise(lambda u, v: -u, x.values, {})
    for r in (x, y, total, diff, -x):
        assert gcd(r.den, *(v for loc in r.num.values() for v in loc.values())) == 1
    zero = x - x
    assert zero.is_zero() and zero.num == {} and zero.den == 1


def _level(rng, nrv, cover, kind, p, q):
    """A random Cech p-level of form degree q, as a DoubleCochain: empty,
    on a single face, dense (every face and simplex, no zero), or
    cancelling (delta of a random (p-1)-level, or for p = 0 the
    restrictions of a global q-cochain), whose delta is zero."""
    def dense(t):
        return {s: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                for s in nrv.intersection_of[t].simplices_of_dim(q)}

    faces = nrv.simplices_of_dim(p)
    if kind == "empty":
        values = {}
    elif kind == "single":
        t = rng.choice(faces)
        values = {t: dense(t)}
    elif kind == "dense":
        values = {t: dense(t) for t in faces}
    elif p:
        below = DoubleCochain(cover, nrv, p - 1, q, _random_double_values(rng, nrv, p - 1, q))
        return deligne_oracle.cech_delta(below)
    else:
        g = {s: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for s in cover.base.simplices_of_dim(q)}
        values = {t: {s: g[s] for s in nrv.intersection_of[t].simplices_of_dim(q)} for t in faces}
    return DoubleCochain(cover, nrv, p, q, values)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(DOUBLE_COCHAIN_COVERS)),
    st.sampled_from(["empty", "single", "dense", "cancelling"]),
    st.integers(0, 2**32 - 1),
)
def test_cech_delta_equals_the_oracle_on_every_kind_of_level(name, kind, seed):
    """``_delta`` on integer numerators agrees with the oracle's Fraction
    delta on every kind of level, and its result keeps no zero entry and
    no empty local."""
    cover, nrv = DOUBLE_COCHAIN_COVERS[name]
    rng = random.Random(seed)
    p, q = rng.randint(0, nrv.dim), rng.randint(0, 2)
    x = _level(rng, nrv, cover, kind, p, q)
    raw = _delta(nrv, p, x.num)
    assert all(loc and all(loc.values()) for loc in raw.values())
    got = DoubleCochain._trusted(cover, nrv, p + 1, q, raw, x.den)
    assert got == cech_delta(x) == deligne_oracle.cech_delta(x)
    if kind in ("empty", "cancelling"):
        assert raw == {}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(DELIGNE_CASES)), st.integers(0, 2**32 - 1))
def test_the_lift_is_locally_constant_so_every_descent_layer_is_zero(name, seed):
    """D lift(c) = 0 for every circle cocycle c, so the contraction solves
    every layer of ``descent_chain`` by 0."""
    case = DELIGNE_CASES[name]
    cover, nrv, d, _, _, _ = case
    c, pkg, _ = _random_package(case, seed)
    lift = deligne_oracle.lift_cocycle(c, cover, nrv)
    assert _d(nrv, 0, lift.num) == {}
    assert deligne_oracle.form_d(lift).is_zero()
    assert all(layer.is_zero() and layer.den == 1 for layer in pkg.layers.values())


def _all_fractions(*doubles):
    return all(type(v) is Fraction for x in doubles for loc in x.values.values() for v in loc.values())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(DELIGNE_CASES)), st.integers(0, 2**32 - 1))
def test_deligne_numerators_equal_the_fraction_oracle(name, seed):
    """Layers, both differentials and holonomy computed on
    numerators over one denominator equal those of Fraction arithmetic;
    the holonomy is the oracle trivialization's global form paired with
    the cycle, for the default and a shuffled assignment and solve."""
    case = DELIGNE_CASES[name]
    cover, nrv, d, _, v, z = case
    c, pkg, moved = _random_package(case, seed)
    want = deligne_oracle.descent_chain(c, cover, nrv)
    assert pkg.layers == want.layers and list(pkg.layers) == list(want.layers)
    assert _all_fractions(*pkg.layers.values())
    layer = moved.layers[d - 1]
    assert cech_delta(layer) == deligne_oracle.cech_delta(layer)
    assert form_d(layer) == deligne_oracle.form_d(layer)
    if z is None:
        return
    for p in (pkg, moved):
        restricted = deligne_oracle.restrict(p, v)
        for shuffled in (False, True):
            def shuffle():
                return random.Random(seed) if shuffled else None

            ref = deligne_oracle.holonomy_trivialization(restricted, shuffle())
            assert holonomy(p, v, z, shuffle()) == CircleElement(pair(ref.global_form, z))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(DELIGNE_CASES)), st.integers(0, 2**32 - 1), st.booleans())
def test_flag_step_is_the_transpose_of_minus_d_h(name, seed, shuffled):
    """``_flag_step`` is -h*(bd Z), the library's only use of the
    contraction h: for an integer level x of bidegree (p+1, q-1) and a
    flag level Z of bidegree (p, q), <x, _flag_step(Z)> = -<D h x, Z>,
    with h the oracle's, for the default and a shuffled assignment."""
    cover, nrv, _, _, _, _ = DELIGNE_CASES[name]
    rng = random.Random(seed)
    assign = _min_piece_assignment(cover, cover.base.simplices, random.Random(seed) if shuffled else None)
    p, q = rng.randrange(nrv.dim), rng.randint(1, cover.base.dim)

    def value():
        return rng.choice([-3, -2, -1, 1, 2, 3])

    x = DoubleCochain(cover, nrv, p + 1, q - 1, {
        t: {s: value() for s in nrv.intersection_of[t].simplices_of_dim(q - 1) if rng.random() < 0.6}
        for t in nrv.simplices_of_dim(p + 1)
    })
    flags = {
        (t, s): value()
        for t in nrv.simplices_of_dim(p)
        for s in nrv.intersection_of[t].simplices_of_dim(q)
        if rng.random() < 0.3
    }
    assert x.den == 1
    lhs = sum(w * x.num.get(t, {}).get(s, 0) for (t, s), w in _flag_step(flags, assign).items())
    dhx = deligne_oracle.form_d(deligne_oracle.cech_homotopy(x, assign)).values
    assert lhs == -sum(w * dhx.get(t, {}).get(s, 0) for (t, s), w in flags.items())


# ---------------------------------------------------------------------------
# holonomy's flag sum against the trivialization
# ---------------------------------------------------------------------------

def _rp2_loop():
    """(cover, nerve, w1/2, v, z): the RP^2 dual-block cover, the circle
    cocycle w1/2 of the orientation cover, and the triangle 0-1-4 of the
    minimal RP^2 (not one of its faces) drawn as a loop in bsd(RP^2), on
    which w1 is odd, so the holonomy is 1/2."""
    cover, nrv = fixtures.rp2_good_cover()
    _, vertex_of = fixtures.barycentric_subdivision(fixtures.rp2_minimal())
    ids = [vertex_of[s] for s in ((0,), (0, 1), (1,), (1, 4), (4,), (0, 4))]
    signs = {}
    for a, b in zip(ids, ids[1:] + ids[:1]):
        signs[(min(a, b), max(a, b))] = 1 if a < b else -1
    v = SimplicialComplex(cover.base.vertex_count, downward_closure(signs))
    w1 = fixtures.rp2_orientation_cocycle(nrv)
    c = Cochain(nrv, 1, CIRCLE, {s: CircleElement(Fraction(x.coords[0], 2)) for s, x in w1.values.items()})
    return cover, nrv, c, v, Chain(v, 1, signs)


RP2_LOOP = _rp2_loop()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["circle", "torus-1", "torus-2", "rp2-w1"]), st.integers(0, 2**32 - 1))
def test_flag_sum_holonomy_equals_the_trivialization(name, seed):
    """``holonomy``, one flag sum over the cycle, equals the pairing of the
    trivialization's global form with the cycle, mod 1, by default and
    under shuffled assignments.  The packages: the circle, a loop on the
    torus (a proper subcomplex), the torus gerbe and w1/2 around a loop
    in RP^2, each moved by a random global datum, an exact datum at every
    layer q0 <= d-2 and a cocycle shift (and in degree 1 by a non-flat
    global 1-form)."""
    rng = random.Random(seed)
    if name == "rp2-w1":
        cover, nrv, c, v, z = RP2_LOOP
        d = 1
        f = {s: Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for s in cover.base.simplices_of_dim(0)}
        pkg = add_global_datum(descent_chain(c, cover, nrv), Cochain(cover.base, 0, QQ, f))
    else:
        case = DELIGNE_CASES[name]
        cover, nrv, d, _, v, z = case
        _, _, pkg = _random_package(case, seed)
    for q0 in range(d - 1):
        rho = _random_double_values(rng, nrv, q0, d - q0 - 1)
        pkg = add_exact_datum(pkg, q0, DoubleCochain(cover, nrv, q0, d - q0 - 1, rho))
    eta = {s: CircleElement(Fraction(rng.randrange(9), 9)) for s in nrv.simplices_of_dim(d - 1) if rng.random() < 0.5}
    pkg = shift_cocycle(pkg, Cochain(nrv, d - 1, CIRCLE, eta))
    triv = deligne_oracle.holonomy_trivialization(deligne_oracle.restrict(pkg, v))
    want = CircleElement(pair(triv.global_form, z))
    # gauge moves keep w1/2's holonomy 1/2
    assert name != "rp2-w1" or want.value == Fraction(1, 2)
    for shuffle in (None, random.Random(seed), random.Random(seed + 1)):
        assert holonomy(pkg, v, z, shuffle) == want

