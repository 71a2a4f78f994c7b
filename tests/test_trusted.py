"""Results built without re-checking equal the checked ones, and input is still checked.

Complexes built by ``SimplicialComplex._trusted`` (nerves, their
intersections, star and product pieces, staircase
products, barycentric subdivisions and their dual blocks, loaded cover
pieces, ``validate_complex``) must pass the validating constructor
unchanged.  Boundaries built by ``Chain._trusted`` and the cochains
``bockstein`` builds by ``Cochain._trusted`` must equal the ones the
validating constructors build from their parts.  Extension totals built
on kernel indices must equal the ``GroupElement``-built oracle in
``extension_oracle`` and pass the exhaustive ``FiniteGroup`` check, and
the transition cocycle law, checked on the table, must fail at the
first triangle the ``value``-based check of the oracle finds.  The
checks on outside input stay, and a caller's number that must be an
integer is refused, not truncated.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cechlift import fixtures, io, tower
from cechlift.abelian import INTEGERS, FgAbelianGroup, Homomorphism
from cechlift.cochains import Cochain
from cechlift.complexes import (
    Chain,
    Cover,
    Nerve,
    SimplicialComplex,
    chain_boundary,
    fundamental_cycle,
    nerve,
    product_complex,
    product_cover,
    star_cover,
    validate_complex,
)
from cechlift.deligne import DoubleCochain
from cechlift.errors import (
    InvalidComplex,
    InvalidCover,
    NotACocycle,
    NotACocycle2,
    NotNormalized,
)
from cechlift.tower import (
    CentralExtension,
    FiniteGroup,
    TransitionCocycle,
    bockstein,
    split_extension,
)

from conftest import (
    coboundary_transitions,
    klein_four,
    random_extension,
    random_factor_set,
    symmetric_group_3,
)

import extension_oracle


def assert_checked(k):
    """k equals the complex the validating constructor builds from its parts."""
    assert type(k.vertex_count) is int
    ref = SimplicialComplex(k.vertex_count, k.simplices)
    assert k == ref
    for d in range(-1, ref.dim + 2):
        assert k.simplices_of_dim(d) == ref.simplices_of_dim(d)


def assert_nerve_checked(n):
    for w in n.intersection_of.values():
        assert_checked(w)
    ref = Nerve(n.cover, n.intersection_of)
    assert n == ref and n.intersection_of == ref.intersection_of
    for d in range(-1, ref.dim + 2):
        assert n.simplices_of_dim(d) == ref.simplices_of_dim(d)


def _whole(k):
    """The one-piece cover of k, so that k itself is checked."""
    return Cover(k, (k,))


def _bsd_rp2():
    return fixtures.barycentric_subdivision(fixtures.rp2_minimal())[0]


def _cycle(n):
    return validate_complex([(i, (i + 1) % n) for i in range(n)])


#: name -> () -> cover
COVERS = {
    "circle": fixtures.three_arc_cover,
    "torus": lambda: fixtures.torus_product()[1],
    "rp2": lambda: fixtures.rp2_good_cover()[0],
    "delta3-star": lambda: star_cover(fixtures.boundary_delta3()),
    "bsd-torus-dual-blocks": lambda: fixtures.dual_block_cover(
        fixtures.barycentric_subdivision(fixtures.torus_product()[0])[0]
    ),
    "bsd-rp2": lambda: _whole(_bsd_rp2()),
    "bsd-rp2-dual-blocks": lambda: fixtures.dual_block_cover(_bsd_rp2()),
    "product-c4-c6": lambda: _whole(product_complex(_cycle(4), fixtures.hexagon())[0]),
    "product": lambda: product_cover(star_cover(validate_complex([(0, 1)])), fixtures.three_arc_cover()),
}


@pytest.mark.parametrize("name", sorted(COVERS))
def test_trusted_complexes_pass_the_checks(name):
    cover = COVERS[name]()
    assert_checked(cover.base)
    for piece in cover.pieces:
        assert_checked(piece)
    assert_nerve_checked(nerve(cover))
    loaded = io.cover_from_json(io.cover_to_json(cover))
    assert loaded == cover
    for piece in loaded.pieces:
        assert_checked(piece)


def assert_chain_checked(c):
    """c equals the chain the validating constructor builds from its parts."""
    assert all(type(x) is int and x for x in c.coefficients.values())
    assert c == Chain(c.complex, c.degree, dict(c.coefficients))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_chain_boundary_equals_the_checked_chain(degree, seed):
    rng = random.Random(seed)
    k = fixtures.rp2_minimal() if seed % 2 else fixtures.torus_product()[0]
    simps = k.simplices_of_dim(degree)
    picked = rng.sample(simps, min(len(simps), 8))
    boundary = chain_boundary(Chain(k, degree, {s: rng.randint(-2, 2) for s in picked}))
    assert boundary.degree == degree - 1
    assert_chain_checked(boundary)


def test_the_boundary_of_the_torus_cycle_is_the_checked_zero_chain():
    torus = fixtures.torus_product()[0]
    boundary = chain_boundary(fixtures.torus_cycle(torus))
    assert boundary == Chain(torus, 1, {})
    assert_chain_checked(boundary)


def test_bockstein_cochains_equal_the_checked_ones(monkeypatch):
    """Every cochain bockstein checks, the lift through the section and the
    kernel part included, on the RP^2 orientation class up two levels."""
    built = []
    checked = tower.coboundary

    def recording(x):
        built.append(x)
        return checked(x)

    monkeypatch.setattr(tower, "coboundary", recording)
    _, nrv = fixtures.rp2_good_cover()
    seqs = [fixtures.z2_tower(3).derived_sequence(level) for level in (1, 2)]
    c = fixtures.rp2_orientation_cocycle(nrv)
    for ses in seqs:
        c = bockstein(c, ses)
    assert [(x.degree, x.group) for x in built] == [
        (1, seqs[0].C), (1, seqs[0].B), (2, seqs[0].A),
        (2, seqs[1].C), (2, seqs[1].B), (3, seqs[1].A),
    ]
    # only the last, a degree-3 cochain, is zero
    assert all(x.values for x in built[:5])
    for x in built:
        assert x == Cochain(x.carrier, x.degree, x.group, x.values)


@pytest.mark.parametrize("seed", range(6))
def test_a_broken_transition_cocycle_is_refused_at_the_first_triangle(seed):
    rng = random.Random(seed)
    nrv = fixtures.rp2_good_cover()[1] if seed % 2 else nerve(fixtures.torus_product()[1])
    group = symmetric_group_3()
    broken = dict(coboundary_transitions(rng, nrv, group).g)
    i, j, k = rng.choice(nrv.simplices_of_dim(2))
    edge = rng.choice([(i, j), (i, k), (j, k)])
    broken[edge] = group.mul(broken.get(edge, group.identity), rng.randrange(1, group.order))
    expected = extension_oracle.first_transition_failure(nrv, group, broken)
    assert expected is not None
    with pytest.raises(NotACocycle) as err:
        TransitionCocycle(nrv, group, broken)
    assert str(err.value) == f"transition cocycle law fails on {expected}"


def test_validate_complex_refuses_a_vertex_past_the_count():
    with pytest.raises(InvalidComplex, match=r"vertex out of range in \(1, 5\)"):
        validate_complex([(0, 1), (5, 1)], vertex_count=4)
    assert_checked(validate_complex([(2, 0, 1), (3,)], vertex_count=6))


def test_cover_piece_outside_its_base_is_refused():
    obj = io.cover_to_json(fixtures.three_arc_cover())
    obj["pieces"][0].append([0, 3])
    with pytest.raises(InvalidCover, match="piece 0 is not a subcomplex of the base"):
        io.cover_from_json(obj)


def _carry_z4_by_z2z2():
    z4, z2z2 = FiniteGroup.cyclic(4), FgAbelianGroup((2, 2))
    return CentralExtension(z4, z2z2, random_factor_set(random.Random(3), z4, z2z2))


#: name -> () -> a CentralExtension
EXTENSIONS = {
    # the tower's first level is the z2-z4 extension
    **{f"z2-tower-{i + 1}": (lambda i=i: fixtures.z2_tower(4).extensions[i]) for i in range(1, 4)},
    "z2-z4": fixtures.z2_z4_extension,
    "split-z3-by-z2z2": lambda: split_extension(FiniteGroup.cyclic(3), FgAbelianGroup((2, 2))),
    "split-v4-by-z2z4": lambda: split_extension(klein_four(), FgAbelianGroup((2, 4))),
    "carry-z4-by-z2z2": _carry_z4_by_z2z2,
    **{f"random-{s}": (lambda s=s: random_extension(random.Random(s))) for s in range(8)},
}


def test_the_z2_towers_first_level_is_the_z2_z4_extension():
    first, ext = fixtures.z2_tower(4).extensions[0], fixtures.z2_z4_extension()
    assert (first.base, first.kernel, first.factor_set) == (ext.base, ext.kernel, ext.factor_set)


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_extension_total_equals_the_element_oracle(name):
    ext = EXTENSIONS[name]()
    total = ext.total
    assert total.table == extension_oracle.total_table(ext)
    checked = FiniteGroup(total.table, total.identity)
    assert checked == total
    assert checked.inverse == total.inverse


def _broken_factor_set(rng):
    """A Z/2+Z/2-valued factor set on Z/4 with one entry off the cocycle law."""
    z4, z2z2 = FiniteGroup.cyclic(4), FgAbelianGroup((2, 2))
    fs = [list(row) for row in random_factor_set(rng, z4, z2z2)]
    a, b = rng.randrange(1, 4), rng.randrange(1, 4)
    fs[a][b] = fs[a][b] + z2z2.element((0, 1))
    return z4, z2z2, fs


@pytest.mark.parametrize("seed", range(6))
def test_cocycle_failure_is_reported_at_the_first_triple(seed):
    base, kernel, fs = _broken_factor_set(random.Random(seed))
    expected = extension_oracle.first_cocycle_failure(base, fs)
    assert expected is not None
    with pytest.raises(NotACocycle2) as err:
        CentralExtension(base, kernel, fs)
    assert err.value.triple == expected


def test_non_normalized_factor_set_is_refused():
    z4, z2z2 = FiniteGroup.cyclic(4), FgAbelianGroup((2, 2))
    fs = [list(row) for row in random_factor_set(random.Random(1), z4, z2z2)]
    fs[z4.identity][2] = z2z2.element((1, 0))
    with pytest.raises(NotNormalized, match="at 2"):
        CentralExtension(z4, z2z2, fs)


def _circle_cover_and_nerve():
    cover = fixtures.three_arc_cover()
    return cover, nerve(cover)


#: Per site where the library turns a caller's number into an int: the
#: build that reads it, projected to what the number became, and a
#: valid integer input.
INTEGER_SITES = {
    "moduli": (lambda x: FgAbelianGroup((x,)).moduli, 0),
    "homomorphism matrix": (lambda x: Homomorphism(INTEGERS, INTEGERS, ((x,),)).matrix, 1),
    "group table": (lambda x: FiniteGroup(((0, x), (x, 0))).table, 1),
    "group identity": (lambda x: FiniteGroup(((0, 1), (1, 0)), identity=x).identity, 0),
    "transition value": (
        lambda x: TransitionCocycle(
            _circle_cover_and_nerve()[1], FiniteGroup.cyclic(2), {(0, 1): x}
        ).g,
        1,
    ),
    "chain coefficient": (lambda x: Chain(fixtures.hexagon(), 1, {(0, 1): x}).coefficients, 1),
    "cycle sign": (
        lambda x: fundamental_cycle(validate_complex([(0,)]), 0, {(0,): x}).coefficients,
        1,
    ),
    "vertex": (lambda x: sorted(validate_complex([(0, x)]).simplices), 1),
    "vertex count": (lambda x: validate_complex([(0,)], vertex_count=x).vertex_count, 1),
    "complex vertex count": (lambda x: SimplicialComplex(x, [(0,)]).vertex_count, 1),
    "cochain degree": (lambda x: Cochain(fixtures.hexagon(), x, INTEGERS).degree, 1),
    "double cochain degrees": (
        lambda x: (
            DoubleCochain(*_circle_cover_and_nerve(), x, 0).cech_degree,
            DoubleCochain(*_circle_cover_and_nerve(), 0, x).form_degree,
        ),
        1,
    ),
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_non_integer_numbers_are_refused_not_truncated(site):
    """2.5 and 9/2 are a TypeError; an int and the equal bool give the
    same plain ints as before."""
    build, good = INTEGER_SITES[site]
    for bad in (2.5, Fraction(9, 2)):
        with pytest.raises(TypeError):
            build(bad)
    assert repr(build(bool(good))) == repr(build(good))
