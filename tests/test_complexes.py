"""Complexes, covers, nerves, products, chains and cycles."""

import itertools
import random

import pytest

from cechlift import abelian
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
    shuffle_product_chain,
    star_cover,
    validate_complex,
)
from cechlift.errors import DuplicateVertexInSimplex, InvalidComplex, InvalidCover, NotACycle
from cechlift import fixtures

from conftest import dense_coboundary, random_complex, random_cover
from snf_oracle import transpose


class TestValidateComplex:
    def test_triangle_boundary(self):
        k = validate_complex([(0, 1), (1, 2), (0, 2)])
        assert k.vertex_count == 3
        assert len(k.simplices_of_dim(0)) == 3
        assert len(k.simplices_of_dim(1)) == 3
        assert k.dim == 1

    def test_boundary_of_tetrahedron(self):
        k = validate_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert [len(k.simplices_of_dim(d)) for d in range(3)] == [4, 6, 4]

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertexInSimplex):
            validate_complex([(0, 0)])

    def test_unsorted_input_is_canonicalized(self):
        k = validate_complex([(2, 0, 1)])
        assert k.has_simplex((0, 1, 2))

    def test_missing_face_rejected_by_constructor(self):
        with pytest.raises(InvalidComplex):
            SimplicialComplex(3, {(0, 1, 2), (0,), (1,), (2,)})

    def test_closure_property_random(self):
        rng = random.Random(42)
        for _ in range(40):
            k = random_complex(rng)
            for s in k.simplices:
                for face in itertools.combinations(s, len(s) - 1):
                    if face:
                        assert k.has_simplex(face)


class TestStarCover:
    def test_hexagon_stars_are_two_edge_paths(self, hexagon):
        cov = star_cover(hexagon)
        assert len(cov.pieces) == 6
        for v, piece in enumerate(cov.pieces):
            assert len(piece.simplices_of_dim(1)) == 2
            assert all(v in e for e in piece.simplices_of_dim(1))

    def test_single_vertex(self):
        pt = validate_complex([(0,)])
        cov = star_cover(pt)
        assert len(cov.pieces) == 1
        assert cov.pieces[0].simplices == pt.simplices

    def test_bd3_stars_by_definition(self, bd3):
        # oracle: the closed star by its definition, enumerated directly
        cov = star_cover(bd3)
        for v, piece in enumerate(cov.pieces):
            expected = {
                s
                for s in bd3.simplices
                if tuple(sorted(set(s) | {v})) in bd3.simplices
            }
            assert piece.simplices == frozenset(expected)
            assert len(piece.simplices_of_dim(2)) == 3

    def test_union_is_base(self):
        rng = random.Random(17)
        for _ in range(20):
            k = random_complex(rng)
            cov = star_cover(k)
            union = set()
            for piece in cov.pieces:
                union |= piece.simplices
            assert union == k.simplices


class TestNerve:
    def test_three_arc_nerve_is_triangle_boundary(self, circle_cover):
        n = nerve(circle_cover)
        assert sorted(n.simplices) == [
            (0,), (0, 1), (0, 2), (1,), (1, 2), (2,),
        ]

    def test_one_piece_cover(self):
        k = validate_complex([(0, 1, 2)])
        n = nerve(Cover(k, (k,)))
        assert sorted(n.simplices) == [(0,)]

    def test_nerve_is_a_complex_on_the_piece_indices(self, circle_cover):
        n = nerve(circle_cover)
        assert isinstance(n, SimplicialComplex)
        assert n.vertex_count == len(circle_cover.pieces)

    def test_collapse_of_nerves(self, circle_cover):
        # the three-arc nerve is a hollow triangle: no collapse
        assert nerve(circle_cover).collapses() is False
        k = validate_complex([(0, 1, 2)])
        assert nerve(Cover(k, (k,))).collapses() is True

    def test_nerve_without_its_vertices_is_refused(self, circle_cover):
        edge = circle_cover.pieces[0]
        with pytest.raises(InvalidComplex):
            Nerve(circle_cover, {(0, 1): edge})

    def test_bd3_star_nerve_contains_full_tuple(self, bd3):
        n = nerve(star_cover(bd3))
        assert n.has_simplex((0, 1, 2, 3))
        inter = n.intersection_of[(0, 1, 2, 3)]
        # the quadruple intersection is the non-empty 1-skeleton
        assert len(inter.simplices_of_dim(1)) == 6
        assert not inter.simplices_of_dim(2)

    def test_downward_closed_random(self):
        rng = random.Random(5)
        for _ in range(25):
            k = random_complex(rng)
            cov = random_cover(rng, k)
            n = nerve(cov)
            for s in n.simplices:
                for face in itertools.combinations(s, len(s) - 1):
                    if face:
                        assert n.has_simplex(face)

    def test_intersections_match_definition(self):
        rng = random.Random(6)
        for _ in range(15):
            k = random_complex(rng)
            cov = random_cover(rng, k)
            n = nerve(cov)
            for s, inter in n.intersection_of.items():
                expected = set(cov.pieces[s[0]].simplices)
                for i in s[1:]:
                    expected &= cov.pieces[i].simplices
                assert inter.simplices == frozenset(expected)


class TestProducts:
    def test_torus_counts(self):
        tri = fixtures.triangle_boundary()
        prod, pa, pb = product_complex(tri, tri)
        assert prod.vertex_count == 9
        assert [len(prod.simplices_of_dim(d)) for d in range(3)] == [9, 27, 18]
        assert prod.euler_characteristic() == 0
        assert pa[7] == 2 and pb[7] == 1

    def test_point_times_k(self):
        pt = validate_complex([(0,)])
        tri = fixtures.triangle_boundary()
        prod, _, pb = product_complex(pt, tri)
        assert prod.euler_characteristic() == tri.euler_characteristic()
        assert {tuple(sorted(pb[v] for v in s)) for s in prod.simplices} == set(
            tri.simplices
        )

    def test_edge_times_edge(self):
        edge = validate_complex([(0, 1)])
        prod, _, _ = product_complex(edge, edge)
        assert [len(prod.simplices_of_dim(d)) for d in range(3)] == [4, 5, 2]

    def test_euler_multiplicativity_random(self):
        rng = random.Random(31)
        for _ in range(10):
            a = random_complex(rng, max_vertices=4, max_cells=3, max_dim=2)
            b = random_complex(rng, max_vertices=4, max_cells=3, max_dim=2)
            prod, _, _ = product_complex(a, b)
            assert (
                prod.euler_characteristic()
                == a.euler_characteristic() * b.euler_characteristic()
            )

    def test_product_cover(self, circle_cover):
        cov = product_cover(circle_cover, circle_cover)
        assert len(cov.pieces) == 9
        one = Cover(circle_cover.base, (circle_cover.base,))
        cyl = product_cover(circle_cover, one)
        assert len(cyl.pieces) == 3

    def test_one_piece_product(self):
        tri = fixtures.triangle_boundary()
        one = Cover(tri, (tri,))
        cov = product_cover(one, one)
        assert len(cov.pieces) == 1
        assert cov.pieces[0].simplices == cov.base.simplices


class TestChains:
    def test_hexagon_cycle(self, hexagon):
        z = fixtures.hexagon_cycle(hexagon)
        assert not chain_boundary(z).coefficients

    def test_bd3_cycle_signs(self, bd3):
        faces = bd3.simplices_of_dim(2)
        # oracle: brute force over all sign assignments
        valid = []
        for sv in itertools.product((1, -1), repeat=4):
            signs = dict(zip(faces, sv))
            try:
                fundamental_cycle(bd3, 2, signs)
                valid.append(sv)
            except NotACycle:
                pass
        assert set(valid) == {(1, -1, 1, -1), (-1, 1, -1, 1)}

    def test_all_plus_rejected(self, bd3):
        with pytest.raises(NotACycle):
            fundamental_cycle(bd3, 2, {s: 1 for s in bd3.simplices_of_dim(2)})

    def test_boundary_squared_zero_random(self):
        rng = random.Random(8)
        for _ in range(40):
            k = random_complex(rng)
            d = rng.randint(1, max(1, k.dim))
            coeffs = {
                s: rng.randint(-4, 4) for s in k.simplices_of_dim(d)
            }
            z = Chain(k, d, coeffs)
            if d >= 2:
                assert not chain_boundary(chain_boundary(z)).coefficients

    def test_cycle_acceptance_matches_kernel(self):
        # fundamental_cycle accepts exactly the +-1 vectors in ker(boundary)
        rng = random.Random(13)
        checked = 0
        for _ in range(60):
            k = random_complex(rng, max_vertices=5, max_cells=4, max_dim=2)
            d = k.dim
            if d < 1:
                continue
            simps = k.simplices_of_dim(d)
            if not simps or len(simps) > 6:
                continue
            bmat = transpose(dense_coboundary(k, d - 1))
            for sv in itertools.product((1, -1), repeat=len(simps)):
                in_kernel = all(
                    sum(bmat[r][c] * sv[c] for c in range(len(simps))) == 0
                    for r in range(len(bmat))
                )
                signs = dict(zip(simps, sv))
                try:
                    fundamental_cycle(k, d, signs)
                    accepted = True
                except NotACycle:
                    accepted = False
                assert accepted == in_kernel
                checked += 1
        assert checked >= 50

    def test_chain_on_missing_simplex(self, hexagon):
        with pytest.raises(InvalidComplex):
            Chain(hexagon, 1, {(0, 2): 1})

    def test_shuffle_product_pairs_with_cup(self):
        # <x cup y, EZ(za x zb)> = <x, za> * <y, zb> on the staircase product
        from cechlift.cochains import Cochain, cup

        hexa = fixtures.hexagon()
        za = fixtures.hexagon_cycle(hexa)
        prod, _, _ = product_complex(hexa, hexa)
        z = shuffle_product_chain(za, za, prod, 6)
        assert not chain_boundary(z).coefficients
        zz = abelian.FgAbelianGroup((0,))
        # pullback 1-cochains dual to one edge of each factor
        xv = {}
        yv = {}
        for s in prod.simplices_of_dim(1):
            (a1, b1), (a2, b2) = divmod(s[0], 6), divmod(s[1], 6)
            if (a1, a2) == (0, 1):
                xv[s] = abelian.GroupElement(zz, (1,))
            if (b1, b2) == (0, 1):
                yv[s] = abelian.GroupElement(zz, (1,))
        x = Cochain(prod, 1, zz, xv)
        y = Cochain(prod, 1, zz, yv)
        lhs = sum(
            coeff * cup(x, y).value(s).coords[0] for s, coeff in z.coefficients.items()
        )
        # <x, za> = <y, za> = coefficient of edge (0,1) in the hexagon cycle
        assert lhs == za.coefficients[(0, 1)] ** 2 == 1


class TestCoverValidation:
    def test_union_must_cover(self, hexagon):
        piece = validate_complex([(0, 1)], vertex_count=6)
        with pytest.raises(InvalidCover):
            Cover(hexagon, (piece,))

    def test_pieces_must_be_subcomplexes(self, hexagon):
        alien = validate_complex([(0, 1)], vertex_count=7)
        with pytest.raises(InvalidCover):
            Cover(hexagon, (alien,))
