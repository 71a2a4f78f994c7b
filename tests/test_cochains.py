"""Coboundary, coboundary decision, Cech cohomology, cup, goodness."""

import itertools
import random
from fractions import Fraction

import pytest

from cechlift import fixtures
from cechlift.abelian import CIRCLE, QQ, FgAbelianGroup
from cechlift.cochains import (
    Cochain,
    coboundary,
    cohomology_classes,
    cup,
    is_coboundary,
    verify_good_cover,
)
from cechlift.complexes import Cover, nerve, star_cover, validate_complex
from cechlift.errors import (
    CoverNotGood,
    DegreeMismatch,
    GroupMismatch,
    NoProduct,
    NotACocycle,
)

from conftest import (
    dense_coboundary,
    dunce_hat,
    random_complex,
    random_cover,
    random_cochain,
    random_fg_group,
)
import cochain_oracle
import collapse_oracle
from deligne_oracle import solve_local_d

Z = FgAbelianGroup((0,))
Z2 = FgAbelianGroup((2,))
Z4 = FgAbelianGroup((4,))


class TestCoboundary:
    def test_degree_zero_formula(self, circle_nerve):
        f = Cochain(circle_nerve, 0, Z, {(0,): (3,), (1,): (5,), (2,): (0,)})
        df = coboundary(f)
        for (i, j) in circle_nerve.simplices_of_dim(1):
            assert df.value((i, j)).coords[0] == f.value((j,)).coords[0] - f.value((i,)).coords[0]

    def test_constant_kills(self, circle_nerve):
        f = Cochain(circle_nerve, 0, Z, {(i,): (7,) for i in range(3)})
        assert coboundary(f).is_zero()

    def test_circle_cochain_is_cocycle_on_empty_top(self, circle_nerve):
        g = Cochain(circle_nerve, 1, CIRCLE, {(0, 2): Fraction(1, 3)})
        assert coboundary(g).is_zero()

    def test_delta_squared_zero_random(self):
        rng = random.Random(99)
        count = 0
        while count < 60:
            k = random_complex(rng)
            cov = random_cover(rng, k)
            n = nerve(cov)
            if n.dim < 1:
                continue
            group = random_fg_group(rng)
            p = rng.randint(0, min(2, n.dim - 1))
            x = random_cochain(rng, n, group, p)
            assert coboundary(coboundary(x)).is_zero()
            count += 1

    def test_delta_squared_zero_circle(self, rp2_cover_nerve):
        rng = random.Random(4)
        _, nrv = rp2_cover_nerve
        for p in (0, 1):
            x = random_cochain(rng, nrv, CIRCLE, p)
            assert coboundary(coboundary(x)).is_zero()

    def test_alternating_evaluation(self, circle_nerve):
        x = Cochain(circle_nerve, 1, Z, {(0, 2): (5,)})
        assert x.value((2, 0)).coords == (-5,)
        assert x.value((0, 0)).coords == (0,)


class TestIsCoboundary:
    def test_zero_cocycle(self, circle_nerve):
        w = is_coboundary(Cochain(circle_nerve, 1, Z))
        assert w is not None and w.is_zero()

    def test_h1_generator_has_no_witness(self, circle_nerve):
        x = Cochain(circle_nerve, 1, Z, {(0, 1): (1,)})
        assert is_coboundary(x) is None

    def test_constructed_coboundary_found(self, circle_nerve):
        rng = random.Random(2)
        for _ in range(10):
            y = random_cochain(rng, circle_nerve, random_fg_group(rng), 0)
            dy = coboundary(y)
            w = is_coboundary(dy)
            assert w is not None
            assert coboundary(w) == dy

    def test_rejects_non_cocycle(self, rp2_cover_nerve):
        _, nrv = rp2_cover_nerve
        x = Cochain(nrv, 1, Z2, {(0, 1): (1,)})
        if not coboundary(x).is_zero():
            with pytest.raises(NotACocycle):
                is_coboundary(x)

    def test_against_exhaustive_enumeration(self):
        # small nerves: decision must agree with brute force over all y
        tri = fixtures.triangle_boundary()
        covers = [
            fixtures.three_arc_cover(),
            star_cover(tri),
        ]
        for cov in covers:
            n = nerve(cov)
            for m in (2, 3, 4):
                g = FgAbelianGroup((m,))
                edges = n.simplices_of_dim(1)
                verts = n.simplices_of_dim(0)
                for xv in itertools.product(range(m), repeat=len(edges)):
                    x = Cochain(n, 1, g, {e: (v,) for e, v in zip(edges, xv)})
                    if not coboundary(x).is_zero():
                        continue
                    exhaust = False
                    for yv in itertools.product(range(m), repeat=len(verts)):
                        y = Cochain(n, 0, g, {s: (v,) for s, v in zip(verts, yv)})
                        if coboundary(y) == x:
                            exhaust = True
                            break
                    assert (is_coboundary(x) is not None) == exhaust

    def test_circle_witness(self, circle_nerve):
        rng = random.Random(3)
        for _ in range(10):
            y = random_cochain(rng, circle_nerve, CIRCLE, 0)
            dy = coboundary(y)
            w = is_coboundary(dy)
            assert w is not None and coboundary(w) == dy
        # circle-valued generator-like cochain on the circle nerve is a
        # coboundary iff its signed loop sum vanishes
        x = Cochain(circle_nerve, 1, CIRCLE, {(0, 1): Fraction(1, 3)})
        assert is_coboundary(x) is None
        t = Cochain(
            circle_nerve,
            1,
            CIRCLE,
            {(0, 1): Fraction(1, 3), (1, 2): Fraction(1, 3), (0, 2): Fraction(2, 3)},
        )
        assert is_coboundary(t) is not None


class TestCechCohomology:
    def test_circle(self, circle_nerve):
        assert cohomology_classes(circle_nerve, Z, 1).group.moduli == (0,)
        assert cohomology_classes(circle_nerve, Z, 0).group.moduli == (0,)

    def test_torus(self, torus_nerve):
        assert cohomology_classes(torus_nerve, Z, 1).group.moduli == (0, 0)
        assert cohomology_classes(torus_nerve, Z, 2).group.moduli == (0,)

    def test_rp2(self, rp2_cover_nerve):
        _, nrv = rp2_cover_nerve
        assert cohomology_classes(nrv, Z2, 1).group.moduli == (2,)
        assert cohomology_classes(nrv, Z2, 2).group.moduli == (2,)
        assert cohomology_classes(nrv, Z, 2).group.moduli == (2,)

    def test_comparison_with_simplicial(self, rp2, rp2_cover_nerve, hexagon, circle_nerve):
        # Cech cohomology of a verified good cover equals simplicial
        # cohomology of the base
        cover, nrv = rp2_cover_nerve
        assert verify_good_cover(cover, nrv).ok
        for g in (Z, Z2):
            for p in (0, 1, 2):
                assert cohomology_classes(nrv, g, p).group == cohomology_classes(rp2, g, p).group
        for p in (0, 1):
            assert cohomology_classes(circle_nerve, Z, p).group == cohomology_classes(hexagon, Z, p).group

    def test_comparison_on_sphere_dual_cover(self, bd3):
        cover = fixtures.dual_block_cover(bd3)
        nrv = nerve(cover)
        assert verify_good_cover(cover, nrv).ok
        for p in (0, 1, 2):
            assert cohomology_classes(nrv, Z, p).group == cohomology_classes(bd3, Z, p).group

    def test_subdivided_torus36(self):
        """H^1 of the 216-vertex rung, bsd(torus36), against the oracles."""
        from conftest import oracle_cohomology_group_Z, oracle_cohomology_order_mod

        k = fixtures.barycentric_subdivision(fixtures.torus_product()[0])[0]
        assert k.vertex_count == 216
        d_prev, d_next = dense_coboundary(k, 0), dense_coboundary(k, 1)
        dim = len(k.simplices_of_dim(1))
        classes = cohomology_classes(k, Z, 1)
        assert classes.group.moduli == (0, 0)
        assert classes.group == oracle_cohomology_group_Z(d_prev, d_next, dim)
        assert [classes.class_coords(g) for g in classes.generators()] == [(1, 0), (0, 1)]
        h = cohomology_classes(k, Z2, 1).group
        assert h.moduli == (2, 2)
        assert h.order() == oracle_cohomology_order_mod(d_prev, d_next, 2, dim)

    def test_class_coords_of_generators(self, torus_nerve):
        classes = cohomology_classes(torus_nerve, Z, 1)
        gens = classes.generators()
        assert len(gens) == 2
        assert classes.class_coords(gens[0]) == (1, 0)
        assert classes.class_coords(gens[1]) == (0, 1)

    def test_multifactor_coefficients(self, rp2, torus_nerve):
        # H^p(RP2; Z/6) = Z/2 for p = 1, 2 (hand computation from the
        # universal coefficients of H_1 = Z/2), cross-checked against the
        # independent mod-6 order oracle
        from conftest import oracle_cohomology_order_mod

        z6 = FgAbelianGroup((6,))
        for p in (1, 2):
            classes = cohomology_classes(rp2, z6, p)
            assert classes.group.moduli == (2,)
            assert [classes.class_coords(g) for g in classes.generators()] == [(1,)]
            dim = len(rp2.simplices_of_dim(p))
            assert (
                oracle_cohomology_order_mod(
                    dense_coboundary(rp2, p - 1), dense_coboundary(rp2, p), 6, dim
                )
                == 2
            )
        # a genuinely multi-factor coefficient group
        z2z2 = FgAbelianGroup((2, 2))
        assert cohomology_classes(rp2, z2z2, 1).group.moduli == (2, 2)
        classes = cohomology_classes(torus_nerve, FgAbelianGroup((2,)), 1)
        gens = classes.generators()
        assert classes.group.moduli == (2, 2)
        for i, g in enumerate(gens):
            expected = tuple(1 if j == i else 0 for j in range(len(gens)))
            assert classes.class_coords(g) == expected

    def test_free_and_torsion_mixed_coefficients(self, rp2):
        # Z + Z/2 coefficients decompose as the direct sum of the two runs
        g = FgAbelianGroup((2, 0))
        h2 = cohomology_classes(rp2, g, 2).group
        # H^2(RP2;Z) = Z/2 and H^2(RP2;Z/2) = Z/2, so the sum is Z/2 + Z/2
        assert h2.moduli == (2, 2)

    def test_tor_summand_over_z4(self, rp2):
        # H^1(RP2; Z/4) = Tor(H^2(RP2; Z), Z/4) = Z/2: its generator is twice
        # an integer cochain, so every value is even mod 4
        classes = cohomology_classes(rp2, Z4, 1)
        assert classes.group.moduli == (2,)
        (g,) = classes.generators()
        assert coboundary(g).is_zero()
        assert g.values and all(v.coords[0] in (0, 2) for v in g.values.values())
        dy = coboundary(random_cochain(random.Random(4), rp2, Z4, 0))
        assert classes.class_coords(g) == (1,)
        assert classes.class_coords(g + g) == (0,)
        assert classes.class_coords(g + g + g + dy) == (1,)

    def test_orders_that_are_not_a_chain(self, rp2):
        # RP2 plus a circle over Z/3 + Z/6: the circle gives orders 3 and 6,
        # the Tor summand of RP2 order 2, so combining them takes a Smith call
        k = validate_complex([*rp2.simplices_of_dim(2), (6, 7), (7, 8), (6, 8)])
        classes = cohomology_classes(k, FgAbelianGroup((3, 6)), 1)
        assert classes.group.moduli == (6, 6)
        gens = classes.generators()
        for i, g in enumerate(gens):
            assert coboundary(g).is_zero()
            assert classes.class_coords(g) == tuple(int(i == j) for j in range(len(gens)))

    def test_class_of_a_non_cocycle_is_refused(self, torus_nerve):
        classes = cohomology_classes(torus_nerve, Z2, 1)
        x = Cochain(torus_nerve, 1, Z2, {torus_nerve.simplices_of_dim(1)[0]: (1,)})
        assert not coboundary(x).is_zero()
        with pytest.raises(NotACocycle, match="class of a non-cocycle requested"):
            classes.class_coords(x)


class TestCoefficients:
    def test_unsupported_group_is_refused_without_values(self, hexagon):
        with pytest.raises(GroupMismatch, match="unsupported coefficient group"):
            Cochain(hexagon, 0, object())
        with pytest.raises(GroupMismatch, match="unsupported coefficient group"):
            Cochain(hexagon, 0, object(), {(0,): 1})

    @pytest.mark.parametrize(
        "group, value",
        [
            (Z2, Z4.element((1,))),
            (Z, CIRCLE.element(Fraction(1, 2))),
            (CIRCLE, Z2.element((1,))),
            (QQ, CIRCLE.element(Fraction(1, 2))),
            (QQ, Z.element((1,))),
        ],
        ids=["Z/4 in Z/2", "Q/Z in Z", "Z/2 in Q/Z", "Q/Z in Q", "Z in Q"],
    )
    def test_element_of_another_group_is_refused(self, hexagon, group, value):
        with pytest.raises(GroupMismatch):
            Cochain(hexagon, 0, group, {(0,): value})

    @pytest.mark.parametrize("group", [QQ, CIRCLE], ids=["Q", "Q/Z"])
    def test_rational_values_are_exact(self, hexagon, group):
        """A float is refused, not stored as its binary expansion."""
        for bad in (0.1, 0.5, "1/3"):
            with pytest.raises(TypeError, match="is not an int or a Fraction"):
                Cochain(hexagon, 0, group, {(0,): bad})
        x = Cochain(hexagon, 0, group, {(0,): Fraction(1, 10), (1,): 3})
        assert x == Cochain(hexagon, 0, group, {(0,): group.element(Fraction(1, 10)), (1,): 3})
        assert x.value((1,)) == group.element(3)

    def test_sum_of_other_coefficients_is_a_group_mismatch(self, hexagon):
        edge = hexagon.simplices_of_dim(1)[0]
        x = Cochain(hexagon, 1, Z2, {edge: (1,)})
        with pytest.raises(GroupMismatch, match="coefficients Z/2 and Z"):
            x + Cochain(hexagon, 1, Z, {edge: (1,)})
        with pytest.raises(DegreeMismatch, match="different degrees"):
            x - Cochain(hexagon, 0, Z2, {(0,): (1,)})

    def test_class_of_other_coefficients_is_a_group_mismatch(self, hexagon):
        classes = cohomology_classes(hexagon, Z2, 1)
        edge = hexagon.simplices_of_dim(1)[0]
        with pytest.raises(GroupMismatch, match="a Z cochain has no class"):
            classes.class_coords(Cochain(hexagon, 1, Z, {edge: (1,)}))
        with pytest.raises(DegreeMismatch, match="degree-0 cochain has no class in H\\^1"):
            classes.class_coords(Cochain(hexagon, 0, Z2, {(0,): (1,)}))

    def test_class_on_another_carrier_is_a_group_mismatch(self):
        """A cocycle of another complex has no class, even when its simplices
        lie in the carrier; one on an equal complex has."""
        triangle = fixtures.triangle_boundary()
        wedge = validate_complex([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
        classes = cohomology_classes(wedge, Z2, 1)
        with pytest.raises(GroupMismatch, match="cochains on different carriers"):
            classes.class_coords(Cochain(triangle, 1, Z2, {(0, 1): (1,)}))
        equal = validate_complex(wedge.simplices, vertex_count=wedge.vertex_count)
        assert classes.class_coords(Cochain(equal, 1, Z2, {(0, 1): (1,)})) == (1, 0)

    @pytest.mark.parametrize("group", [QQ, CIRCLE], ids=["Q", "Q/Z"])
    def test_cohomology_classes_refuse_q_and_q_mod_z(self, hexagon, group):
        with pytest.raises(GroupMismatch, match="need fg coefficients, not Q"):
            cohomology_classes(hexagon, group, 1)


class TestNoStoredZeros:
    """Results built from plain coordinates store no value that reduces to 0."""

    @staticmethod
    def _clean(x):
        assert not any(v.is_zero() for v in x.values.values())
        assert x == Cochain(x.carrier, x.degree, x.group, dict(x.values))
        return x

    def test_arithmetic_and_coboundary_over_z_mod_m(self, rp2):
        z6 = FgAbelianGroup((6,))
        (a, b, c) = t = rp2.simplices_of_dim(2)[0]
        x = Cochain(rp2, 1, z6, {(a, b): (2,), (b, c): (1,)})
        y = Cochain(rp2, 1, z6, {(a, b): (4,), (b, c): (1,)})
        total = self._clean(x + y)  # 2 + 4 cancels mod 6
        assert total.values == {(b, c): z6.element((2,))}
        assert self._clean(x - x).values == {}
        assert self._clean(-x).values[(a, b)].coords == (4,)
        # (b,c) - (a,c) + (a,b) sums to 2, which is 0 mod 2
        odd = Cochain(rp2, 1, Z2, {(a, b): (1,), (b, c): (1,)})
        assert t not in self._clean(coboundary(odd)).values
        assert coboundary(odd) == cochain_oracle.coboundary(odd)
        # 2 * 3 is 0 mod 6
        product = self._clean(
            cup(Cochain(rp2, 1, z6, {(a, b): (2,)}), Cochain(rp2, 1, z6, {(b, c): (3,)}))
        )
        assert product.values == {}

    def test_witness_and_generators_over_z_mod_m(self, rp2):
        y = random_cochain(random.Random(4), rp2, Z4, 0)
        w = self._clean(is_coboundary(coboundary(y)))
        assert coboundary(w) == coboundary(y)
        classes = cohomology_classes(rp2, Z2, 1)
        [vector] = classes._generator_vectors()[0]
        reduced = [s for s, c in zip(rp2.simplices_of_dim(1), vector) if c and c % 2 == 0]
        assert reduced  # a generator coordinate such as -2 that reduces to 0
        [gen] = classes.generators()
        assert not set(reduced) & set(self._clean(gen).values)


class TestCup:
    def test_unit_law(self, rp2_cover_nerve):
        _, nrv = rp2_cover_nerve
        rng = random.Random(7)
        one = Cochain(nrv, 0, Z, {s: (1,) for s in nrv.simplices_of_dim(0)})
        b = random_cochain(rng, nrv, Z, 1)
        assert cup(one, b) == b

    def test_zero_absorbs(self, torus_nerve):
        rng = random.Random(8)
        a = random_cochain(rng, torus_nerve, Z, 1)
        z = Cochain(torus_nerve, 1, Z)
        assert cup(a, z).is_zero()

    def test_torus_generators_cup_to_h2_generator(self, torus_nerve):
        x, y = fixtures.torus_nerve_generators(torus_nerve)
        classes = cohomology_classes(torus_nerve, Z, 2)
        assert classes.class_coords(cup(x, y)) in ((1,), (-1,))

    def test_leibniz_random(self):
        rng = random.Random(12)
        count = 0
        while count < 25:
            k = random_complex(rng)
            cov = random_cover(rng, k)
            n = nerve(cov)
            if n.dim < 2:
                continue
            m = rng.choice((0, 2, 3, 4))
            group = FgAbelianGroup((m,)) if m else Z
            p = rng.randint(0, 1)
            q = rng.randint(0, n.dim - p - 1)
            a = random_cochain(rng, n, group, p)
            b = random_cochain(rng, n, group, q)
            lhs = coboundary(cup(a, b))
            rhs = cup(coboundary(a), b) + (
                cup(a, coboundary(b)) if p % 2 == 0 else -cup(a, coboundary(b))
            )
            assert lhs == rhs
            count += 1

    def test_no_product_for_circle_pairs(self, circle_nerve):
        a = Cochain(circle_nerve, 1, CIRCLE, {(0, 1): Fraction(1, 2)})
        with pytest.raises(NoProduct):
            cup(a, a)

    def test_no_product_for_multifactor(self, circle_nerve):
        g = FgAbelianGroup((2, 2))
        a = Cochain(circle_nerve, 0, g, {(0,): (1, 0)})
        with pytest.raises(NoProduct):
            cup(a, a)


class TestGoodCover:
    def test_three_arc_good(self, circle_cover, circle_nerve):
        assert verify_good_cover(circle_cover, circle_nerve).ok

    def test_bd3_star_cover_fails_at_quadruple(self, bd3):
        cov = star_cover(bd3)
        n = nerve(cov)
        report = verify_good_cover(cov, n)
        assert not report.ok
        quad = [(s, q, h) for s, q, h in report.failures if s == (0, 1, 2, 3)]
        assert quad
        # the quadruple intersection is the 1-skeleton: H^1 = Z^3
        assert quad[0][1] == 1
        assert quad[0][2].moduli == (0, 0, 0)

    def test_disconnected_intersection_fails_in_degree_zero(self, hexagon):
        """Two arcs of the hexagon meet in two edges: reduced H^0 = Z."""
        a = validate_complex([(0, 1), (1, 2), (2, 3), (3, 4)], vertex_count=6)
        b = validate_complex([(3, 4), (4, 5), (0, 5), (0, 1)], vertex_count=6)
        cov = Cover(hexagon, (a, b))
        report = verify_good_cover(cov, nerve(cov))
        assert [(s, q, str(h)) for s, q, h in report.failures] == [((0, 1), 0, "Z")]
        assert report.describe() == "(0, 1) H^0=Z"

    def test_one_piece_contractible(self):
        k = validate_complex([(0, 1, 2)])
        cov = Cover(k, (k,))
        assert verify_good_cover(cov, nerve(cov)).ok

    def test_torus_product_cover_good(self, torus_cover, torus_nerve):
        _, cov = torus_cover
        assert verify_good_cover(cov, torus_nerve).ok

    def test_bd3_star_cover_report_is_unchanged(self, bd3):
        """Eleven failures, with the text they had before collapse certificates."""
        cov = star_cover(bd3)
        report = verify_good_cover(cov, nerve(cov))
        assert report.max_degree == 3
        assert [(s, q, str(h)) for s, q, h in report.failures] == [
            ((0, 1), 1, "Z"),
            ((0, 1, 2), 1, "Z + Z"),
            ((0, 1, 2, 3), 1, "Z + Z + Z"),
            ((0, 1, 3), 1, "Z + Z"),
            ((0, 2), 1, "Z"),
            ((0, 2, 3), 1, "Z + Z"),
            ((0, 3), 1, "Z"),
            ((1, 2), 1, "Z"),
            ((1, 2, 3), 1, "Z + Z"),
            ((1, 3), 1, "Z"),
            ((2, 3), 1, "Z"),
        ]
        assert report.describe() == (
            "(0, 1) H^1=Z, (0, 1, 2) H^1=Z + Z, (0, 1, 2, 3) H^1=Z + Z + Z, (0, 1, 3) H^1=Z + Z"
        )


class TestCollapseFallback:
    """The dunce hat is acyclic but has no free face, so it never collapses:
    goodness falls back to the Smith diagonals, and the oracle's local
    solve (``deligne_oracle.solve_local_d``) to ``abelian.solve``."""

    def test_no_certificate_in_any_order(self):
        k = dunce_hat()
        assert [len(k.simplices_of_dim(d)) for d in range(3)] == [8, 24, 17]
        assert k.collapses() is False
        assert collapse_oracle.greedy_collapse(k, random.Random(1)) is None

    def test_goodness_falls_back_to_smith(self):
        k = dunce_hat()
        cov = Cover(k, (k,))
        assert verify_good_cover(cov, nerve(cov)).ok

    @pytest.mark.parametrize("q", [0, 1])
    def test_local_solve_falls_back_to_smith(self, q):
        k = dunce_hat()
        rng = random.Random(q)
        x = {s: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for s in k.simplices_of_dim(q)}
        rhs = coboundary(Cochain(k, q, QQ, x)).values
        for shuffle in (None, random.Random(2)):
            v = solve_local_d(k, q, rhs, shuffle)
            assert coboundary(Cochain(k, q, QQ, v)).values == rhs

    @pytest.mark.parametrize("q", [0, 1])
    def test_local_solve_on_integers_returns_the_rational_solution_as_ints(self, q):
        """The dunce hat is acyclic over Z, so an int right side solves in ints."""
        k = dunce_hat()
        rng = random.Random(10 + q)
        x = {s: rng.randint(-5, 5) for s in k.simplices_of_dim(q)}
        rhs = {s: v.numerator for s, v in coboundary(Cochain(k, q, QQ, x)).values.items()}
        assert rhs and all(type(v) is int for v in rhs.values())
        for seed in (None, 2):
            v = solve_local_d(k, q, rhs, None if seed is None else random.Random(seed))
            want = solve_local_d(
                k, q, {s: Fraction(b) for s, b in rhs.items()}, None if seed is None else random.Random(seed)
            )
            assert all(type(c) is int for c in v.values())
            assert v == want
            assert coboundary(Cochain(k, q, QQ, v)).values == rhs

    def test_integer_solve_is_refused_where_only_q_solves(self, rp2):
        """RP^2 is acyclic over Q but not over Z: one triangle is a rational
        coboundary and not an integral one, so the oracle's int solve
        refuses it."""
        tri = rp2.simplices_of_dim(2)[0]
        assert solve_local_d(rp2, 1, {tri: Fraction(1)}) != {}
        with pytest.raises(CoverNotGood, match="not integral"):
            solve_local_d(rp2, 1, {tri: 1})
