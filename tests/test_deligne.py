"""Descent packages, curvature, characteristic forms, holonomy."""

import dataclasses
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechlift import abelian, deligne, fixtures, io
from cechlift.abelian import CIRCLE, QQ, CircleElement, FgAbelianGroup, GroupElement
from cechlift.cochains import Cochain, coboundary, cohomology_classes, cup
from cechlift.complexes import (
    Chain,
    Cover,
    SimplicialComplex,
    downward_closure,
    fundamental_cycle,
    nerve,
    product_cover,
    shuffle_product_chain,
    star_cover,
    validate_complex,
)
from cechlift.deligne import (
    DelignePackage,
    DoubleCochain,
    add_exact_datum,
    add_global_datum,
    cech_delta,
    characteristic_form,
    curvature,
    descent_chain,
    form_d,
    holonomy,
    pair,
    shift_cocycle,
    _min_piece_assignment,
)
from cechlift.errors import (
    CoverNotGood,
    DegreeMismatch,
    GroupMismatch,
    InvalidComplex,
    NoFundamentalCycle,
    NotACocycle,
)

import deligne_oracle
from conftest import two_arc_circle

Z = FgAbelianGroup((0,))


def torus_circle_two_cocycle(nrv, t):
    x, y = fixtures.torus_nerve_generators(nrv)
    omega = cup(x, y)
    values = {s: CircleElement(Fraction(t) * v.coords[0]) for s, v in omega.values.items()}
    return Cochain(nrv, 2, CIRCLE, values)


def random_double(rng, cov, nrv, p, q, value):
    """A (p, q) double cochain with value() on about 40 % of each local q-simplex."""
    values = {}
    for t in nrv.simplices_of_dim(p):
        inter = nrv.intersection_of[t]
        loc = {s: value() for s in inter.simplices_of_dim(q) if rng.random() < 0.4}
        if loc:
            values[t] = loc
    return DoubleCochain(cov, nrv, p, q, values)


class TestDoubleComplex:
    def test_differentials_commute_and_square_to_zero(self, torus_cover, torus_nerve):
        rng = random.Random(14)
        _, cov = torus_cover
        for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
            x = random_double(
                rng, cov, torus_nerve, p, q, lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            )
            assert cech_delta(cech_delta(x)).is_zero()
            assert form_d(form_d(x)).is_zero()
            assert cech_delta(form_d(x)) == form_d(cech_delta(x))

    def test_homotopy_identity(self, torus_cover, torus_nerve):
        # delta(h x) + h(delta x) = x for positive Cech degree, h the
        # oracle's contraction; the library runs only its transpose
        rng = random.Random(15)
        _, cov = torus_cover
        assign = deligne_oracle.piece_assignment(cov, cov.base.simplices)
        h = deligne_oracle.cech_homotopy
        for p, q in ((1, 0), (1, 1), (2, 0)):
            x = random_double(rng, cov, torus_nerve, p, q, lambda: Fraction(rng.randint(-4, 4)))
            assert cech_delta(h(x, assign)) + h(cech_delta(x), assign) == x

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]))
    def test_unchecked_results_pass_the_checks(self, torus_cover, torus_nerve, seed, bidegree):
        """Sums, negatives and both differentials skip the constructor's
        checks; the checking constructor takes each result back
        unchanged."""
        rng = random.Random(seed)
        _, cov = torus_cover
        p, q = bidegree

        def value():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

        x = random_double(rng, cov, torus_nerve, p, q, value)
        y = random_double(rng, cov, torus_nerve, p, q, value)
        for r in (x + y, x - y, -x, x - x, cech_delta(x), form_d(x)):
            checked = DoubleCochain(cov, torus_nerve, r.cech_degree, r.form_degree, r.values)
            assert r == checked
            assert all(type(v) is Fraction for loc in r.values.values() for v in loc.values())

    @pytest.mark.parametrize("bad", [0.1, "1/2", Decimal("0.5"), 1j])
    def test_constructor_refuses_values_that_are_not_rational(self, circle_cover, circle_nerve, bad):
        """A float would scale every entry of its package by its binary
        denominator (0.1 is 3602879701896397 / 2**55)."""
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            DoubleCochain(circle_cover, circle_nerve, 0, 1, {(0,): {(0, 1): bad}})

    def test_constructor_takes_ints_and_fractions(self, circle_cover, circle_nerve):
        values = {(0,): {(0, 1): 2, (1, 2): Fraction(1, 3)}, (1,): {(2, 3): 0}}
        x = DoubleCochain(circle_cover, circle_nerve, 0, 1, values)
        assert x.values == {(0,): {(0, 1): Fraction(2), (1, 2): Fraction(1, 3)}}
        assert all(type(v) is Fraction for v in x.values[(0,)].values())

    @pytest.mark.parametrize("name", ["torus", "rp2", "circle"])
    def test_piece_assignment_matches_the_scan(self, request, name):
        cov = {
            "torus": lambda: request.getfixturevalue("torus_cover")[1],
            "rp2": lambda: request.getfixturevalue("rp2_cover_nerve")[0],
            "circle": lambda: request.getfixturevalue("circle_cover"),
        }[name]()
        tops = cov.base.simplices_of_dim(cov.base.dim)
        # the base, half of it, and one top simplex, smaller than a piece
        for simplices in (cov.base.simplices, downward_closure(tops[::2]), downward_closure(tops[:1])):
            got = _min_piece_assignment(cov, simplices)
            assert {s: got[s] for s in simplices} == deligne_oracle.piece_assignment(cov, simplices)
            for trial in range(20):
                got = _min_piece_assignment(cov, simplices, random.Random(trial))
                want = deligne_oracle.piece_assignment(cov, simplices, random.Random(trial))
                assert {s: got[s] for s in simplices} == want


class TestDescent:
    def test_zero_cocycle_gives_zero_package(self, circle_cover, circle_nerve):
        c = Cochain(circle_nerve, 1, CIRCLE, {})
        pkg = descent_chain(c, circle_cover, circle_nerve)
        assert all(layer.is_zero() for layer in pkg.layers.values())
        pkg.validate()

    def test_hexagon_package(self, circle_cover, circle_nerve):
        c = fixtures.circle_flat_cocycle(circle_nerve, Fraction(1, 3))
        pkg = descent_chain(c, circle_cover, circle_nerve)
        pkg.validate()
        assert pkg.degree == 1

    def test_torus_gerbe_package(self, torus_cover, torus_nerve):
        _, cov = torus_cover
        c = torus_circle_two_cocycle(torus_nerve, Fraction(1, 3))
        pkg = descent_chain(c, cov, torus_nerve)
        pkg.validate()
        assert sorted(pkg.layers) == [0, 1]

    def test_rejects_bad_cover(self, bd3):
        from cechlift.complexes import star_cover

        cov = star_cover(bd3)
        nrv = nerve(cov)
        c = Cochain(nrv, 1, CIRCLE, {})
        with pytest.raises(CoverNotGood):
            descent_chain(c, cov, nrv)

    def test_rejects_non_cocycle(self, torus_cover, torus_nerve):
        """The package's validation tests the cocycle law, once, with this message."""
        _, cov = torus_cover
        s = torus_nerve.simplices_of_dim(2)[0]
        bad = Cochain(torus_nerve, 2, CIRCLE, {s: CircleElement(Fraction(1, 5))})
        assert not coboundary(bad).is_zero()
        with pytest.raises(NotACocycle) as err:
            descent_chain(bad, cov, torus_nerve)
        assert str(err.value) == "classifying cochain is not a cocycle"

    def test_gauge_moves_preserve_validity(self, torus_cover, torus_nerve):
        rng = random.Random(16)
        _, cov = torus_cover
        pkg = descent_chain(
            torus_circle_two_cocycle(torus_nerve, Fraction(2, 5)), cov, torus_nerve
        )
        rho_vals = {}
        for t in torus_nerve.simplices_of_dim(0):
            inter = torus_nerve.intersection_of[t]
            loc = {
                s: Fraction(rng.randint(-3, 3), 2)
                for s in inter.simplices_of_dim(1)
                if rng.random() < 0.4
            }
            if loc:
                rho_vals[t] = loc
        rho = DoubleCochain(cov, torus_nerve, 0, 1, rho_vals)
        p2 = add_exact_datum(pkg, 0, rho)
        p2.validate()
        eta = Cochain(
            torus_nerve,
            1,
            CIRCLE,
            {
                s: CircleElement(Fraction(rng.randint(0, 3), 4))
                for s in torus_nerve.simplices_of_dim(1)
                if rng.random() < 0.4
            },
        )
        p3 = shift_cocycle(p2, eta)
        p3.validate()

    def test_gauge_datum_on_another_cover_is_refused(self, torus_cover, torus_nerve, rp2_cover_nerve):
        rng = random.Random(17)
        _, cov = torus_cover
        pkg = descent_chain(torus_circle_two_cocycle(torus_nerve, Fraction(1, 3)), cov, torus_nerve)
        rp2_cov, rp2_nrv = rp2_cover_nerve
        rho = random_double(rng, rp2_cov, rp2_nrv, 0, 1, lambda: Fraction(rng.randint(1, 3), 2))
        assert not rho.is_zero()
        with pytest.raises(DegreeMismatch, match="different covers"):
            add_exact_datum(pkg, 0, rho)

    def test_sums_need_equal_covers_not_the_same_object(self, torus_cover, torus_nerve, circle_cover, circle_nerve):
        rng = random.Random(18)
        _, cov = torus_cover
        _, twin = fixtures.torus_product()
        assert twin is not cov and twin == cov
        twin_nerve = nerve(twin)
        x = random_double(rng, cov, torus_nerve, 0, 1, lambda: Fraction(rng.randint(1, 3)))
        y = random_double(rng, twin, twin_nerve, 0, 1, lambda: Fraction(rng.randint(1, 3)))
        assert (x + y) - y == x
        z = random_double(rng, circle_cover, circle_nerve, 0, 1, lambda: Fraction(rng.randint(1, 3)))
        for op in (lambda: x + z, lambda: z - x):
            with pytest.raises(DegreeMismatch, match="different covers"):
                op()


def _refusal(check):
    """The NotACocycle message a check raises, or None when it passes."""
    try:
        check()
    except NotACocycle as exc:
        return str(exc)
    return None


@pytest.fixture(scope="module")
def star_gerbe(torus_cover):
    """(torus, a degree-2 package on the star cover of the torus).

    Its pairwise intersections carry triangles and its triple ones
    edges, so every descent and trivialization equation has entries to
    fail on; on the product cover they are too thin for that.
    """
    torus, _ = torus_cover
    cov = star_cover(torus)
    nrv = nerve(cov)
    rng = random.Random(22)
    eta = {e: CircleElement(Fraction(rng.randrange(7), 7)) for e in nrv.simplices_of_dim(1)}
    return torus, descent_chain(coboundary(Cochain(nrv, 1, CIRCLE, eta)), cov, nrv)


class TestChecksRefuse:
    """The package and trivialization checks, run on numerators, refuse
    exactly what the Fraction oracle refuses, with the same message."""

    def test_validate_on_perturbed_layers(self, star_gerbe):
        rng = random.Random(20)
        _, pkg = star_gerbe
        messages = set()
        for trial in range(6):
            q = trial % 2
            bump = random_double(rng, pkg.cover, pkg.nerve, q, 2 - q, lambda: Fraction(rng.randint(1, 4), 7))
            layers = dict(pkg.layers)
            layers[q] = layers[q] + bump
            fields = dict(cover=pkg.cover, nerve=pkg.nerve, degree=2, cocycle=pkg.cocycle, layers=layers)
            # no invalid package can be built, so the oracle reads a plain record
            bad = SimpleNamespace(**fields)
            want = _refusal(lambda: deligne_oracle.validate(bad))
            assert _refusal(lambda: DelignePackage(**fields)) == want
            # the oracle's trivialization route names the fault, not the cover
            assert _refusal(lambda: deligne_oracle.restrict(bad, pkg.cover.base)) == want
            messages.add(want)
        assert messages == {"top descent equation fails", "middle descent equation fails at layer 1"}


class TestCurvature:
    def test_unglued_bottom_layer_names_the_smallest_clash(self):
        """A record whose D A^(0) disagrees on two overlaps.

        The later piece clashes at the smaller triangle; the error names
        the smallest clash, as a scan of the base in sorted order finds.
        """
        strip = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)]
        base = validate_complex(strip)
        pieces = (base, validate_complex([strip[3]], 6), validate_complex([strip[1]], 6))
        cov = Cover(base, pieces)
        nrv = nerve(cov)
        layer = DoubleCochain(cov, nrv, 0, 1, {(1,): {(3, 4): 1}, (2,): {(1, 2): 1}})
        # its top equation fails, so the constructor would refuse it; the
        # record is made without it to reach curvature's own glue check
        pkg = _unchecked(cover=cov, nerve=nrv, degree=1, cocycle=Cochain(nrv, 1, CIRCLE, {}), layers={0: layer})
        bottom = form_d(layer)
        clashes = [
            s
            for s in base.simplices_of_dim(2)
            if len({bottom.values.get((i,), {}).get(s, 0) for i, p in enumerate(pieces) if p.has_simplex(s)}) > 1
        ]
        assert clashes == [(1, 2, 3), (3, 4, 5)]
        with pytest.raises(NotACocycle) as err:
            curvature(pkg)
        assert str(err.value) == "curvature does not glue at (1, 2, 3)"

    def test_zero_package(self, circle_cover, circle_nerve):
        pkg = descent_chain(Cochain(circle_nerve, 1, CIRCLE, {}), circle_cover, circle_nerve)
        f = curvature(pkg)
        assert not f.values

    def test_top_degree_vanishing_on_circle(self, circle_cover, circle_nerve):
        pkg = fixtures.circle_flat_package(Fraction(1, 3))
        f = curvature(pkg)
        assert f.degree == 2
        assert not f.values  # 2-cochain on a 1-complex

    def test_torus_quantization(self, torus_cover, torus_nerve):
        # <F, fundamental cycle> equals the integer class coordinate of
        # the Bockstein delta(lift c), computed independently through the
        # cohomology machinery; both vanish exactly here
        torus, cov = torus_cover
        x, _ = fixtures.torus_nerve_generators(torus_nerve)
        for t in (Fraction(1, 2), Fraction(2, 7)):
            c = Cochain(
                torus_nerve,
                1,
                CIRCLE,
                {s: CircleElement(t * v.coords[0]) for s, v in x.values.items()},
            )
            pkg = descent_chain(c, cov, torus_nerve)
            f = curvature(pkg)
            z = fixtures.torus_cycle(torus)
            value = pair(f, z)
            assert value.denominator == 1
            kd = cech_delta(deligne_oracle.lift_cocycle(c, cov, torus_nerve))
            kvals = {}
            for s in torus_nerve.simplices_of_dim(2):
                loc = set(kd.values.get(s, {}).values()) or {Fraction(0)}
                assert len(loc) == 1  # locally constant
                v = loc.pop()
                assert v.denominator == 1
                if v:
                    kvals[s] = (int(v),)
            kc = Cochain(torus_nerve, 2, Z, kvals)
            classes = cohomology_classes(torus_nerve, Z, 2)
            assert classes.class_coords(kc) == (int(value),)

    def test_gauge_invariance(self, torus_cover, torus_nerve):
        rng = random.Random(17)
        _, cov = torus_cover
        pkg = descent_chain(
            torus_circle_two_cocycle(torus_nerve, Fraction(1, 4)), cov, torus_nerve
        )
        rho_vals = {}
        for t in torus_nerve.simplices_of_dim(0):
            inter = torus_nerve.intersection_of[t]
            loc = {
                s: Fraction(rng.randint(-2, 2), 3)
                for s in inter.simplices_of_dim(1)
                if rng.random() < 0.5
            }
            if loc:
                rho_vals[t] = loc
        rho = DoubleCochain(cov, torus_nerve, 0, 1, rho_vals)
        assert curvature(add_exact_datum(pkg, 0, rho)) == curvature(pkg)


class TestCharacteristicForm:
    def test_power_one_is_curvature(self, torus_cover, torus_nerve):
        _, cov = torus_cover
        x, _ = fixtures.torus_nerve_generators(torus_nerve)
        c = Cochain(
            torus_nerve,
            1,
            CIRCLE,
            {s: CircleElement(Fraction(1, 2) * v.coords[0]) for s, v in x.values.items()},
        )
        pkg = descent_chain(c, cov, torus_nerve)
        assert characteristic_form(pkg, 1) == curvature(pkg)

    def test_zero_package_any_power(self, circle_cover, circle_nerve):
        pkg = descent_chain(Cochain(circle_nerve, 1, CIRCLE, {}), circle_cover, circle_nerve)
        for m in (1, 2, 3):
            assert not characteristic_form(pkg, m).values

    def test_top_degree_power_vanishes(self, torus_cover, torus_nerve):
        _, cov = torus_cover
        x, _ = fixtures.torus_nerve_generators(torus_nerve)
        c = Cochain(
            torus_nerve,
            1,
            CIRCLE,
            {s: CircleElement(Fraction(1, 3) * v.coords[0]) for s, v in x.values.items()},
        )
        pkg = descent_chain(c, cov, torus_nerve)
        # a 4-cochain on a 2-complex
        assert not characteristic_form(pkg, 2).values


class TestPair:
    def test_zero_cochain(self, hexagon):
        x = Cochain(hexagon, 1, abelian.QQ, {})
        z = fixtures.hexagon_cycle(hexagon)
        assert pair(x, z) == 0

    def test_indicator(self, hexagon):
        x = Cochain(hexagon, 1, abelian.QQ, {(0, 1): Fraction(1)})
        z = Chain(hexagon, 1, {(0, 1): 3})
        assert pair(x, z) == 3

    def test_degree_mismatch(self, hexagon):
        x = Cochain(hexagon, 1, abelian.QQ, {})
        z = Chain(hexagon, 0, {(0,): 1})
        with pytest.raises(DegreeMismatch):
            pair(x, z)

    def test_refuses_a_chain_off_the_carrier(self, hexagon, torus_cover):
        """Edges (0, 6) and (0, 7) of the torus are not edges of the
        hexagon: the chain is refused, not read as 0 there."""
        torus, _ = torus_cover
        x = Cochain(hexagon, 1, abelian.QQ, {(0, 1): Fraction(1, 2)})
        z = Chain(torus, 1, {(0, 6): 1, (0, 7): 1})
        with pytest.raises(InvalidComplex) as err:
            pair(x, z)
        assert str(err.value) == "chain supported outside the cochain's carrier at (0, 6)"

    def test_a_chain_inside_a_subcomplex_carrier_pairs(self, torus_cover):
        """A cochain on a subcomplex v pairs with a chain of the base
        supported in v."""
        torus, _ = torus_cover
        v = SimplicialComplex(36, downward_closure([(0, 6), (0, 7)]))
        x = Cochain(v, 1, abelian.QQ, {(0, 6): Fraction(1, 2), (0, 7): Fraction(1, 3)})
        assert pair(x, Chain(torus, 1, {(0, 6): 2, (0, 7): -1})) == Fraction(2, 3)

    @pytest.mark.parametrize("group", [CIRCLE, Z, FgAbelianGroup((3,))], ids=str)
    def test_refuses_a_cochain_not_over_q(self, hexagon, group):
        x = Cochain(hexagon, 1, group, {(0, 1): Fraction(1, 3) if group == CIRCLE else (1,)})
        assert not x.is_zero()
        z = Chain(hexagon, 1, {(0, 1): 3})
        with pytest.raises(GroupMismatch, match=f"not a {group} one"):
            pair(x, z)


class TestHolonomy:
    def test_trivial_package(self, hexagon, circle_cover, circle_nerve):
        pkg = descent_chain(Cochain(circle_nerve, 1, CIRCLE, {}), circle_cover, circle_nerve)
        z = fixtures.hexagon_cycle(hexagon)
        assert holonomy(pkg, hexagon, z).is_zero()

    def test_hexagon_flat_bundle(self, hexagon):
        for theta in (Fraction(1, 3), Fraction(2, 5), Fraction(5, 7)):
            pkg = fixtures.circle_flat_package(theta)
            z = fixtures.hexagon_cycle(hexagon)
            h = holonomy(pkg, hexagon, z)
            # oracle: signed sum of transitions along the oriented cycle
            c = pkg.cocycle
            oracle = c.value((0, 1)) + c.value((1, 2)) - c.value((0, 2))
            assert h == oracle
            assert h.value == theta % 1

    def test_torus_flat_gerbe(self, torus_cover, torus_nerve):
        torus, cov = torus_cover
        z = fixtures.torus_cycle(torus)
        for t in (Fraction(1, 3), Fraction(3, 4)):
            pkg = descent_chain(torus_circle_two_cocycle(torus_nerve, t), cov, torus_nerve)
            assert holonomy(pkg, torus, z).value == t

    def test_reversed_cycle_negates(self, torus_cover, torus_nerve):
        torus, cov = torus_cover
        z = fixtures.torus_cycle(torus)
        zneg = Chain(torus, 2, {s: -c for s, c in z.coefficients.items()})
        pkg = descent_chain(
            torus_circle_two_cocycle(torus_nerve, Fraction(1, 3)), cov, torus_nerve
        )
        assert holonomy(pkg, torus, zneg).value == Fraction(2, 3)

    def test_additivity_disjoint_union(self):
        # two disjoint hexagons, each with its own three-arc cover
        edges = [(i, (i + 1) % 6) for i in range(6)]
        shifted = [(a + 6, b + 6) for a, b in edges]
        k = validate_complex(edges + shifted)
        arcs = []
        for base in (0, 6):
            for pair_ in (((0, 1), (1, 2)), ((2, 3), (3, 4)), ((4, 5), (0, 5))):
                simps = [tuple(sorted((a + base, b + base))) for a, b in pair_]
                arcs.append(
                    SimplicialComplex(12, downward_closure(simps))
                )
        cov = Cover(k, tuple(arcs))
        nrv = nerve(cov)
        values = {
            (0, 1): CircleElement(Fraction(1, 3)),
            (3, 4): CircleElement(Fraction(1, 5)),
        }
        c = Cochain(nrv, 1, CIRCLE, values)
        pkg = descent_chain(c, cov, nrv)
        signs1 = {e: 1 for e in k.simplices_of_dim(1) if max(e) < 6}
        signs1[(0, 5)] = -1
        signs2 = {e: 1 for e in k.simplices_of_dim(1) if min(e) >= 6}
        signs2[(6, 11)] = -1
        z1 = Chain(k, 1, {s: c_ for s, c_ in signs1.items()})
        z2 = Chain(k, 1, {s: c_ for s, c_ in signs2.items()})
        v1 = SimplicialComplex(12, downward_closure([s for s in signs1]))
        v2 = SimplicialComplex(12, downward_closure([s for s in signs2]))
        h1 = holonomy(pkg, v1, z1)
        h2 = holonomy(pkg, v2, z2)
        htotal = holonomy(pkg, k, z1 + z2)
        assert htotal == h1 + h2
        assert h1.value == Fraction(1, 3)
        assert h2.value == Fraction(1, 5)

    def test_gauge_and_solver_invariance(self, torus_cover, torus_nerve):
        rng = random.Random(18)
        torus, cov = torus_cover
        z = fixtures.torus_cycle(torus)
        pkg = descent_chain(
            torus_circle_two_cocycle(torus_nerve, Fraction(1, 3)), cov, torus_nerve
        )
        base = holonomy(pkg, torus, z)
        for trial in range(8):
            rho_vals = {}
            for t in torus_nerve.simplices_of_dim(0):
                inter = torus_nerve.intersection_of[t]
                loc = {
                    s: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for s in inter.simplices_of_dim(1)
                    if rng.random() < 0.4
                }
                if loc:
                    rho_vals[t] = loc
            p2 = add_exact_datum(pkg, 0, DoubleCochain(cov, torus_nerve, 0, 1, rho_vals))
            eta = Cochain(
                torus_nerve,
                1,
                CIRCLE,
                {
                    s: CircleElement(Fraction(rng.randint(0, 5), 6))
                    for s in torus_nerve.simplices_of_dim(1)
                    if rng.random() < 0.4
                },
            )
            p3 = shift_cocycle(p2, eta)
            assert holonomy(p3, torus, z, shuffle=random.Random(trial)) == base

    def test_global_datum_invariance(self, hexagon):
        rng = random.Random(19)
        pkg = fixtures.circle_flat_package(Fraction(1, 3))
        z = fixtures.hexagon_cycle(hexagon)
        base = holonomy(pkg, hexagon, z)
        for _ in range(5):
            f = Cochain(
                hexagon,
                0,
                abelian.QQ,
                {
                    (v,): Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                    for v in range(6)
                    if rng.random() < 0.7
                },
            )
            p2 = add_global_datum(pkg, f)
            assert holonomy(p2, hexagon, z) == base

    def test_dimension_checks(self, torus_cover, torus_nerve, hexagon):
        torus, cov = torus_cover
        pkg = descent_chain(
            torus_circle_two_cocycle(torus_nerve, Fraction(1, 3)), cov, torus_nerve
        )
        z = fixtures.torus_cycle(torus)
        # a single triangle is not a cycle
        tri = next(iter(torus.simplices_of_dim(2)))
        with pytest.raises(NoFundamentalCycle):
            holonomy(pkg, torus, Chain(torus, 2, {tri: 1}))
        # wrong-degree chain
        with pytest.raises(NoFundamentalCycle):
            holonomy(pkg, torus, Chain(torus, 1, {}))
        # wrong-dimension subcomplex
        edge_only = SimplicialComplex(36, downward_closure([(0, 1)]))
        with pytest.raises(NoFundamentalCycle):
            holonomy(pkg, edge_only, Chain(torus, 2, {}))

    def test_holonomy_over_proper_subcomplex(self, torus_cover, torus_nerve):
        # restrict a d=1 torus package to the circle hexagon x {0}; the
        # holonomy is the winding of the classifying class along that
        # factor (the signed chart-crossing sum, +t for the first-factor
        # generator and 0 for the second)
        from cechlift.complexes import chain_boundary

        torus, cov = torus_cover
        x, y = fixtures.torus_nerve_generators(torus_nerve)
        circle_simplices = downward_closure(
            [(a * 6, b * 6) for a, b in fixtures.hexagon().simplices_of_dim(1)]
        )
        v = SimplicialComplex(36, circle_simplices)
        signs = {e: 1 for e in v.simplices_of_dim(1)}
        signs[(0, 30)] = -1  # the wrap-around edge (0,5) x {0}
        z = Chain(v, 1, signs)
        assert not chain_boundary(z).coefficients
        t = Fraction(2, 7)
        for gen, expected in ((x, t), (y, Fraction(0))):
            c = Cochain(
                torus_nerve,
                1,
                CIRCLE,
                {s: CircleElement(t * vv.coords[0]) for s, vv in gen.values.items()},
            )
            pkg = descent_chain(c, cov, torus_nerve)
            restricted = deligne_oracle.restrict(pkg, v)
            assert sum(1 for p in restricted.cover.pieces if not p.is_empty()) == 6
            assert holonomy(pkg, v, z).value == expected

    def test_degree_3_package_on_the_three_torus(self, torus_cover):
        """1/3 x cup y cup z on T^3 = torus x hexagon with its 27-piece
        product cover, around the shuffle 3-cycle: 1/3 by default and
        under shuffled assignments.  2/3 would mean a wrong sign
        (-1)^(d(d-1)/2) at d = 3."""
        torus, cov = torus_cover
        t3 = product_cover(cov, fixtures.three_arc_cover())
        nrv = nerve(t3)
        x, y, w = (_t3_generator(nrv, digit) for digit in (2, 1, 0))
        values = {s: CircleElement(Fraction(v.coords[0], 3)) for s, v in cup(cup(x, y), w).values.items()}
        pkg = descent_chain(Cochain(nrv, 3, CIRCLE, values), t3, nrv)
        z = shuffle_product_chain(fixtures.torus_cycle(torus), fixtures.hexagon_cycle(), t3.base, 36)
        assert holonomy(pkg, t3.base, z).value == Fraction(1, 3)
        for trial in range(3):
            assert holonomy(pkg, t3.base, z, shuffle=random.Random(trial)).value == Fraction(1, 3)

    @pytest.mark.parametrize("d", [3, 4])
    def test_sign_on_the_sphere_of_dimension_d(self, d):
        """c = 1/7 on one top simplex of the nerve of the dual-block cover of
        the boundary of the (d+1)-simplex, an S^d (720 top simplices at
        d = 4), around its fundamental cycle: the flag sum equals the
        oracle trivialization paired with the cycle, by default and
        shuffled, and stays so after an exact datum at every q0 <= d-2, a
        global datum and a cocycle shift.  The sign (-1)^(d(d-1)/2) is -
        at d = 3 and + at d = 4."""
        rng = random.Random(d)
        cover = fixtures.dual_block_cover(validate_complex(list(combinations(range(d + 2), d + 1))))
        nrv = nerve(cover)
        base = cover.base
        z = _oriented_cycle(base, d)
        t = Fraction(1, 7)
        c = Cochain(nrv, d, CIRCLE, {nrv.simplices_of_dim(d)[0]: CircleElement(t)})
        pkg = descent_chain(c, cover, nrv)
        triv = deligne_oracle.holonomy_trivialization(deligne_oracle.restrict(pkg, base))
        want = CircleElement(pair(triv.global_form, z))
        assert want.value in (t, 1 - t)

        def value():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 5))

        moved = []
        for q0 in range(d - 1):
            pkg = add_exact_datum(pkg, q0, random_double(rng, cover, nrv, q0, d - q0 - 1, value))
            moved.append(pkg)
        f = {s: value() for s in base.simplices_of_dim(d - 1) if rng.random() < 0.5}
        pkg = add_global_datum(pkg, Cochain(base, d - 1, QQ, f))
        moved.append(pkg)
        eta = {s: CircleElement(value()) for s in nrv.simplices_of_dim(d - 1) if rng.random() < 0.5}
        pkg = shift_cocycle(pkg, Cochain(nrv, d - 1, CIRCLE, eta))
        moved.append(pkg)
        for p in moved:
            for shuffle in (None, random.Random(0), random.Random(1)):
                assert holonomy(p, base, z, shuffle) == want
        triv = deligne_oracle.holonomy_trivialization(deligne_oracle.restrict(pkg, base), random.Random(2))
        assert CircleElement(pair(triv.global_form, z)) == want

    def test_a_cycle_off_the_base_is_refused(self, hexagon, circle_cover, circle_nerve):
        """The hexagon on 7 vertices passes every check on v and z, but is
        not a subcomplex of the 6-vertex base."""
        pkg = descent_chain(Cochain(circle_nerve, 1, CIRCLE, {}), circle_cover, circle_nerve)
        other = SimplicialComplex(7, hexagon.simplices)
        z = Chain(other, 1, fixtures.hexagon_cycle(hexagon).coefficients)
        with pytest.raises(NoFundamentalCycle, match="restriction target is not a subcomplex of the base"):
            holonomy(pkg, other, z)

    def test_unvalidated_invalid_packages_are_refused(self, torus_cover, torus_nerve, star_gerbe):
        """A package built directly is refused by its constructor with
        ``validate``'s message, so ``holonomy``, which checks nothing, sees
        only valid packages: the flag sum is independent of the assignment
        only on those."""
        _, cov = torus_cover
        tri = torus_nerve.simplices_of_dim(2)[0]
        c = Cochain(torus_nerve, 2, CIRCLE, {tri: CircleElement(Fraction(1, 3))})
        zero = {q: DoubleCochain(cov, torus_nerve, q, 2 - q) for q in range(2)}
        _, pkg = star_gerbe
        rng = random.Random(20)
        layers = dict(pkg.layers)
        layers[1] = layers[1] + random_double(rng, pkg.cover, pkg.nerve, 1, 1, lambda: Fraction(rng.randint(1, 4), 7))
        for fields, message in (
            ((cov, torus_nerve, 2, c, zero), "classifying cochain is not a cocycle"),
            ((pkg.cover, pkg.nerve, 2, pkg.cocycle, layers), "top descent equation fails"),
        ):
            with pytest.raises(NotACocycle) as exc:
                DelignePackage(*fields)
            assert str(exc.value) == message

    def test_holonomy_does_not_check_its_package_again(self, monkeypatch, hexagon):
        pkg = fixtures.circle_flat_package(Fraction(1, 3))
        calls = []
        checked = DelignePackage.validate

        def counted(self):
            calls.append(self)
            return checked(self)

        monkeypatch.setattr(DelignePackage, "validate", counted)
        for shuffle in (None, random.Random(0)):
            assert holonomy(pkg, hexagon, fixtures.hexagon_cycle(hexagon), shuffle).value == Fraction(1, 3)
        assert calls == []
        assert dataclasses.replace(pkg) == pkg and len(calls) == 1


def _unchecked(**fields):
    """A DelignePackage record made without its constructor, so nothing
    is checked: the only way to hold an invalid package."""
    pkg = object.__new__(DelignePackage)
    for name, value in fields.items():
        object.__setattr__(pkg, name, value)
    return pkg


#: Every way to make a package, from a valid package ``ok`` and an
#: unchecked record ``bad`` whose classifying cochain is not a cocycle.
BUILDERS = {
    "constructor": lambda ok, bad: DelignePackage(bad.cover, bad.nerve, bad.degree, bad.cocycle, bad.layers),
    "replace": lambda ok, bad: dataclasses.replace(ok, cocycle=bad.cocycle),
    "descent_chain": lambda ok, bad: descent_chain(bad.cocycle, bad.cover, bad.nerve),
    "package_from_json": lambda ok, bad: io.package_from_json(io.package_to_json(bad)),
    "add_exact_datum": lambda ok, bad: add_exact_datum(bad, 0, DoubleCochain(bad.cover, bad.nerve, 0, 1)),
    "add_global_datum": lambda ok, bad: add_global_datum(bad, Cochain(bad.cover.base, 1, QQ, {})),
    "shift_cocycle": lambda ok, bad: shift_cocycle(bad, Cochain(bad.nerve, 1, CIRCLE, {})),
}


@pytest.mark.parametrize("build", sorted(BUILDERS))
def test_every_way_to_a_package_refuses_an_invalid_one(torus_cover, torus_nerve, build):
    """The constructor, ``dataclasses.replace``, ``descent_chain``,
    ``io.package_from_json`` and each gauge move refuse a classifying
    cochain that is not a cocycle, with ``validate``'s message."""
    _, cov = torus_cover
    ok = descent_chain(torus_circle_two_cocycle(torus_nerve, Fraction(1, 3)), cov, torus_nerve)
    tri = torus_nerve.simplices_of_dim(2)[0]
    c = ok.cocycle + Cochain(torus_nerve, 2, CIRCLE, {tri: CircleElement(Fraction(1, 3))})
    bad = _unchecked(cover=cov, nerve=torus_nerve, degree=2, cocycle=c, layers=ok.layers)
    with pytest.raises(NotACocycle) as err:
        BUILDERS[build](ok, bad)
    assert str(err.value) == "classifying cochain is not a cocycle"


def _mixed_packages():
    """Packages whose parts come from two covers: the three-arc circle
    bundle 1/3 and the torus gerbe 1/3."""
    circle = fixtures.circle_flat_package(Fraction(1, 3))
    gerbe = fixtures.torus_flat_gerbe(Fraction(1, 3))
    cov, nrv = circle.cover, circle.nerve
    return {
        "nerve": (
            lambda: DelignePackage(cov, gerbe.nerve, 1, circle.cocycle, circle.layers),
            "nerve is not the nerve of the package's cover",
        ),
        "layer": (
            lambda: DelignePackage(
                cov, nrv, 1, circle.cocycle, {0: DoubleCochain(gerbe.cover, gerbe.nerve, 0, 1, {(0,): {(0, 6): 1}})}
            ),
            "layer 0 is not on the package's cover and nerve",
        ),
        "cocycle": (
            lambda: DelignePackage(
                cov, nrv, 2, gerbe.cocycle, {0: DoubleCochain(cov, nrv, 0, 2), 1: DoubleCochain(cov, nrv, 1, 1)}
            ),
            "classifying cocycle is not on the package's nerve",
        ),
    }


@pytest.mark.parametrize("part", ["nerve", "layer", "cocycle"])
def test_a_package_of_parts_from_different_covers_is_refused(part):
    """The nerve must be the nerve of the package's cover, the cocycle live
    on that nerve and every layer on that cover and nerve; a part from the
    torus in a circle package is refused, naming the part."""
    build, message = _mixed_packages()[part]
    with pytest.raises(GroupMismatch) as err:
        build()
    assert str(err.value) == message


def test_a_package_is_not_edited_in_place():
    """``layers`` is a read-only copy: item assignment raises, and neither
    it nor an edit of the mapping the package was built from changes the
    package.  The layer bumped by 1/2 at the overlap edge (0, 1) of piece
    0 is refused by the constructor; the package keeps its holonomy, the
    layer's 1/5 on the edge (2, 3)."""
    pkg, base, z = two_arc_circle(Fraction(1, 3), {(2, 3): Fraction(1, 5)})
    layer = pkg.layers[0]
    bumped = layer + DoubleCochain(pkg.cover, pkg.nerve, 0, 1, {(0,): {(0, 1): Fraction(1, 2)}})
    with pytest.raises(NotACocycle, match="top descent equation fails"):
        dataclasses.replace(pkg, layers={0: bumped})
    with pytest.raises(TypeError):
        pkg.layers[0] = bumped
    given = {0: layer}
    built = DelignePackage(pkg.cover, pkg.nerve, 1, pkg.cocycle, given)
    given[0] = bumped
    for p in (pkg, built):
        assert p.layers[0] is layer and dict(p.layers) == {0: layer} and sorted(p.layers) == [0]
        assert p.layers == {0: layer} and p == pkg
        for shuffle in (None, random.Random(0), random.Random(1)):
            assert holonomy(p, base, z, shuffle).value == Fraction(1, 5)


def _oriented_cycle(k, d):
    """The fundamental cycle of a closed orientable pseudomanifold k of
    dimension d: the first top simplex gets +1, and the orientation
    crosses each shared ridge, where the two induced signs must cancel."""
    ridges = {}
    for s in k.simplices_of_dim(d):
        for j in range(d + 1):
            ridges.setdefault(s[:j] + s[j + 1 :], []).append((s, j))
    first = k.simplices_of_dim(d)[0]
    signs = {first: 1}
    todo = [first]
    while todo:
        s = todo.pop()
        for j in range(d + 1):
            for other, i in ridges[s[:j] + s[j + 1 :]]:
                if other not in signs:
                    signs[other] = -signs[s] if (i + j) % 2 == 0 else signs[s]
                    todo.append(other)
    return fundamental_cycle(k, d, signs)


def _t3_generator(nrv, digit):
    """The integral 1-cocycle pulled back from the three-arc nerve along
    one factor of T^3's product cover, whose piece (a, b, j) has index
    9a + 3b + j; ``digit`` picks the factor, as in
    ``fixtures.torus_nerve_generators``."""
    values = {}
    for e in nrv.simplices_of_dim(1):
        pair_ = tuple(p // 3**digit % 3 for p in e)
        if pair_ in ((0, 2), (2, 0)):
            values[e] = GroupElement(Z, (-1 if pair_ == (0, 2) else 1,))
    return Cochain(nrv, 1, Z, values)


@pytest.mark.parametrize(
    "fn",
    [
        deligne.descent_chain,
        deligne.DelignePackage.validate,
        deligne.curvature,
        deligne.characteristic_form,
        deligne.holonomy,
    ],
    ids=lambda fn: fn.__qualname__,
)
def test_counted_entry_points_are_defined_in_the_deligne_module(fn):
    """The benchmark's tracer counts these by ``__module__``; one defined in
    another module and imported here would read zero without an error."""
    assert fn.__module__ == "cechlift.deligne"
