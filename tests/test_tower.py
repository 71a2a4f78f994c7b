"""Finite groups, extensions, the lifting obstruction and its invariances."""

import itertools
import random

import pytest

from cechlift import abelian, fixtures
from cechlift.abelian import FgAbelianGroup, GroupElement
from cechlift.cochains import Cochain, coboundary, cohomology_classes, cup, is_coboundary
from cechlift.complexes import nerve
from cechlift.errors import (
    GroupMismatch,
    NotACocycle,
    NotACocycle2,
    NotAbelian,
    NotNormalized,
)
from cechlift.tower import (
    CentralExtension,
    ExtensionTower,
    FiniteGroup,
    Obstruction,
    TransitionCocycle,
    abelian_invariants,
    bockstein,
    giraud_obstruction,
    lift_transitions,
    split_extension,
    tower_obstructions,
)

import tower_oracle
from conftest import (
    coboundary_transitions,
    free_circle_transitions,
    klein_four,
    noncommutative_derived_extensions,
    random_extension,
    symmetric_group_3,
)

Z2 = FgAbelianGroup((2,))


class TestFiniteGroup:
    def test_cyclic(self):
        g = FiniteGroup.cyclic(5)
        assert g.order == 5
        assert g.mul(3, 4) == 2
        assert g.inv(2) == 3

    def test_rejects_broken_table(self):
        with pytest.raises(ValueError):
            FiniteGroup(((0, 1), (0, 1)))  # no inverse for 1... not a group
        with pytest.raises(ValueError):
            # associativity failure
            FiniteGroup(((0, 1, 2), (1, 0, 0), (2, 0, 1)))

    @pytest.mark.parametrize(
        "table, identity",
        [(((0, 1), (1, 0)), 2), (((0, 1), (1, 0)), 2**70), (((1, 0), (0, 1)), -1), ((), 0)],
        ids=["past-the-order", "huge", "negative", "empty-table"],
    )
    def test_an_identity_outside_the_table_is_refused(self, table, identity):
        """An identity outside range(order) is refused by name, before any
        table lookup, and a table with no rows has none."""
        msg = f"identity {identity} is not an element of a group of order {len(table)}"
        with pytest.raises(ValueError, match=f"^{msg}$"):
            FiniteGroup(table, identity)

    def test_s3_not_abelian(self):
        assert not symmetric_group_3().is_abelian()
        assert klein_four().is_abelian()

    def test_abelian_invariants(self):
        g, coords = abelian_invariants(klein_four())
        assert g.moduli == (2, 2)
        assert coords(0) == (0, 0)
        g2, _ = abelian_invariants(FiniteGroup.cyclic(6))
        assert g2.moduli == (6,)

    def test_abelian_invariants_refuses_a_noncommutative_group(self):
        with pytest.raises(NotAbelian, match="group is not commutative"):
            abelian_invariants(symmetric_group_3())


class TestCentralExtension:
    def test_z4_total(self):
        ext = fixtures.z2_z4_extension()
        assert ext.total.order == 4
        assert abelian_invariants(ext.total)[0].moduli == (4,)

    def test_split_is_product(self):
        for base in (FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), klein_four()):
            for kernel in (Z2, FgAbelianGroup((3,))):
                ext = split_extension(base, kernel)
                assert ext.total.order == base.order * kernel.order()
                if base.is_abelian():
                    expected = abelian.canonical_presentation(
                        list(abelian_invariants(base)[0].moduli) + list(kernel.moduli)
                    ).group
                    assert abelian_invariants(ext.total)[0] == expected

    def test_normalization_enforced(self):
        one = Z2.element((1,))
        zero = Z2.zero()
        with pytest.raises(NotNormalized):
            CentralExtension(FiniteGroup.cyclic(2), Z2, ((zero, one), (zero, zero)))

    def test_cocycle_law_enforced(self):
        zero = FgAbelianGroup((3,)).zero()
        one = FgAbelianGroup((3,)).element((1,))
        l3 = FiniteGroup.cyclic(3)
        # a random non-cocycle: violates associativity of the total table
        bad = [[zero] * 3 for _ in range(3)]
        bad[1][1] = one
        with pytest.raises(NotACocycle2) as exc:
            CentralExtension(l3, FgAbelianGroup((3,)), bad)
        assert len(exc.value.triple) == 3

    def test_kernel_is_central(self):
        rng = random.Random(1)
        for _ in range(10):
            ext = random_extension(rng)
            t = ext.total
            for h in ext.kernel.elements():
                z = ext.embed(h)
                assert all(t.mul(z, a) == t.mul(a, z) for a in range(t.order))

    def test_section_projects_back(self):
        rng = random.Random(2)
        for _ in range(10):
            ext = random_extension(rng)
            for a in range(ext.base.order):
                assert ext.project(ext.section(a)) == a


class TestTransitions:
    def test_law_checked(self, rp2_cover_nerve):
        _, nrv = rp2_cover_nerve
        l2 = FiniteGroup.cyclic(2)
        with pytest.raises(NotACocycle):
            TransitionCocycle(nrv, l2, {(0, 1): 1})

    def test_value_orientation(self, circle_nerve):
        l4 = FiniteGroup.cyclic(4)
        g = TransitionCocycle(circle_nerve, l4, {(0, 2): 3})
        assert g.value(0, 2) == 3
        assert g.value(2, 0) == 1
        assert g.value(1, 1) == 0


class TestGiraud:
    def test_trivial_transitions(self, circle_nerve):
        ext = fixtures.z2_z4_extension()
        g = TransitionCocycle(circle_nerve, ext.base, {})
        assert giraud_obstruction(g, ext).is_zero()

    def test_group_mismatch(self, circle_nerve):
        ext = fixtures.z2_z4_extension()
        g = TransitionCocycle(circle_nerve, FiniteGroup.cyclic(3), {})
        with pytest.raises(GroupMismatch):
            giraud_obstruction(g, ext)

    def test_liftable_gives_coboundary(self, rp2_cover_nerve):
        # transitions projected from the total group have liftable class
        rng = random.Random(5)
        _, nrv = rp2_cover_nerve
        for _ in range(6):
            ext = random_extension(rng, max_base=4, max_kernel=4)
            top = coboundary_transitions(rng, nrv, ext.total)
            g = TransitionCocycle(
                nrv,
                ext.base,
                {e: ext.project(top.value(*e)) for e in nrv.simplices_of_dim(1)},
            )
            c = giraud_obstruction(g, ext)
            assert is_coboundary(c) is not None

    def test_rp2_orientation_class_nonzero(self, rp2_cover_nerve):
        _, nrv = rp2_cover_nerve
        ext = fixtures.z2_z4_extension()
        g = fixtures.rp2_orientation_transitions(nrv)
        c = giraud_obstruction(g, ext)
        assert is_coboundary(c) is None
        classes = cohomology_classes(nrv, Z2, 2)
        assert classes.class_coords(c) == (1,)

    def test_cocycle_property_random(self, rp2_cover_nerve, circle_nerve, torus_nerve):
        # Every Giraud cochain is a cocycle: random transitions against
        # random central extensions, across three nerves
        rng = random.Random(20250810)
        _, rp2n = rp2_cover_nerve
        for trial in range(60):
            ext = random_extension(rng)
            pick = trial % 3
            if pick == 0:
                g = free_circle_transitions(rng, circle_nerve, ext.base)
            elif pick == 1:
                g = coboundary_transitions(rng, rp2n, ext.base)
            else:
                g = coboundary_transitions(rng, torus_nerve, ext.base)
            c = giraud_obstruction(g, ext)  # verifies delta c = 0 internally
            assert coboundary(c).is_zero()


class TestSectionAndRelabelInvariance:
    def test_section_change_shifts_by_coboundary(self, rp2_cover_nerve):
        rng = random.Random(31)
        _, nrv = rp2_cover_nerve
        g = fixtures.rp2_orientation_transitions(nrv)
        ext = fixtures.z2_z4_extension()
        c = giraud_obstruction(g, ext)
        for _ in range(10):
            twist_map = {
                a: GroupElement(ext.kernel, (rng.randrange(2),))
                for a in range(ext.base.order)
            }
            twist_map[ext.base.identity] = ext.kernel.zero()
            c2 = giraud_obstruction(g, ext, section_twist=lambda a: twist_map[a])
            assert is_coboundary(c2 - c) is not None

    def test_relabeling_invariance(self, rp2_cover_nerve):
        from cechlift.complexes import Cover

        rng = random.Random(32)
        cover, nrv = rp2_cover_nerve
        ext = fixtures.z2_z4_extension()
        g = fixtures.rp2_orientation_transitions(nrv)
        c = giraud_obstruction(g, ext)
        classes = cohomology_classes(nrv, ext.kernel, 2)
        for _ in range(6):
            perm = list(range(len(cover.pieces)))
            rng.shuffle(perm)
            inv = [perm.index(i) for i in range(len(perm))]
            cover2 = Cover(cover.base, tuple(cover.pieces[perm[i]] for i in range(len(perm))))
            nrv2 = nerve(cover2)
            # pull transitions back along the relabeling and conjugate by
            # a random 0-cochain
            h = [rng.randrange(2) for _ in range(len(perm))]
            l2 = ext.base
            g2 = TransitionCocycle(
                nrv2,
                l2,
                {
                    (i, j): l2.mul(
                        l2.mul(l2.inv(h[i]), g.value(perm[i], perm[j])), h[j]
                    )
                    for (i, j) in nrv2.simplices_of_dim(1)
                },
            )
            c2 = giraud_obstruction(g2, ext)
            # push the result back to the original nerve and compare classes
            pulled = Cochain(
                nrv,
                2,
                ext.kernel,
                {
                    s: c2.value(tuple(inv[i] for i in s))
                    for s in nrv.simplices_of_dim(2)
                },
            )
            assert coboundary(pulled).is_zero()
            assert classes.class_coords(pulled) == classes.class_coords(c)


class TestLift:
    def test_trivial_lift(self, circle_nerve):
        ext = fixtures.z2_z4_extension()
        g = TransitionCocycle(circle_nerve, ext.base, {})
        out = lift_transitions(g, ext)
        assert isinstance(out, TransitionCocycle)
        assert all(v == ext.total.identity for v in out.g.values()) or not out.g

    def test_circle_double_cover_lifts(self, circle_nerve):
        ext = fixtures.z2_z4_extension()
        g = fixtures.circle_double_cover_transitions(circle_nerve)
        out = lift_transitions(g, ext)
        assert isinstance(out, TransitionCocycle)
        for (i, j) in circle_nerve.simplices_of_dim(1):
            assert ext.project(out.value(i, j)) == g.value(i, j)

    def test_rp2_blocked(self, rp2_cover_nerve):
        _, nrv = rp2_cover_nerve
        ext = fixtures.z2_z4_extension()
        g = fixtures.rp2_orientation_transitions(nrv)
        out = lift_transitions(g, ext)
        assert isinstance(out, Obstruction)
        assert out.coords == (1,)
        assert out.cohomology.moduli == (2,)

    def test_rp2_blocked_confirmed_by_exhaustive_search(self, rp2_cover_nerve):
        # independent exactness check: no kernel correction of the
        # canonical lifts satisfies the cocycle law
        _, nrv = rp2_cover_nerve
        ext = fixtures.z2_z4_extension()
        g = fixtures.rp2_orientation_transitions(nrv)
        edges = nrv.simplices_of_dim(1)
        triangles = nrv.simplices_of_dim(2)
        total = ext.total

        def lifted(corr, i, j):
            if i < j:
                return ext.with_kernel_offset(
                    g.value(i, j), GroupElement(ext.kernel, (corr[(i, j)],))
                )
            return total.inv(lifted(corr, j, i))

        found = False
        for bits in itertools.product((0, 1), repeat=len(edges)):
            corr = dict(zip(edges, bits))
            if all(
                total.mul(lifted(corr, i, j), lifted(corr, j, k)) == lifted(corr, i, k)
                for (i, j, k) in triangles
            ):
                found = True
                break
        assert not found

    def test_exactness_random(self, rp2_cover_nerve, circle_nerve, torus_nerve):
        # lift exists iff the class vanishes; produced lifts satisfy the
        # law (constructor-verified) and project back exactly
        rng = random.Random(41)
        _, rp2n = rp2_cover_nerve
        nerves = [circle_nerve, rp2n, torus_nerve]
        for trial in range(30):
            ext = random_extension(rng, max_base=4, max_kernel=4)
            nrv = nerves[trial % 3]
            if nrv is circle_nerve:
                g = free_circle_transitions(rng, nrv, ext.base)
            else:
                g = coboundary_transitions(rng, nrv, ext.base)
            c = giraud_obstruction(g, ext)
            witness = is_coboundary(c)
            out = lift_transitions(g, ext)
            if witness is None:
                assert isinstance(out, Obstruction)
                assert any(out.coords)
            else:
                assert isinstance(out, TransitionCocycle)
                for (i, j) in nrv.simplices_of_dim(1):
                    assert ext.project(out.value(i, j)) == g.value(i, j)


class TestBockstein:
    def test_rp2_w1_to_w1_squared(self, rp2_cover_nerve):
        _, nrv = rp2_cover_nerve
        tower = fixtures.z2_tower(2)
        ses = tower.derived_sequence(1)
        assert (ses.A.moduli, ses.B.moduli, ses.C.moduli) == ((2,), (4,), (2,))
        w = fixtures.rp2_orientation_cocycle(nrv)
        b = bockstein(w, ses)
        assert is_coboundary(b) is None
        # classical identity: the connecting image of w1 is w1 cup w1
        assert is_coboundary(b - cup(w, w)) is not None

    def test_circle_generator_annihilated(self, circle_nerve):
        ses = fixtures.z2_tower(2).derived_sequence(1)
        w = Cochain(circle_nerve, 1, Z2, {(0, 1): (1,)})
        b = bockstein(w, ses)
        assert b.is_zero()

    def test_coboundaries_to_coboundaries(self, rp2_cover_nerve):
        rng = random.Random(6)
        _, nrv = rp2_cover_nerve
        ses = fixtures.z2_tower(2).derived_sequence(1)
        from conftest import random_cochain

        for _ in range(8):
            u = random_cochain(rng, nrv, Z2, 0)
            b = bockstein(coboundary(u), ses)
            assert is_coboundary(b) is not None

    def test_additive_up_to_coboundary(self, rp2_cover_nerve):
        rng = random.Random(7)
        _, nrv = rp2_cover_nerve
        ses = fixtures.z2_tower(2).derived_sequence(1)
        from conftest import random_cochain

        count = 0
        while count < 8:
            c1 = random_cochain(rng, nrv, Z2, 1)
            c2 = random_cochain(rng, nrv, Z2, 1)
            if not (coboundary(c1).is_zero() and coboundary(c2).is_zero()):
                c1 = coboundary(random_cochain(rng, nrv, Z2, 0))
                c2 = coboundary(random_cochain(rng, nrv, Z2, 0))
            diff = bockstein(c1 + c2, ses) - bockstein(c1, ses) - bockstein(c2, ses)
            assert is_coboundary(diff) is not None
            count += 1

    def test_rejects_non_cocycle(self, rp2_cover_nerve):
        _, nrv = rp2_cover_nerve
        ses = fixtures.z2_tower(2).derived_sequence(1)
        x = Cochain(nrv, 1, Z2, {(0, 1): (1,)})
        if not coboundary(x).is_zero():
            with pytest.raises(NotACocycle):
                bockstein(x, ses)


class TestTower:
    def test_chain_validation(self):
        ext1 = fixtures.z2_z4_extension()
        with pytest.raises(GroupMismatch):
            ExtensionTower([ext1, ext1])

    def test_noncommutative_derived_quotient_is_refused(self):
        with pytest.raises(NotAbelian, match="derived quotient at level 1 is not commutative"):
            ExtensionTower(noncommutative_derived_extensions())

    def test_derived_sequence_is_z2_z4_z2(self):
        tower = fixtures.z2_tower(2)
        ses = tower.derived_sequence(1)
        assert ses.B.moduli == (4,)
        assert abelian_invariants(tower.extensions[1].total)[0].moduli == (8,)

    def test_z2_z4_extension_is_the_carry_of_z2(self):
        zero, one = Z2.zero(), Z2.element((1,))
        assert fixtures.z2_z4_extension().factor_set == ((zero, zero), (zero, one))

    @pytest.mark.parametrize("levels", range(1, 6))
    def test_carry_tower_equals_the_search_oracle(self, levels):
        """Each level's groups, factor set and derived sequence match the
        tower built by generator search and power walk."""
        tower, oracle = fixtures.z2_tower(levels), tower_oracle.z2_tower(levels)
        for ext, want in zip(tower.extensions, oracle.extensions, strict=True):
            assert ext.base == want.base and ext.total == want.total
            assert ext.kernel == want.kernel and ext.factor_set == want.factor_set
        for level in range(1, levels):
            assert tower.derived_sequence(level) == oracle.derived_sequence(level)
        for ext, build in zip(tower.extensions, tower_oracle.FIRST_LEVELS):
            assert ext.factor_set == build().factor_set

    def test_three_level_tower(self):
        tower = fixtures.z2_tower(3)
        assert abelian_invariants(tower.extensions[2].total)[0].moduli == (16,)
        ses2 = tower.derived_sequence(2)
        assert (ses2.A.moduli, ses2.B.moduli, ses2.C.moduli) == ((2,), (4,), (2,))

    def test_split_tower_with_rank_two_kernel(self, rp2_cover_nerve):
        # derived quotients with non-cyclic kernels exercise the
        # multi-generator sequence construction
        z2z2 = FgAbelianGroup((2, 2))
        ext1 = split_extension(FiniteGroup.cyclic(2), z2z2)
        ext2 = split_extension(ext1.total, Z2)
        tower = ExtensionTower([ext1, ext2])
        ses = tower.derived_sequence(1)
        assert ses.C.moduli == (2, 2)
        assert ses.A.moduli == (2,)
        assert ses.B.order() == 8
        # a split tower lifts any liftable input all the way
        _, nrv = rp2_cover_nerve
        g = TransitionCocycle(nrv, ext1.base, {})
        seq = tower_obstructions(g, tower)
        assert seq.status == ("lifted", 2)
        # bockstein through a split sequence is a coboundary
        rng = random.Random(9)
        from conftest import random_cochain

        u = coboundary(random_cochain(rng, nrv, z2z2, 0))
        assert is_coboundary(bockstein(u, ses)) is not None

    def test_rp2_blocked_at_one(self, rp2_cover_nerve):
        _, nrv = rp2_cover_nerve
        tower = fixtures.z2_tower(2)
        g = fixtures.rp2_orientation_transitions(nrv)
        seq = tower_obstructions(g, tower)
        assert seq.status == ("blocked", 1)
        assert seq.blocked_at == 1
        degrees = [e.degree for e in seq.entries]
        assert degrees == [2, 3]
        assert seq.entries[0].coords == (1,)
        # H^3 of a 2-dimensional nerve is trivial, so the recorded
        # connecting image has the zero class
        assert seq.entries[1].cohomology.is_trivial()

    def test_fully_liftable(self, rp2_cover_nerve):
        _, nrv = rp2_cover_nerve
        tower = fixtures.z2_tower(2)
        g = TransitionCocycle(nrv, tower.extensions[0].base, {})
        seq = tower_obstructions(g, tower)
        assert seq.status == ("lifted", 2)
        assert seq.lifted_to == 2
        assert [e.degree for e in seq.entries] == [2, 3]
        assert all(e.is_zero() for e in seq.entries)

    def test_projected_transitions_lift(self, torus_nerve):
        # transitions projected from the top of the tower lift all the way
        rng = random.Random(51)
        tower = fixtures.z2_tower(2)
        top = coboundary_transitions(rng, torus_nerve, tower.extensions[1].total)
        proj = {
            e: tower.extensions[0].project(tower.extensions[1].project(top.value(*e)))
            for e in torus_nerve.simplices_of_dim(1)
        }
        g = TransitionCocycle(torus_nerve, tower.extensions[0].base, proj)
        seq = tower_obstructions(g, tower)
        assert seq.status == ("lifted", 2)

    def test_witness_independence(self, circle_nerve, torus_nerve):
        # Prop 10 semantics: with a vanishing class, a different
        # coboundary witness changes later cocycles only by coboundaries
        rng = random.Random(61)
        tower = fixtures.z2_tower(2)
        x, y = fixtures.torus_nerve_generators(torus_nerve)
        xz2 = Cochain(torus_nerve, 1, Z2, {s: (v.coords[0],) for s, v in x.values.items()})
        yz2 = Cochain(torus_nerve, 1, Z2, {s: (v.coords[0],) for s, v in y.values.items()})
        from conftest import random_cochain

        fixtures_run = 0
        for nrv in (circle_nerve, torus_nerve):
            for _ in range(10):
                if nrv is circle_nerve:
                    g = free_circle_transitions(rng, nrv, tower.extensions[0].base)
                    shift = Cochain(
                        nrv, 1, Z2,
                        {e: (rng.randrange(2),) for e in nrv.simplices_of_dim(1)},
                    )
                else:
                    g = coboundary_transitions(rng, nrv, tower.extensions[0].base)
                    shift = coboundary(random_cochain(rng, nrv, Z2, 0))
                    if rng.random() < 0.5:
                        shift = shift + xz2
                    if rng.random() < 0.5:
                        shift = shift + yz2
                assert coboundary(shift).is_zero()
                base_run = tower_obstructions(g, tower)
                alt_run = tower_obstructions(g, tower, witness_shifts={1: shift})
                assert base_run.status == alt_run.status
                for e1, e2 in zip(base_run.entries[1:], alt_run.entries[1:]):
                    diff = e1.cocycle - e2.cocycle
                    assert is_coboundary(diff) is not None
                fixtures_run += 1
        assert fixtures_run >= 20
