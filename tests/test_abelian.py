"""Smith normal form, modular solving, group arithmetic, exact sequences."""

import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechlift import abelian, kernels
from cechlift.abelian import (
    FgAbelianGroup,
    Homomorphism,
    ShortExactSequence,
)
from cechlift.cochains import cohomology_classes

from conftest import oracle_invariant_factors, oracle_determinantal_divisors
from snf_oracle import (
    dense,
    det_int,
    identity_matrix,
    mat_mul,
    materialize,
    smith_normal_form,
    sparse,
)


def diag_of(s):
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


class TestSmithNormalForm:
    def test_frozen_example(self):
        u, s, v = smith_normal_form([{0: 2, 1: 4}, {0: 6, 1: 8}], 2)
        assert diag_of(s) == [2, 4]
        assert mat_mul(mat_mul(u, [[2, 4], [6, 8]]), v) == s

    def test_zero_matrix(self):
        _, s, _ = smith_normal_form([{}, {}], 2)
        assert diag_of(s) == [0, 0]

    def test_identity(self):
        _, s, _ = smith_normal_form([{0: 1}, {1: 1}], 2)
        assert diag_of(s) == [1, 1]

    def test_random_properties(self):
        rng = random.Random(20250810)
        for _ in range(300):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            u, s, v = smith_normal_form(sparse(mat), n)
            assert mat_mul(mat_mul(u, mat), v) == s
            assert abs(det_int(u)) == 1
            assert abs(det_int(v)) == 1
            diag = diag_of(s)
            for i, d in enumerate(diag):
                assert d >= 0
                if i and diag[i - 1]:
                    assert d % diag[i - 1] == 0
                if i and diag[i - 1] == 0:
                    assert d == 0

    def test_against_independent_reduction(self):
        rng = random.Random(11)
        for _ in range(120):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            _, s, _ = smith_normal_form(sparse(mat), n)
            lib = [d for d in diag_of(s) if d]
            assert lib == [d for d in oracle_invariant_factors(mat) if d]

    def test_against_determinantal_divisors(self):
        rng = random.Random(5)
        for _ in range(40):
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            _, s, _ = smith_normal_form(sparse(mat), n)
            lib = [d for d in diag_of(s) if d]
            assert lib == oracle_determinantal_divisors(mat)

    def test_incidence_style_matrices(self):
        rng = random.Random(7)
        for _ in range(30):
            m = rng.randint(5, 25)
            n = rng.randint(5, 25)
            mat = [
                [rng.choice((-1, 0, 0, 0, 1)) for _ in range(n)] for _ in range(m)
            ]
            u, s, v, ui, vi = materialize(kernels.snf_with_transforms(sparse(mat), n), m, n)
            assert mat_mul(mat_mul(u, mat), v) == s
            assert mat_mul(u, ui) == identity_matrix(m)
            assert mat_mul(vi, v) == identity_matrix(n)

    def test_backend_reported(self):
        # benchmarks time the kernel by wrapping the functions defined in
        # cechlift.kernels, and stamp BACKEND into every run
        assert kernels.snf_with_transforms.__module__ == "cechlift.kernels"
        assert kernels.BACKEND == "python"


def _free(rank):
    return FgAbelianGroup((0,) * rank)


def _preimage(mat, b, codomain):
    """Homomorphism.preimage of b under mat from a free domain, as coordinates."""
    hom = Homomorphism(_free(len(mat[0])), codomain, tuple(map(tuple, mat)))
    x = hom.preimage(codomain.element(b))
    return None if x is None else list(x.coords)


class TestSolveLinear:
    """Solving M x = b row-wise mod the codomain moduli, by preimage."""

    def test_frozen_examples(self):
        z4 = FgAbelianGroup((4,))
        assert _preimage([[2]], [1], z4) is None
        assert _preimage([[2]], [2], z4) == [1]
        assert _preimage([[1, 1]], [5], _free(1)) == [5, 0]

    def test_solutions_and_infeasibility_vs_exhaustive(self):
        rng = random.Random(77)
        for _ in range(150):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            mod = rng.randint(2, 6)
            mat = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            b = [rng.randint(-5, 5) for _ in range(rows)]
            x = _preimage(mat, b, FgAbelianGroup((mod,) * rows))
            feasible = any(
                all(
                    sum(mat[i][j] * cand[j] for j in range(cols)) % mod == b[i] % mod
                    for i in range(rows)
                )
                for cand in itertools.product(range(mod), repeat=cols)
            )
            if x is None:
                assert not feasible
            else:
                assert feasible
                for i in range(rows):
                    assert sum(mat[i][j] * x[j] for j in range(cols)) % mod == b[i] % mod

    def test_mixed_moduli_rows(self):
        # first row mod 3, second over Z
        x = _preimage([[0, 2], [1, 0]], [1, 4], FgAbelianGroup((3, 0)))
        assert x is not None
        assert x[0] == 4 and (2 * x[1]) % 3 == 1

    def test_exact_row_infeasible(self):
        assert _preimage([[2]], [1], _free(1)) is None

    def test_back_substitution_mod_1_keeps_a_nonzero_multiple_of_den_past_the_rank(self):
        """2 x = 1/2 and 2 x = 3/2 as numerators (1, 3) over 2: U b past the
        rank is a nonzero multiple of 2, so the system solves mod 1, over
        4 = 2 lcm(s_j), and not over Q."""
        fac = abelian.factor([{0: 2}, {0: 2}], 1)
        past = fac.u_times([1, 3])[len(fac.diag) :]
        assert past and any(past) and all(tj % 2 == 0 for tj in past)
        x, n = abelian._back_substitute(fac, [1, 3], "Q/Z", 2)
        assert n == 4 and all(type(xi) is int and 0 <= xi < n for xi in x)
        assert all((Fraction(2 * x[0], n) - Fraction(bi, 2)).denominator == 1 for bi in (1, 3))
        assert abelian._back_substitute(fac, [1, 3], "Q", 2) is None


class TestGroups:
    def test_invariant_factor_validation(self):
        with pytest.raises(ValueError):
            FgAbelianGroup((3, 2))
        with pytest.raises(ValueError):
            FgAbelianGroup((1,))
        with pytest.raises(ValueError):
            FgAbelianGroup((0, 2))
        assert FgAbelianGroup((2, 4, 0)).rank == 3

    def test_canonical_group(self):
        assert abelian.canonical_presentation([4, 2]).group.moduli == (2, 4)
        assert abelian.canonical_presentation([2, 3]).group.moduli == (6,)
        assert abelian.canonical_presentation([1, 1]).group.moduli == ()

    def test_element_arithmetic(self):
        g = FgAbelianGroup((2, 4))
        a = g.element((1, 3))
        b = g.element((1, 2))
        assert (a + b).coords == (0, 1)
        assert (-a).coords == (1, 1)
        assert (3 * a).coords == (1, 1)

    @pytest.mark.parametrize("moduli", [(0,), (2,)], ids=["Z", "Z/2"])
    @pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, 1.0])
    def test_non_integer_coordinates_are_refused(self, moduli, bad):
        """A Fraction or float coordinate is an error, never truncated or kept."""
        with pytest.raises(TypeError):
            abelian.GroupElement(FgAbelianGroup(moduli), (bad,))

    @pytest.mark.parametrize("moduli", [(0,), (2,), (6, 0), ()], ids=["Z", "Z/2", "Z/6+Z", "0"])
    def test_zero_equals_the_checked_element(self, moduli):
        """zero() skips the coordinate checks and builds the element they would."""
        g = FgAbelianGroup(moduli)
        zero = g.zero()
        assert zero == abelian.GroupElement(g, (0,) * g.rank)
        assert zero.group is g and type(zero.coords) is tuple
        assert all(type(c) is int for c in zero.coords)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(0,), (2,), (6,), (2, 0)]), st.data())
    def test_arithmetic_equals_the_checked_element(self, moduli, data):
        """+, - and negation build the element the validating constructor
        builds from the raw sums, reduced and of plain ints."""
        g = FgAbelianGroup(moduli)
        coords = st.tuples(*(st.integers(-50, 50) for _ in moduli))
        a, b = g.element(data.draw(coords)), g.element(data.draw(coords))
        results = (
            (a + b, [x + y for x, y in zip(a.coords, b.coords)]),
            (a - b, [x - y for x, y in zip(a.coords, b.coords)]),
            (-a, [-x for x in a.coords]),
        )
        for got, raw in results:
            assert got == abelian.GroupElement(g, tuple(raw))
            assert got.group is g and type(got.coords) is tuple
            assert all(type(c) is int for c in got.coords)

    def test_scaling_by_a_fraction_is_refused(self):
        with pytest.raises(TypeError):
            FgAbelianGroup((2,)).element((1,)) * Fraction(1, 2)

    def test_circle_elements(self):
        c = abelian.CircleElement(Fraction(5, 3))
        assert c.value == Fraction(2, 3)
        assert (c + c).value == Fraction(1, 3)
        assert (-c).value == Fraction(1, 3)
        assert (3 * c).value == 0 and (c * 2).value == Fraction(1, 3)

    @pytest.mark.parametrize("bad", [0.1, Decimal("0.5"), "1/2", complex(0.5)])
    def test_circle_element_refuses_values_that_are_not_rational(self, bad):
        """A float would be kept as its binary expansion, and a cochain would keep it."""
        with pytest.raises(TypeError):
            abelian.CircleElement(bad)

    @pytest.mark.parametrize("k", [Fraction(1, 2), 0.5])
    def test_circle_element_scaling_takes_integers_only(self, k):
        """Q/Z is a Z-module: 1/2 and 3/2 are one element, but their halves differ."""
        assert abelian.CircleElement(Fraction(1, 2)) == abelian.CircleElement(Fraction(3, 2))
        with pytest.raises(TypeError):
            abelian.CircleElement(Fraction(1, 3)) * k
        with pytest.raises(TypeError):
            k * abelian.CircleElement(Fraction(1, 3))

    def test_order_and_enumeration(self):
        g = FgAbelianGroup((2, 4))
        assert g.order() == 8
        assert len(list(g.elements())) == 8
        assert FgAbelianGroup((2, 0)).order() is None


class TestHomomorphisms:
    def test_order_respect(self):
        z2 = FgAbelianGroup((2,))
        z4 = FgAbelianGroup((4,))
        Homomorphism(z2, z4, ((2,),))  # 1 -> 2 is fine
        with pytest.raises(ValueError):
            Homomorphism(z2, z4, ((1,),))  # 2*1 != 0 mod 4

    def test_short_exact_sequence_accepts_z2_z4_z2(self):
        z2 = FgAbelianGroup((2,))
        z4 = FgAbelianGroup((4,))
        ses = ShortExactSequence(
            z2, z4, z2, Homomorphism(z2, z4, ((2,),)), Homomorphism(z4, z2, ((1,),))
        )
        # canonical section of the projection is the minimal representative
        assert ses.section(z2.element((1,))).coords == (1,)
        assert ses.kernel_part(z4.element((2,))).coords == (1,)

    def test_short_exact_sequence_rejects_inexact(self):
        z2 = FgAbelianGroup((2,))
        z4 = FgAbelianGroup((4,))
        with pytest.raises(ValueError):
            # inject = 0 map is not injective
            ShortExactSequence(
                z2, z4, z2, Homomorphism(z2, z4, ((0,),)), Homomorphism(z4, z2, ((1,),))
            )
        z2z2 = FgAbelianGroup((2, 2))
        with pytest.raises(ValueError):
            # split inclusion+projection of the same factor: im != ker
            ShortExactSequence(
                z2,
                z2z2,
                z2,
                Homomorphism(z2, z2z2, ((1,), (0,))),
                Homomorphism(z2z2, z2, ((1, 0),)),
            )
        with pytest.raises(ValueError, match="project is not surjective"):
            # doubling on Z/4 has full rank but image {0, 2}; exact elsewhere
            ShortExactSequence(
                z2, z4, z4, Homomorphism(z2, z4, ((2,),)), Homomorphism(z4, z4, ((2,),))
            )
        z = FgAbelianGroup((0,))
        with pytest.raises(ValueError, match="image of inject differs from kernel"):
            # 4Z is a proper sublattice of the kernel 2Z of Z -> Z/2
            ShortExactSequence(
                z, z, z2, Homomorphism(z, z, ((4,),)), Homomorphism(z, z2, ((1,),))
            )

    def test_split_sequence_accepted(self):
        z2 = FgAbelianGroup((2,))
        z2z2 = FgAbelianGroup((2, 2))
        ShortExactSequence(
            z2,
            z2z2,
            z2,
            Homomorphism(z2, z2z2, ((1,), (0,))),
            Homomorphism(z2z2, z2, ((0, 1),)),
        )

    def test_free_sequence(self):
        z = FgAbelianGroup((0,))
        ShortExactSequence(
            z, z, FgAbelianGroup((2,)), Homomorphism(z, z, ((2,),)),
            Homomorphism(z, FgAbelianGroup((2,)), ((1,),)),
        )


def _cohomology_of(k, p, coefficients):
    """H^p(k; coefficients), read through ``cohomology_classes``."""
    return cohomology_classes(k, coefficients, p).group


class TestCohomologyOf:
    def test_circle_complex(self, hexagon):
        z = FgAbelianGroup((0,))
        h1 = _cohomology_of(hexagon, 1, z)
        assert h1.moduli == (0,)

    def test_boundary_delta3(self, bd3):
        z = FgAbelianGroup((0,))
        h1 = _cohomology_of(bd3, 1, z)
        assert h1.is_trivial()
        h2 = _cohomology_of(bd3, 2, z)
        assert h2.moduli == (0,)

    def test_rp2_mod2(self, rp2):
        z2 = FgAbelianGroup((2,))
        for p in (1, 2):
            h = _cohomology_of(rp2, p, z2)
            assert h.moduli == (2,)

    def test_random_complexes_match_oracle(self):
        from conftest import oracle_cohomology_group_Z, oracle_cohomology_order_mod
        from conftest import random_complex

        rng = random.Random(2718)
        z = FgAbelianGroup((0,))
        for _ in range(40):
            k = random_complex(rng, max_vertices=6, max_cells=5, max_dim=3)
            for p in range(0, k.dim + 1):
                dim = len(k.simplices_of_dim(p))
                d_prev = dense(k.coboundary_matrix(p - 1), len(k.simplices_of_dim(p - 1)))
                d_next = dense(k.coboundary_matrix(p), dim)
                lib = _cohomology_of(k, p, z)
                assert lib == oracle_cohomology_group_Z(d_prev, d_next, dim)
                for m in (2, 3):
                    libm = _cohomology_of(k, p, FgAbelianGroup((m,)))
                    assert libm.order() == oracle_cohomology_order_mod(
                        d_prev, d_next, m, dim
                    )
