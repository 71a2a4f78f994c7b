"""Each Smith factorization is computed once and reused.

Counts calls of the Smith kernel while cohomology is built and queried,
while cover goodness is checked, while exact sequences are built and
used, and over whole CLI commands; counts the Giraud cocycles and class
readings of a tower run; and checks the one back-substitution against
independent solvers.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechlift import abelian, cochains, complexes, fixtures, kernels, tower
from cechlift.abelian import CIRCLE, QQ, CircleElement, FgAbelianGroup, Homomorphism, ShortExactSequence
from cechlift.cochains import (
    Cochain,
    _face_sums,
    coboundary,
    cohomology_classes,
    is_coboundary,
    verify_good_cover,
)
from cechlift.complexes import (
    Chain,
    Cover,
    SimplicialComplex,
    nerve,
    product_complex,
    star_cover,
    validate_complex,
)
from cechlift.deligne import (
    _solve_local_d,
    add_global_datum,
    descent_chain,
    holonomy,
    holonomy_trivialization,
    restrict_package,
)
from cechlift.errors import CoverNotGoodOnV, NotACocycle

from conftest import dunce_hat, random_cochain
from snf_oracle import dense, sparse
from cli_cases import CASES, check, check_cases, run
from test_properties import COEFFICIENTS, _torus_loop
from test_properties import complexes as small_complexes


@pytest.fixture
def torus36():
    hexagon = fixtures.hexagon()
    return product_complex(hexagon, hexagon)[0]


def _record_calls(monkeypatch, module, name, note=lambda first, *rest: first):
    """Note the arguments of every call of ``module.name``, in order (by
    default the first)."""
    calls = []
    real = getattr(module, name)

    def recording(*args):
        calls.append(note(*args))
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.fixture
def snf_calls(monkeypatch):
    """The shape of every matrix the Smith kernel factors."""
    return _record_calls(
        monkeypatch, kernels, "snf_with_transforms", lambda rows, ncols: (len(rows), ncols)
    )


@pytest.fixture
def snf_inputs(monkeypatch):
    """The rows of every matrix the Smith kernel factors, as it gets them."""
    return _record_calls(
        monkeypatch, kernels, "snf_with_transforms", lambda rows, ncols: list(rows)
    )


@pytest.mark.parametrize(
    "moduli, group, budget",
    [((2,), "Z/2 + Z/2", 2), ((0,), "Z + Z", 2), ((2, 4), "Z/2 + Z/2 + Z/4 + Z/4", 2)],
    ids=["2", "0", "2-4"],
)
def test_h1_torus36_factors_each_matrix_once(torus36, snf_calls, moduli, group, budget):
    """d_next is factored once for all coefficient factors, never augmented.

    One Smith call for d_next and one for the integral relations, which
    present every coefficient factor; orders that already divide in turn
    are combined without a Smith call.
    """
    classes = cohomology_classes(torus36, FgAbelianGroup(moduli), 1)
    assert str(classes.group) == group
    assert len(snf_calls) <= budget, snf_calls


COVERS = {
    "torus.cov": lambda: fixtures.torus_product()[1],
    "delta3_star.cov": lambda: star_cover(fixtures.boundary_delta3()),
}


@pytest.mark.parametrize(
    "name, ok, budget", [("torus.cov", True, 36), ("delta3_star.cov", False, 29)]
)
def test_goodness_factors_each_local_coboundary_once(snf_calls, name, ok, budget):
    """Goodness reads only groups: one Smith call per non-empty local matrix."""
    cov = COVERS[name]()
    nrv = nerve(cov)
    del snf_calls[:]
    assert verify_good_cover(cov, nrv).ok is ok
    assert len(snf_calls) <= budget, snf_calls


def test_goodness_keeps_the_local_factorizations(snf_calls):
    """An intersection without a collapse certificate is factored on the
    first check only: it keeps its factorizations of delta."""
    k = dunce_hat()
    cov = Cover(k, (k,))
    nrv = nerve(cov)
    del snf_calls[:]
    assert verify_good_cover(cov, nrv).ok
    assert sorted(snf_calls) == [(17, 24), (24, 8)]
    del snf_calls[:]
    for _ in range(2):
        assert verify_good_cover(cov, nrv).ok
    assert snf_calls == []


def test_local_solve_without_a_certificate_reads_the_kept_factorization(snf_calls):
    """The dunce hat has no collapse certificate, so D v = rhs on it is
    solved by Smith on the factorization goodness kept: unshuffled, with
    the solution of a fresh ``abelian.solve``; shuffled, with that
    solution plus a seeded kernel vector, so the seeds pick solutions
    other than the unshuffled one and no Smith call is made."""
    k = dunce_hat()
    cov = Cover(k, (k,))
    nrv = nerve(cov)
    assert verify_good_cover(cov, nrv).ok
    inter = nrv.intersection_of[(0,)]
    rng = random.Random(4)
    for q in (0, 1):
        rows = inter.coboundary_matrix(q)
        simps = inter.simplices_of_dim(q)
        v = [rng.randint(-3, 3) for _ in simps]
        b = abelian.mat_vec(dense(rows, len(simps)), v)
        rhs = {t: x for t, x in zip(inter.simplices_of_dim(q + 1), b) if x}
        del snf_calls[:]
        got = _solve_local_d(inter, q, rhs)
        assert snf_calls == []
        want = abelian.solve(rows, b, "Q", len(simps))
        assert got == {s: x.numerator for s, x in zip(simps, want) if x}
        del snf_calls[:]
        shuffled = [_solve_local_d(inter, q, rhs, random.Random(seed)) for seed in range(4)]
        assert snf_calls == []
        for sol in shuffled:
            assert _face_sums(inter.simplices_of_dim(q + 1), sol) == rhs
            assert all(type(x) is int for x in sol.values())
        assert any(sol != got for sol in shuffled)


@pytest.mark.parametrize(
    "cover",
    [lambda: fixtures.torus_product()[1], lambda: fixtures.rp2_good_cover()[0]],
    ids=["torus.cov", "rp2-dual-block"],
)
def test_good_covers_need_no_smith(snf_calls, cover):
    """Every intersection of these good covers has a collapse certificate."""
    cov = cover()
    nrv = nerve(cov)
    del snf_calls[:]
    assert verify_good_cover(cov, nrv).ok
    assert snf_calls == []


def gauged_torus_gerbe():
    """The flat torus gerbe with holonomy 1/3, gauged by D f for a seeded rational f,
    on a fresh cover.

    The gauge makes every local equation of holonomy nonzero.
    """
    torus, _ = fixtures.torus_product()
    rng = random.Random(11)
    f = Cochain(
        torus,
        1,
        QQ,
        {s: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for s in torus.simplices_of_dim(1)},
    )
    pkg = add_global_datum(fixtures.torus_flat_gerbe(Fraction(1, 3)), f)
    return pkg, torus, fixtures.torus_cycle(torus)


@pytest.fixture(scope="module")
def torus_gerbe():
    return gauged_torus_gerbe()


def test_holonomy_on_a_collapsible_cover_needs_no_smith(snf_calls, torus_gerbe):
    """Holonomy's goodness check runs on collapse certificates, and its flag
    sum solves no local equation: no Smith call."""
    pkg, torus, z = torus_gerbe
    del snf_calls[:]
    assert holonomy(pkg, torus, z).value == Fraction(1, 3)
    assert snf_calls == []


def test_shuffle_still_varies_the_potentials(torus_gerbe):
    """A shuffled collapse order picks other exact potentials of the
    trivialization; the holonomy is the same."""
    pkg, torus, z = torus_gerbe
    restricted = restrict_package(pkg, torus)
    default = holonomy_trivialization(restricted).potentials
    differ = 0
    for trial in range(4):
        shuffled = holonomy_trivialization(restricted, shuffle=random.Random(trial)).potentials
        differ += any(shuffled[q] != default[q] for q in default)
        assert holonomy(pkg, torus, z, shuffle=random.Random(trial)).value == Fraction(1, 3)
    assert differ >= 1


def test_repeated_holonomy_reuses_the_kept_restriction(monkeypatch, snf_calls):
    """Holonomy solves no local equation, so past its goodness check no
    holonomy builds a face graph, a collapse or a Smith factorization, by
    default or shuffled, on the flat and the gauged gerbe alike.  Over the
    whole base the restriction is the package itself, whose certificates
    ``descent_chain`` built: there no holonomy builds a nerve either.
    Over a proper subcomplex (a loop on the torus) the cover keeps its
    restriction: the first holonomy builds its nerve and the collapse
    certificates of its goodness check, and no later one on that loop
    builds anything."""
    pkg = fixtures.torus_flat_gerbe(Fraction(1, 3))
    gauged, torus, z = gauged_torus_gerbe()
    loop_pkg, loop, loop_z = _gauged_torus_circle_bundle(Fraction(2, 7))
    nerves = _record_calls(monkeypatch, complexes, "nerve")
    collapses = _record_calls(monkeypatch, complexes, "_greedy_collapse")
    graphs = _record_calls(monkeypatch, complexes, "_collapse_graph")
    del snf_calls[:]
    first = holonomy(pkg, torus, z)
    assert first.value == Fraction(1, 3)
    for p in (pkg, gauged):
        assert holonomy(p, torus, z) == first
        assert holonomy(p, torus, z, shuffle=random.Random(5)) == first
    assert nerves == collapses == graphs == snf_calls == []
    around = holonomy(loop_pkg, loop, loop_z)
    assert around.value == Fraction(2, 7)
    assert len(nerves) == 1 and collapses
    del nerves[:], collapses[:], graphs[:], snf_calls[:]
    assert holonomy(loop_pkg, loop, loop_z) == around
    assert holonomy(loop_pkg, loop, loop_z, shuffle=random.Random(5)) == around
    assert nerves == collapses == graphs == snf_calls == []


def _gauged_torus_circle_bundle(t):
    """The torus circle bundle t * x (x the first-factor generator of the
    product-cover nerve) gauged by D f for a seeded rational 0-cochain f,
    with the loop hexagon x {0} and its cycle, around which its holonomy
    is t.  The gauge makes its layer and the local equations on the loop
    nonzero."""
    torus, cov = fixtures.torus_product()
    nrv = nerve(cov)
    x, _ = fixtures.torus_nerve_generators(nrv)
    c = Cochain(nrv, 1, CIRCLE, {s: CircleElement(t * v.coords[0]) for s, v in x.values.items()})
    rng = random.Random(12)
    f = Cochain(
        torus, 0, QQ, {s: Fraction(rng.randint(1, 6), rng.randint(1, 4)) for s in torus.simplices_of_dim(0)}
    )
    return (add_global_datum(descent_chain(c, cov, nrv), f), *_torus_loop(torus))


def test_a_second_shuffled_holonomy_builds_no_face_graph(monkeypatch):
    """A shuffle reorders only the piece assignment: shuffled holonomies
    with different seeds, on the gauged gerbe, whose bottom layer is
    nonzero, and on the flat gerbe, build no face graph and agree."""
    pkg, torus, z = gauged_torus_gerbe()
    flat = fixtures.torus_flat_gerbe(Fraction(1, 3))
    graphs = _record_calls(monkeypatch, complexes, "_collapse_graph")
    first = holonomy(pkg, torus, z, shuffle=random.Random(5))
    assert holonomy(pkg, torus, z, shuffle=random.Random(6)) == first
    assert holonomy(flat, torus, z) == first
    assert holonomy(flat, torus, z, shuffle=random.Random(5)) == first
    assert graphs == []


def test_goodness_and_the_sorted_certificate_keep_no_face_graph(monkeypatch):
    """An unshuffled collapse builds the face graph once and keeps only
    the certificate, so a second goodness check and collapse build no
    graph."""
    cov = fixtures.torus_product()[1]
    nrv = nerve(cov)
    graphs = _record_calls(monkeypatch, complexes, "_collapse_graph")
    assert verify_good_cover(cov, nrv).ok
    assert len(graphs) == len(nrv.simplices)
    assert nrv.collapse() is None
    assert len(graphs) == len(nrv.simplices) + 1
    del graphs[:]
    assert verify_good_cover(cov, nrv).ok and nrv.collapse() is None
    assert graphs == []


def test_nerve_sorts_no_intersection(monkeypatch):
    """``nerve`` and ``Cover.restricted_to`` group no simplices by dimension;
    goodness then sorts each intersection once, for its collapse."""
    cover = fixtures.dual_block_cover(fixtures.rp2_minimal())
    sorts = _record_calls(monkeypatch, complexes, "_group_by_dim", id)
    nrv = nerve(cover)
    cover.restricted_to(cover.base)
    assert sorts == []
    assert verify_good_cover(cover, nrv).ok
    inters = {id(w.simplices) for w in nrv.intersection_of.values()}
    assert sorted(sorts) == sorted(inters | {id(cover.base.simplices)})
    del sorts[:]
    assert verify_good_cover(cover, nrv).ok
    assert sorts == []


def test_packages_on_one_cover_share_the_restricted_nerve(torus_gerbe):
    """Two packages on one cover restrict through one kept cover and nerve."""
    pkg, torus, _ = torus_gerbe
    edge = torus.simplices_of_dim(1)[0]
    other = add_global_datum(pkg, Cochain(torus, 1, QQ, {edge: 1}))
    first, second = restrict_package(pkg, torus), restrict_package(other, torus)
    assert second.nerve is first.nerve and second.cover is first.cover
    assert second.layers[0] != first.layers[0]


def test_cover_not_good_on_v_fails_on_every_call():
    """The failing goodness report is not kept: every call checks and raises."""
    disk = validate_complex([(0, 1, 2)])
    cov = Cover(disk, (disk,))
    pkg = descent_chain(Cochain(nerve(cov), 1, CIRCLE, {}), cov)
    rim = validate_complex([(0, 1), (1, 2), (0, 2)], 3)
    z = Chain(rim, 1, {(0, 1): 1, (1, 2): 1, (0, 2): -1})
    for _ in range(2):
        with pytest.raises(CoverNotGoodOnV, match="restricted cover is not good"):
            holonomy(pkg, rim, z)


def test_is_coboundary_factors_delta_once_for_all_factors(snf_calls):
    """Every cyclic coefficient factor is solved on one factorization of delta."""
    nrv = nerve(fixtures.torus_product()[1])
    group = FgAbelianGroup((2, 4))
    y = random_cochain(random.Random(3), nrv, group, 0)
    x = coboundary(y)
    del snf_calls[:]
    w = is_coboundary(x)
    assert len(snf_calls) <= 1, snf_calls
    assert w is not None and coboundary(w) == x


@pytest.mark.parametrize("case", ["exact", "refused", "not a cocycle"])
def test_is_coboundary_factors_only_the_previous_coboundary(torus36, snf_calls, case):
    """The cocycle law is read off the solve, so delta_1 is never factored.

    A solved cochain is exact; the law is tested (one coboundary, no
    Smith call) only when the solve refuses.
    """
    group = FgAbelianGroup((2,))
    edges = torus36.simplices_of_dim(1)
    if case == "exact":
        x = coboundary(random_cochain(random.Random(5), torus36, group, 0))
    elif case == "refused":
        # a generator of H^1, found on a copy of the carrier
        hexagon = fixtures.hexagon()
        copy = product_complex(hexagon, hexagon)[0]
        x = Cochain(torus36, 1, group, cohomology_classes(copy, group, 1).generators()[0].values)
    else:
        x = Cochain(torus36, 1, group, {edges[0]: (1,)})
    del snf_calls[:]
    if case == "not a cocycle":
        with pytest.raises(NotACocycle):
            is_coboundary(x)
    else:
        w = is_coboundary(x)
        assert (w is not None) == (case == "exact")
        assert w is None or coboundary(w) == x
    assert snf_calls == [(len(edges), len(torus36.simplices_of_dim(0)))]


def test_class_coords_reuses_the_built_lattice(torus36, snf_calls):
    classes = cohomology_classes(torus36, FgAbelianGroup((0,)), 1)
    gens = classes.generators()
    del snf_calls[:]
    assert [classes.class_coords(g) for g in gens] == [(1, 0), (0, 1)]
    assert snf_calls == []


@pytest.mark.parametrize("query", ["cohomology_classes", "is_coboundary"])
def test_second_query_on_a_carrier_refactors_no_coboundary(snf_inputs, query):
    """The carrier keeps its factorization of delta_p for every later query.

    A second ``is_coboundary`` factors nothing, and neither does a second
    ``cohomology_classes``: the carrier keeps the presentation of the
    integral relations too, and the orders of Z/2 + Z/4 on the torus
    already divide in turn.
    """
    nrv = nerve(fixtures.torus_product()[1])
    group = FgAbelianGroup((2, 4))
    x = coboundary(random_cochain(random.Random(3), nrv, group, 0))

    def run():
        if query == "is_coboundary":
            return is_coboundary(x).values
        return [g.values for g in cohomology_classes(nrv, group, 1).generators()]

    deltas = [nrv.coboundary_matrix(p) for p in (0, 1)]
    first = run()
    assert sum(m in deltas for m in snf_inputs) == 1
    del snf_inputs[:]
    assert run() == first
    assert snf_inputs == []


def test_cyclic_coefficients_need_no_combine_factorization(snf_calls):
    """With one coefficient factor, a repeated query makes no Smith call.

    The carrier keeps the presentation of the relations, and the orders
    of one factor already divide in turn, so the presentation that
    combines them is the identity.
    """
    nrv = nerve(fixtures.torus_product()[1])
    first = cohomology_classes(nrv, FgAbelianGroup((2,)), 1)
    del snf_calls[:]
    second = cohomology_classes(nrv, FgAbelianGroup((2,)), 1)
    assert snf_calls == []
    assert second.group == first.group
    assert [g.values for g in second.generators()] == [g.values for g in first.generators()]


def test_one_presentation_per_degree_serves_every_coefficient_group(torus36, snf_calls):
    """H^1 over Z, Z/2 and Z/3 on one carrier factors delta_1 and the
    relations R once each: R does not depend on the coefficients."""
    got = [str(cohomology_classes(torus36, FgAbelianGroup((m,)), 1).group) for m in (0, 2, 3)]
    assert got == ["Z + Z", "Z/2 + Z/2", "Z/3 + Z/3"]
    n0, n1, n2 = (len(torus36.simplices_of_dim(q)) for q in range(3))
    assert snf_calls == [(n2, n1), (n1 - len(torus36.factored_coboundary(1).diag), n0)]


def test_top_degree_class_reads_the_factorization_of_the_solve(snf_calls):
    """In the top degree the relations are delta_{p-1} itself: once
    ``is_coboundary`` has factored it, ``obstruction_class`` makes no
    Smith call."""
    _, nrv = fixtures.rp2_good_cover()
    transitions = fixtures.rp2_orientation_transitions(nrv)
    c = tower.giraud_obstruction(transitions, fixtures.z2_z4_extension())
    fresh = nerve(nrv.cover)
    c = Cochain(fresh, 2, c.group, c.values)
    assert c.degree == fresh.dim
    del snf_calls[:]
    assert is_coboundary(c) is None
    assert snf_calls == [(len(fresh.simplices_of_dim(2)), len(fresh.simplices_of_dim(1)))]
    del snf_calls[:]
    obs = tower.obstruction_class(c)
    assert snf_calls == []
    assert str(obs.cohomology) == "Z/2" and obs.coords == (1,)


@settings(max_examples=40, deadline=None)
@given(small_complexes(), st.data())
def test_kept_presentations_answer_like_a_fresh_carrier_per_query(k, data):
    """Queries on one carrier, in any order of degrees and coefficient
    groups, give the group, generators and class coordinates of a fresh
    carrier per query."""
    groups = [FgAbelianGroup((0,)), *COEFFICIENTS]
    queries = data.draw(
        st.lists(
            st.tuples(st.integers(0, k.dim + 1), st.sampled_from(groups)), min_size=1, max_size=6
        )
    )
    for p, group in queries:
        kept = cohomology_classes(k, group, p)
        fresh = cohomology_classes(SimplicialComplex(k.vertex_count, k.simplices), group, p)
        assert kept.group == fresh.group
        gens = kept.generators()
        assert [g.values for g in gens] == [g.values for g in fresh.generators()]
        rng = random.Random(data.draw(st.integers(0, 99)))
        x = coboundary(random_cochain(rng, k, group, p - 1)) if p else Cochain(k, 0, group)
        for g in gens:
            a = rng.randint(-5, 5)
            x = x + Cochain(k, p, group, {s: a * v for s, v in g.values.items()})
        assert kept.class_coords(x) == fresh.class_coords(Cochain(fresh.carrier, p, group, x.values))


def _sequence_data():
    """(A, B, C, inject matrix, project matrix) of three exact sequences."""
    z2, z4 = FgAbelianGroup((2,)), FgAbelianGroup((4,))
    derived = fixtures.z2_tower(3).derived_sequence(2)
    return {
        "z2-z4-z2": (z2, z4, z2, ((2,),), ((1,),)),
        "derived": (
            derived.A, derived.B, derived.C, derived.inject.matrix, derived.project.matrix
        ),
        # B = Z/3 + Z has a finite and a free factor: 0 -> Z -> Z/3 + Z -> Z/6 -> 0
        "mixed": (
            FgAbelianGroup((0,)), FgAbelianGroup((3, 0)), FgAbelianGroup((6,)),
            ((0,), (2,)), ((2, 3),),
        ),
    }


@pytest.mark.parametrize("name", ["z2-z4-z2", "derived", "mixed"])
def test_exact_sequence_factors_each_map_once(snf_calls, name):
    """Exactness costs one factorization per map; section and kernel_part none."""
    a, b, c, inject, project = _sequence_data()[name]
    del snf_calls[:]
    ses = ShortExactSequence(a, b, c, Homomorphism(a, b, inject), Homomorphism(b, c, project))
    assert len(snf_calls) <= 2, snf_calls
    del snf_calls[:]
    for z in _some_elements(c):
        y = ses.section(z)
        assert ses.project.apply(y) == z
        for x in _some_elements(a):
            assert ses.kernel_part(ses.inject.apply(x)) == x
    assert snf_calls == []


def _some_elements(group):
    if group.is_finite():
        return list(group.elements())
    return [group.element((k,) * group.rank) for k in range(-3, 4)]


@pytest.mark.parametrize(
    "name, budget",
    [("bockstein-rp2", 4), ("tower-rp2", 4), ("obstruct-rp2", 1)],
    ids=["bockstein", "rp2-tower", "rp2-obstruct"],
)
def test_cli_example_smith_budget(tmp_path, snf_calls, name, budget):
    """A README example factors each of its matrices once, end to end."""
    check_cases(tmp_path, name)
    assert len(snf_calls) <= budget, snf_calls


def _rp2_tower_input(shift_level):
    _, nrv = fixtures.rp2_good_cover()
    if shift_level is None:
        return fixtures.rp2_orientation_transitions(nrv), None
    g = tower.TransitionCocycle(nrv, fixtures.z2_tower(1).extensions[0].base, {})
    return g, {shift_level: fixtures.rp2_orientation_cocycle(nrv)}


def _circle_tower_input():
    return fixtures.circle_double_cover_transitions(nerve(fixtures.three_arc_cover())), None


@pytest.mark.parametrize(
    "make_input, status, class_degrees",
    [
        (_circle_tower_input, ("lifted", 3), []),
        (lambda: _rp2_tower_input(None), ("blocked", 1), [2, 3, 4]),
        (lambda: _rp2_tower_input(1), ("blocked", 2), [2, 3]),
    ],
    ids=["circle-lifted", "rp2-blocked-1", "rp2-blocked-2"],
)
def test_tower_builds_one_giraud_cocycle_per_level(monkeypatch, make_input, status, class_degrees):
    """One Giraud cocycle per level up to the first block; classes are read
    only on the blocked level and the connecting-operator images."""
    g, shifts = make_input()
    giraud = _record_calls(monkeypatch, tower, "giraud_obstruction", lambda g, ext, *twist: ext)
    coords = _record_calls(
        monkeypatch, cochains.CohomologyClasses, "class_coords", lambda classes, c: c.degree
    )
    z2_tower = fixtures.z2_tower(3)
    seq = tower.tower_obstructions(g, z2_tower, witness_shifts=shifts)
    assert seq.status == status
    levels = status[1]
    assert giraud == list(z2_tower.extensions[:levels])
    assert coords == class_degrees


def test_no_dense_matrix_reaches_the_kernel(tmp_path, snf_inputs):
    """Every README example, run in process, and the exact sequences above
    (maps with zero entries among them) hand the Smith kernel only
    {column: value} rows of nonzero entries."""
    for name, case in CASES.items():
        if case.reads_golden():
            check(case, run(case, tmp_path / name))
    for a, b, c, inject, project in _sequence_data().values():
        ShortExactSequence(a, b, c, Homomorphism(a, b, inject), Homomorphism(b, c, project))
    assert snf_inputs
    for rows in snf_inputs:
        assert all(type(row) is dict and all(row.values()) for row in rows), rows


def _oracle_solve_mod1(mat, b, denominators):
    """Brute force over y in (1/D)Z / Z: some rational y with mat y = b mod 1."""
    ncols = len(mat[0])
    for d in denominators:
        for raw in _box(range(d), ncols):
            y = [Fraction(k, d) for k in raw]
            if all((sum(r * x for r, x in zip(row, y)) - bi) % 1 == 0 for row, bi in zip(mat, b)):
                return True
    return False


def _box(values, n):
    """Every n-tuple of the given values."""
    if n == 0:
        yield ()
        return
    for rest in _box(values, n - 1):
        for v in values:
            yield (v, *rest)


class TestOneBackSubstitution:
    def test_each_ring_solves_or_refuses_exactly(self):
        rng = random.Random(5)
        for _ in range(60):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            rows = sparse(mat)
            b_int = [rng.randint(-4, 4) for _ in range(m)]
            b_q = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
            x = abelian.solve(rows, b_int, "Z", n)
            if x is not None:
                assert abelian.mat_vec(mat, x) == b_int
                assert all(isinstance(v, int) for v in x)
            else:
                # no integer solution in a generous box either
                box = range(-12, 13)
                assert not any(
                    abelian.mat_vec(mat, list(c)) == b_int for c in _box(box, n)
                )
            y = abelian.solve(rows, b_q, "Q", n)
            if y is not None:
                assert abelian.mat_vec(mat, y) == b_q
            # an integer solution is rational, a rational one solves mod 1
            assert x is None or abelian.solve(rows, b_int, "Q", n) is not None
            w = abelian.solve(rows, b_q, "Q/Z", n)
            assert y is None or w is not None
            if w is not None:
                assert all(0 <= v < 1 for v in w)
                assert all((r - bi) % 1 == 0 for r, bi in zip(abelian.mat_vec(mat, w), b_q))
            else:
                assert not _oracle_solve_mod1(mat, b_q, (1, 2, 3, 4, 6, 8, 12))

    def test_empty_system(self):
        assert abelian.solve([], [], "Z", ncols=2) == [0, 0]
        assert abelian.solve([], [], "Q/Z", ncols=1) == [Fraction(0)]

    def test_unknown_ring_is_refused(self):
        with pytest.raises(ValueError, match="unknown ring"):
            abelian.solve([{0: 1}], [1], "Z/2", 1)

    def test_rational_rank_deficient(self):
        assert abelian.solve([{0: 2, 1: 4}], [Fraction(1)], "Q", 2) is not None
        assert abelian.solve([{0: 1}, {0: 1}], [Fraction(1), Fraction(2)], "Q", 1) is None
        assert abelian.solve([{0: 2}], [Fraction(1)], "Z", 1) is None


def test_lattice_coordinates_and_quotient_share_one_factorization(snf_calls):
    gens = [[2, 0, 0], [0, 4, 2], [2, 4, 2]]  # rank 2 in Z^3
    rows = [{j: g[i] for j, g in enumerate(gens) if g[i]} for i in range(3)]
    lat = abelian._presentation(rows, len(gens))
    assert len(snf_calls) == 1
    assert str(lat.group) == "Z/2 + Z/2 + Z"
    for g in gens:
        assert lat.element_of(g).is_zero()
    assert not lat.element_of([1, 0, 0]).is_zero()
    assert not lat.element_of([0, 0, 1]).is_zero()
    assert len(snf_calls) == 1
