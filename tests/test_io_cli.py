"""Container round-trips, CLI reports, determinism, exit codes.

The command-line cases live in one table, ``tests/cli_cases.py``; the
tests here run them by name, in this process.
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from cechlift import cli, deligne, fixtures, io
from cechlift.abelian import CIRCLE, FgAbelianGroup
from cechlift.cochains import cohomology_classes
from cechlift.complexes import (
    Cover,
    SimplicialComplex,
    downward_closure,
    nerve,
    product_cover,
    star_cover,
    validate_complex,
)
from cechlift.deligne import curvature, descent_chain, holonomy
from cechlift.errors import FormatError
from cechlift.tower import bockstein, giraud_obstruction, tower_obstructions

import cli_cases
from cli_cases import (
    BAD_ALGEBRA,
    BAD_FACES,
    BAD_NUMBERS,
    BAD_PACKAGE_DEGREES,
    BAD_PACKAGE_EQUATIONS,
    BAD_STRUCTURE,
    BLOW_UPS,
    CASES,
    EMPTY_TOWERS,
    FIXTURES,
    NERVE_BLOW_UPS,
    budget,
    check,
    check_cases,
)


class TestRoundTrips:
    def test_complex(self, tmp_path, rp2):
        path = tmp_path / "k.cplx"
        io.dump_json(io.complex_to_json(rp2), path)
        assert io.load_typed(path, expect="complex") == rp2

    def test_cover(self, tmp_path, circle_cover):
        path = tmp_path / "c.cov"
        io.dump_json(io.cover_to_json(circle_cover), path)
        loaded = io.load_typed(path, expect="cover")
        assert loaded.base == circle_cover.base
        assert loaded.pieces == circle_cover.pieces

    def test_star_cover_flag(self, tmp_path, hexagon):
        from cechlift.complexes import star_cover

        path = tmp_path / "c.cov"
        io.dump_json(
            {"kind": "cover", "base": io.complex_to_json(hexagon), "star_cover": True},
            path,
        )
        loaded = io.load_typed(path, expect="cover")
        assert loaded.pieces == star_cover(hexagon).pieces

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("no", "cover 'star_cover' must be true or false, not 'no'"),
            (1, "cover 'star_cover' must be true or false, not 1"),
            (None, "cover 'star_cover' must be true or false, not None"),
            (True, "cover: 'star_cover' true and 'pieces' are given together"),
        ],
    )
    def test_star_cover_flag_is_a_boolean_without_pieces(self, circle_cover, flag, message):
        obj = {**io.cover_to_json(circle_cover), "star_cover": flag}
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            io.cover_from_json(obj)
        assert io.cover_from_json({**obj, "star_cover": False}).pieces == circle_cover.pieces

    def test_groups(self, tmp_path):
        for g in (FgAbelianGroup((2, 4, 0)), CIRCLE):
            path = tmp_path / "g.grp"
            io.dump_json(io.group_to_json(g), path)
            assert io.load_typed(path, expect="group") == g

    def test_chain(self, tmp_path, hexagon):
        z = fixtures.hexagon_cycle(hexagon)
        path = tmp_path / "z.chn"
        io.dump_json(io.chain_to_json(z), path)
        loaded = io.chain_from_json(io.load_json(path), hexagon)
        assert loaded.coefficients == z.coefficients

    def test_cochain_with_cover(self, tmp_path, rp2_cover_nerve):
        cover, nrv = rp2_cover_nerve
        w = fixtures.rp2_orientation_cocycle(nrv)
        path = tmp_path / "w.cochain"
        io.dump_json(io.cochain_to_json(w, include_cover=cover), path)
        loaded, _ = io.cochain_from_json(io.load_json(path))
        assert loaded.values == w.values

    def test_extension_and_tower(self, tmp_path):
        ext = fixtures.z2_z4_extension()
        path = tmp_path / "e.ext"
        io.dump_json(io.extension_to_json(ext), path)
        loaded = io.load_typed(path, expect="extension")
        assert loaded.total.table == ext.total.table
        twr = fixtures.z2_tower(2)
        path2 = tmp_path / "t.twr"
        io.dump_json(io.tower_to_json(twr), path2)
        loaded2 = io.load_typed(path2, expect="tower")
        assert len(loaded2) == 2
        assert loaded2.extensions[1].total.table == twr.extensions[1].total.table

    def test_bare_extension_array_is_a_tower(self, tmp_path):
        ext = fixtures.z2_z4_extension()
        path = tmp_path / "t.twr"
        io.dump_json([io.extension_to_json(ext)], path)
        loaded = io.load_typed(path)
        assert len(loaded) == 1

    def test_ses(self, tmp_path):
        ses = fixtures.z2_tower(2).derived_sequence(1)
        path = tmp_path / "s.ses"
        io.dump_json(io.ses_to_json(ses), path)
        loaded = io.load_typed(path, expect="ses")
        assert loaded.B.moduli == (4,)

    def test_package(self, tmp_path):
        pkg = fixtures.circle_flat_package(Fraction(1, 3))
        path = tmp_path / "p.pkg"
        io.dump_json(io.package_to_json(pkg), path)
        loaded = io.load_typed(path, expect="package")
        assert loaded.degree == 1
        assert loaded.cocycle.values == pkg.cocycle.values

    def test_package_with_nonzero_layers(self, tmp_path, torus_cover, torus_nerve):
        import random

        from cechlift.deligne import DoubleCochain, add_exact_datum, holonomy

        rng = random.Random(23)
        torus, cov = torus_cover
        pkg = fixtures.torus_flat_gerbe(Fraction(2, 5))
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
        perturbed = add_exact_datum(
            pkg, 0, DoubleCochain(cov, torus_nerve, 0, 1, rho_vals)
        )
        assert any(not layer.is_zero() for layer in perturbed.layers.values())
        path = tmp_path / "p2.pkg"
        io.dump_json(io.package_to_json(perturbed), path)
        loaded = io.load_typed(path, expect="package")  # re-validates equations
        for q in loaded.layers:
            assert loaded.layers[q].values == perturbed.layers[q].values
        z = fixtures.torus_cycle(torus)
        assert holonomy(loaded, loaded.cover.base, z).value == Fraction(2, 5)

    def test_rational_cochain_with_a_repeated_simplex(self):
        from cechlift.errors import FormatError

        value = {"simplex": [0, 1], "num": 1, "den": 2}
        obj = {"kind": "rational_cochain", "degree": 1,
               "complex": {"kind": "complex", "vertices": 3, "simplices": [[0, 1, 2]]},
               "values": [value, dict(value, num=1, den=3)]}
        with pytest.raises(FormatError, match=r"\(0, 1\) is given more than once"):
            io.rational_cochain_from_json(obj)

    def test_kind_mismatch(self, tmp_path, hexagon):
        path = tmp_path / "k.cplx"
        io.dump_json(io.complex_to_json(hexagon), path)
        from cechlift.errors import FormatError

        with pytest.raises(FormatError):
            io.load_typed(path, expect="cover")


def _cases(group):
    return pytest.mark.parametrize("case", sorted(group))


class TestCLI:
    """Each test runs the cases of the table it names."""

    def test_cohomology_example(self, tmp_path):
        check_cases(tmp_path, "cohomology-rp2-z2-p2", "cohomology-rp2-z2-plus-z-p2", "cohomology-rp2-circle-false")

    def test_tower_example(self, tmp_path):
        check_cases(tmp_path, "tower-circle")

    def test_holonomy_example(self, tmp_path):
        check_cases(tmp_path, "holonomy-circle", "holonomy-torus", "holonomy-gauged-bundle", "holonomy-two-arcs")

    def test_determinism_byte_identical(self, tmp_path):
        names = (
            "cohomology-rp2-z2-p2", "tower-circle", "holonomy-circle", "obstruct-rp2", "cohomology-torus-z-p2",
        )
        check_cases(tmp_path / "first", *names)
        check_cases(tmp_path / "second", *names)

    def test_obstruct_rp2(self, tmp_path):
        check_cases(tmp_path, "obstruct-rp2")

    def test_tower_rp2_blocked(self, tmp_path):
        check_cases(tmp_path, "tower-rp2")

    def test_bockstein(self, tmp_path):
        check_cases(tmp_path, "bockstein-rp2")

    def test_descent_curvature_pipeline(self, tmp_path):
        check_cases(tmp_path, "descent-circle", "curvature-built")

    def test_torus_cech_cohomology(self, tmp_path):
        check_cases(tmp_path, "cohomology-torus-z-p1")

    def test_artifact_roundtrip(self, tmp_path):
        check_cases(tmp_path, "obstruct-rp2", "holonomy-circle")
        x, _ = io.cochain_from_json(io.load_json(tmp_path / "obstruct-rp2" / "c.cochain"))
        assert x.degree == 2
        assert io.load_typed(tmp_path / "holonomy-circle" / "circle.val").value == Fraction(1, 3)

    def test_usage_error_exit_2(self, tmp_path):
        check_cases(tmp_path, "input-not-found", "unknown-command")

    def test_domain_error_exit_1(self, tmp_path):
        check_cases(
            tmp_path, "cover-not-good", "cohomology-over-q-mod-z", "cohomology-of-a-transitions-file",
            "obstruct-with-a-tower-file",
        )

    def test_cover_not_good_names_its_witnesses(self, tmp_path):
        check_cases(tmp_path, "cover-not-good", "cohomology-delta3-star-z-p1")

    def test_goodness_degree_cannot_be_lowered(self, tmp_path):
        check_cases(tmp_path, "no-goodness-degree-option", "cover-not-good-zero-cocycle")

    def test_descent_reports_the_goodness_it_enforces(self, tmp_path):
        check_cases(tmp_path, "descent-torus-zero", "cohomology-torus-z-p1")

    def test_malformed_json_exit_1(self, tmp_path):
        check_cases(tmp_path, "malformed-json")

    @_cases(BAD_FACES)
    def test_bad_faces_are_refused_before_closure(self, tmp_path, case):
        check_cases(tmp_path, case)

    @_cases(BAD_ALGEBRA)
    def test_malformed_algebra_is_a_format_error(self, tmp_path, case):
        check_cases(tmp_path, case)

    @_cases(BAD_NUMBERS)
    def test_non_integer_numbers_are_a_format_error(self, tmp_path, case):
        check_cases(tmp_path, case)

    @_cases(BAD_STRUCTURE)
    def test_malformed_structure_is_a_format_error(self, tmp_path, case):
        check_cases(tmp_path, case)

    @_cases(EMPTY_TOWERS)
    def test_empty_tower_is_a_format_error(self, tmp_path, case):
        check_cases(tmp_path, case)

    def test_verify_full_mode(self, tmp_path):
        check_cases(tmp_path, "cohomology-rp2-verify-full", "tower-rp2-verify-full", "bockstein-rp2-verify-full")

    def test_fixture_determinism(self, tmp_path):
        check_cases(tmp_path, *FIXTURES)


def test_readme_command_lines_are_table_cases(tmp_path):
    """Every ``cechlift`` line of the README's command-line block is a case
    of the table, and each ``# -> claim`` on it (claims joined by "; ") is
    in that case's report."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cechlift ")]
    assert len(lines) >= 10
    for line in lines:
        command, _, comment = line.partition("#")
        argv = " ".join(command.split()[1:])
        names = [name for name, case in CASES.items() if case.argv == argv]
        assert len(names) == 1, line
        res = cli_cases.run(CASES[names[0]], tmp_path / names[0])
        check(CASES[names[0]], res)
        comment = comment.strip()
        claims = comment[len("->"):].strip().split("; ") if comment.startswith("->") else []
        for claim in claims:
            assert claim in res.stdout, (line, claim)


@pytest.fixture(scope="module")
def command_results():
    """Each command's (arguments, artifact) on the shipped fixtures, the
    artifact built by the library and ``io`` without the CLI."""
    def load(name, kind):
        return io.load_container(cli_cases.GOLDEN / "fixtures" / name, kind)

    rp2_cover = io.cover_from_json(load("rp2.cov", "cover"))
    rp2_nerve = nerve(rp2_cover)
    ext = io.extension_from_json(load("z2-z4.ext", "extension"))
    w1 = io.transitions_from_json(load("w1.trn", "transitions"), rp2_nerve, ext.base)
    twr = io.tower_from_json(load("rp2_tower.twr", "tower"))
    x, x_cover = io.cochain_from_json(load("w1.cochain", "cochain"))
    ses = io.ses_from_json(load("z2z4z2.ses", "ses"))
    circle_cover = io.cover_from_json(load("circle.cov", "cover"))
    circle_nerve = nerve(circle_cover)
    theta = io.cochain_from_json(load("theta.cochain", "cochain"), carrier=circle_nerve)
    pkg = io.package_from_json(load("flat_bundle.pkg", "package"))
    z = io.chain_from_json(load("hexcycle.chn", "chain"), pkg.cover.base)
    v = SimplicialComplex._trusted(pkg.cover.base.vertex_count, downward_closure(z.coefficients))
    rp2 = io.complex_from_json(load("rp2.cplx", "complex"))
    return {
        "cohomology": (
            ["cohomology", "rp2.cplx", "z2.grp", "-p", "2"],
            io.group_to_json(cohomology_classes(rp2, FgAbelianGroup((2,)), 2).group),
        ),
        "obstruct": (
            ["obstruct", "rp2.cov", "w1.trn", "z2-z4.ext"],
            io.cochain_to_json(giraud_obstruction(w1, ext), include_cover=rp2_cover),
        ),
        "tower": (
            ["tower", "rp2.cov", "w1.trn", "rp2_tower.twr"],
            io.obstruction_sequence_to_json(tower_obstructions(w1, twr)),
        ),
        "bockstein": (
            ["bockstein", "w1.cochain", "z2z4z2.ses"],
            io.cochain_to_json(bockstein(x, ses), include_cover=x_cover),
        ),
        "descent": (
            ["descent", "circle.cov", "theta.cochain"],
            io.package_to_json(descent_chain(theta, circle_cover, circle_nerve)),
        ),
        "curvature": (
            ["curvature", "flat_bundle.pkg"],
            io.rational_cochain_to_json(curvature(pkg), pkg.cover.base),
        ),
        "holonomy": (
            ["holonomy", "flat_bundle.pkg", "hexcycle.chn"],
            io.circle_value_to_json(holonomy(pkg, v, z)),
        ),
    }


@pytest.mark.parametrize(
    "command",
    ["cohomology", "obstruct", "tower", "bockstein", "descent", "curvature", "holonomy"],
)
def test_main_writes_the_artifact_io_builds(tmp_path, command_results, command):
    """``--out`` holds the io format of the command's result; without it nothing is written."""
    args, artifact = command_results[command]
    argv = " ".join(args)
    bare = cli_cases.run(cli_cases.Case(argv), tmp_path / "bare")
    assert (bare.code, bare.stderr, bare.after) == (0, "", bare.before)
    res = cli_cases.run(cli_cases.Case(f"{argv} --out out.json"), tmp_path / "out")
    assert res.stdout == bare.stdout + "wrote: out.json\n"
    io.dump_json(artifact, tmp_path / "expected.json")
    assert res.after["out.json"] == (tmp_path / "expected.json").read_bytes()


def test_curvature_artifact_reparses_to_the_curvature(tmp_path):
    check_cases(tmp_path, "curvature-built")
    pkg = io.load_typed(tmp_path / "curvature-built" / "built.pkg", expect="package")
    f = io.load_typed(tmp_path / "curvature-built" / "f.cochain", expect="rational_cochain")
    assert f == curvature(pkg) and f.carrier == pkg.cover.base


@pytest.mark.parametrize(
    "case",
    ["failing-domain-writes-no-artifact", "failing-usage-writes-no-artifact"],
    ids=["domain", "usage"],
)
def test_a_failing_command_prints_no_report_and_writes_no_artifact(tmp_path, case):
    check_cases(tmp_path, case)


@_cases(BAD_PACKAGE_DEGREES)
def test_a_package_degree_or_layer_out_of_range_is_a_degree_mismatch(tmp_path, case):
    check_cases(tmp_path, case)


@_cases(BAD_PACKAGE_EQUATIONS)
def test_a_package_that_fails_its_equations_is_refused_on_load(tmp_path, case):
    check_cases(tmp_path, case)


def test_holonomy_checks_its_package_once(tmp_path, monkeypatch):
    """The package is checked when ``io`` builds it, and not again."""
    calls = []
    checked = deligne.DelignePackage.validate

    def counted(self):
        calls.append(self)
        return checked(self)

    monkeypatch.setattr(deligne.DelignePackage, "validate", counted)
    res = cli_cases.run(cli_cases.Case("holonomy flat_bundle.pkg hexcycle.chn"), tmp_path)
    assert res.code == 0 and res.stdout.endswith("holonomy = 1/3 (mod 1)\n")
    assert len(calls) == 1


def test_a_chain_that_is_not_a_cycle_has_no_holonomy(tmp_path):
    """The hexagon cycle less one edge is a path: holonomy refuses it, so no
    report (and no "boundary zero" line) is printed."""
    check_cases(tmp_path, "not-a-cycle")


@pytest.mark.parametrize(
    "case", ["out-dir-missing", "input-is-a-directory", "fixtures-out-is-a-file", "not-utf-8", "too-deep"]
)
def test_an_unusable_path_or_undecodable_file_is_reported_without_a_traceback(tmp_path, case):
    """A path that cannot be read or written is a usage error, a file that
    is not UTF-8 or nests too deeply a format error; neither prints a
    report or creates a file."""
    check_cases(tmp_path, case)


@pytest.mark.parametrize("case", ["target-is-a-directory", "temporary-is-a-directory"])
def test_fixtures_that_cannot_write_one_file_write_none(tmp_path, case):
    check_cases(tmp_path, case)


def test_group_orders_are_bounded_where_they_are_read():
    """A finite group or an extension of order MAX_GROUP_ORDER loads; one
    past it is a FormatError naming the order, raised before any table is
    checked or the kernel is enumerated."""
    limit = io.MAX_GROUP_ORDER

    def cyclic(n):
        return {"kind": "finite_group", "table": [[(a + b) % n for b in range(n)] for a in range(n)]}

    def extension(m):
        return {
            "kind": "extension", "base": cyclic(1), "kernel": {"moduli": [m]}, "factor_set": [[[0]]],
        }

    assert io.finite_group_from_json(cyclic(limit)).order == limit
    with pytest.raises(FormatError, match=f"^finite_group: order {limit + 1} is over the limit {limit}$"):
        io.finite_group_from_json(cyclic(limit + 1))
    assert io.extension_from_json(extension(limit)).total.order == limit
    with pytest.raises(FormatError, match=f"^extension: total order {limit + 1} is over the limit {limit}$"):
        io.extension_from_json(extension(limit + 1))
    with pytest.raises(FormatError, match="^extension: total order 200000 is over the limit"):
        io.extension_from_json({**extension(100_000), "base": cyclic(2)})


#: the steps that build, in the order a cover file is loaded and used
_STEPS = ("complex", "pieces", "nerve")

#: the step that would blow up on each case of ``BLOW_UPS``
COSTLY_STEP = {
    **dict.fromkeys(["10-pieces-of-a-12-simplex", "11-pieces-of-a-14-simplex", "30-pieces-of-a-14-simplex"],
                   "pieces"),
    **dict.fromkeys(("30-pieces-of-a-17-simplex", "16-simplex", "star-cover-of-a-16-simplex"), "complex"),
}


def _building_steps(case, tmp_path, monkeypatch):
    """Check ``case``; the building steps it ran."""
    steps = set()

    def record(step, fn):
        def recorded(*args, **kwargs):
            steps.add(step)
            return fn(*args, **kwargs)
        return recorded

    monkeypatch.setattr(io, "validate_complex", record("complex", io.validate_complex))
    monkeypatch.setattr(io, "star_cover", record("pieces", io.star_cover))
    monkeypatch.setattr(io, "downward_closure", record("pieces", io.downward_closure))
    monkeypatch.setattr(cli, "nerve", record("nerve", cli.nerve))
    check(case, cli_cases.run(case, tmp_path))
    return steps


@pytest.mark.parametrize("case", list(BLOW_UPS))
def test_blow_ups_are_refused_before_their_costly_step(tmp_path, monkeypatch, case):
    """A file whose closure or pieces would blow up exits 1 with a
    FormatError naming its largest face, before that step runs."""
    steps = _building_steps(BLOW_UPS[case], tmp_path, monkeypatch)
    assert steps <= set(_STEPS[: _STEPS.index(COSTLY_STEP[case])])


@pytest.mark.parametrize(
    "case", ["closure-past-the-digit-limit", "nerve-past-the-digit-limit"], ids=["closure", "nerve"]
)
def test_a_count_past_the_digit_limit_is_named_by_its_bits(tmp_path, case):
    check_cases(tmp_path, case)


def _bsd(k, n):
    for _ in range(n):
        k = fixtures.barycentric_subdivision(k)[0]
    return k


def _arcs_of_a_cycle(arcs):
    """The 2 * arcs-cycle covered by arcs closed arcs of two edges each."""
    n = 2 * arcs
    edges = [(i, (i + 1) % n) for i in range(n)]
    pieces = (validate_complex(edges[2 * i : 2 * i + 2], vertex_count=n) for i in range(arcs))
    return Cover(validate_complex(edges, vertex_count=n), tuple(pieces))


def _fixture_covers():
    for name in ("circle", "delta3", "rp2", "torus"):
        for fname, obj in sorted(cli._fixture_files(name).items()):
            if obj.get("kind") == "cover":
                yield pytest.param(lambda obj=obj: io.cover_from_json(obj), id=fname)


@pytest.mark.parametrize(
    "build",
    [
        *_fixture_covers(),
        pytest.param(
            lambda: fixtures.dual_block_cover(_bsd(fixtures.torus_product()[0], 2)),
            id="dual-blocks-bsd2-torus36",
        ),
        pytest.param(
            lambda: fixtures.dual_block_cover(_bsd(fixtures.rp2_minimal(), 3)), id="dual-blocks-bsd3-rp2"
        ),
        pytest.param(
            lambda: product_cover(_arcs_of_a_cycle(50), _arcs_of_a_cycle(50)), id="square-of-50-arcs"
        ),
        pytest.param(lambda: star_cover(fixtures.torus_product()[0]), id="star-cover-of-torus36"),
    ],
)
def test_legitimate_covers_round_trip_within_the_budget(build):
    """Every fixture cover and large legitimate cover is admitted, and
    loads back as the cover it was written from."""
    cover = build()
    loaded = io.cover_from_json(io.cover_to_json(cover))
    assert (loaded.base, loaded.pieces) == (cover.base, cover.pieces)


@pytest.mark.parametrize("case", list(NERVE_BLOW_UPS))
def test_nerve_size_is_bounded_where_covers_are_read(tmp_path, monkeypatch, case):
    """A cover whose nerve's intersections would hold more simplices than
    the budget for the ids it lists exits 1 with a FormatError naming the
    simplex in the most pieces, before any nerve is built."""
    assert "nerve" not in _building_steps(NERVE_BLOW_UPS[case], tmp_path, monkeypatch)


def test_a_cover_at_the_nerve_limit_runs(tmp_path):
    assert 205 + 45 * (2**9 - 1) == budget(2 * 125 + 2 * 125 + 8 * 2 * 22)
    check_cases(tmp_path, "cover-at-the-nerve-limit")


def test_a_noncommutative_derived_quotient_is_a_domain_error(tmp_path):
    check_cases(tmp_path, "noncommutative-derived-quotient")


def test_verify_full_checks_only_during_its_command(tmp_path, monkeypatch):
    """--verify full turns the Smith re-check on for one command, then off."""
    from cechlift import abelian, kernels

    real = kernels.snf_with_transforms

    def corrupted(rows, ncols):
        fac = real(rows, ncols)
        if fac.diag:
            fac.diag = [fac.diag[0] + 1, *fac.diag[1:]]
        return fac

    monkeypatch.setattr(kernels, "snf_with_transforms", corrupted)
    with pytest.raises(AssertionError, match="SNF product check failed"):
        cli_cases.run(CASES["cohomology-rp2-verify-full"], tmp_path)
    assert abelian.factor([{0: 2, 1: 1}, {1: 3}], 2).diag[0] == 2  # unchecked again
    with pytest.raises(AssertionError, match="SNF product check failed"):
        token = abelian.SNF_VERIFY.set(True)
        try:
            abelian.factor([{0: 2, 1: 1}, {1: 3}], 2)
        finally:
            abelian.SNF_VERIFY.reset(token)


def _first_add(log):
    k = next(n for n, op in enumerate(log) if len(op) == 3)
    i, j, c = log[k]
    return [*log[:k], (i, j, c + 1), *log[k + 1 :]]


def _last_combine_doubled(log):
    k = max(n for n, op in enumerate(log) if len(op) == 6)
    i, j, a, b, c, d = log[k]
    return [*log[:k], (i, j, a, b, 2 * c, 2 * d), *log[k + 1 :]]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda fac: setattr(fac, "_rows", _first_add(fac._rows)),
        lambda fac: setattr(fac, "_cols", _first_add(fac._cols)),
        # the last column combine moves the label that ends past the rank,
        # so S @ V^-1 is unchanged and only its determinant, 2, is wrong
        lambda fac: setattr(fac, "_cols", _last_combine_doubled(fac._cols)),
    ],
    ids=["row-log", "column-log", "combine-determinant"],
)
def test_verify_full_catches_a_corrupted_log(monkeypatch, corrupt):
    """The re-check sees one wrong coefficient in either log, and a combine
    of determinant other than 1, on a matrix with a non-unit pivot."""
    from cechlift import abelian, kernels

    rows = [{0: 4, 1: 6}, {0: 6, 1: 9, 2: 3}, {2: 2}]
    fac = kernels.snf_with_transforms(rows, 3)
    assert fac.diag == [1, 2] and fac.is_factorization_of(rows)
    real = kernels.snf_with_transforms

    def corrupted(rows, ncols):
        fac = real(rows, ncols)
        corrupt(fac)
        return fac

    monkeypatch.setattr(kernels, "snf_with_transforms", corrupted)
    assert abelian.factor(rows, 3).diag == [1, 2]  # unchecked
    token = abelian.SNF_VERIFY.set(True)
    try:
        with pytest.raises(AssertionError, match="SNF product check failed"):
            abelian.factor(rows, 3)
    finally:
        abelian.SNF_VERIFY.reset(token)


def test_main_runs_again_after_a_usage_error(tmp_path):
    """The parser is built once per process and serves every later call."""
    check_cases(tmp_path, "unknown-command", "cohomology-rp2-z2-p2")
    assert cli._build_parser() is cli._build_parser()
