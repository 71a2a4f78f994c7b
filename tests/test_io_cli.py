"""Container round-trips, CLI reports, determinism, exit codes."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cechlift
from cechlift import cli, fixtures, io
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

from conftest import cli_env, noncommutative_derived_extensions, run_cli


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
        obj = {"kind": "rational_cochain", "complex": _triangle([[0, 1, 2]]), "degree": 1,
               "values": [value, dict(value, num=1, den=3)]}
        with pytest.raises(FormatError, match=r"\(0, 1\) is given more than once"):
            io.rational_cochain_from_json(obj)

    def test_kind_mismatch(self, tmp_path, hexagon):
        path = tmp_path / "k.cplx"
        io.dump_json(io.complex_to_json(hexagon), path)
        from cechlift.errors import FormatError

        with pytest.raises(FormatError):
            io.load_typed(path, expect="cover")


def _triangle(simplices, vertices=3):
    return {"kind": "complex", "vertices": vertices, "simplices": simplices}


def _path_cover(n, pieces):
    """A cover of the path on n vertices with the given raw pieces."""
    return {
        "kind": "cover",
        "base": _triangle([[i, i + 1] for i in range(n - 1)], vertices=n),
        "pieces": pieces,
    }


#: case -> (raw JSON object, typed error the CLI must report)
BAD_FACES = {
    "string-vertex": (_triangle([["a", 1]]), "FormatError"),
    "float-vertex": (_triangle([[0, 1.5]]), "FormatError"),
    "bool-vertex": (_triangle([[True, 2]]), "FormatError"),
    "negative-vertex": (_triangle([[-1, 2]]), "FormatError"),
    "float-vertex-count": (_triangle([[0, 1]], vertices=1e9), "FormatError"),
    "string-vertex-count": (_triangle([[0, 1]], vertices="3"), "FormatError"),
    "simplices-not-lists": (_triangle([0, 1]), "FormatError"),
    "24-vertex-simplex-in-3-vertex-complex": (_triangle([list(range(24))]), "FormatError"),
    "repeated-vertex": (_triangle([[0, 1, 1]]), "DuplicateVertexInSimplex"),
    "22-vertex-simplex-without-vertex-count": (
        {"kind": "complex", "simplices": [list(range(22))]},
        "FormatError",
    ),
    "22-vertex-simplex-in-22-vertex-complex": (
        _triangle([list(range(22))], vertices=22),
        "FormatError",
    ),
    "string-in-cover-piece": (_path_cover(3, [[[0, "1"]], [[1, 2]]]), "FormatError"),
    "cover-vertex-out-of-range": (_path_cover(3, [[[0, 1]], [[1, 3]]]), "FormatError"),
    "cover-piece-outside-base": (
        _path_cover(20, [[list(range(20))]]),
        "InvalidCover",
    ),
}


def _ses(**changes):
    """The z2z4z2 sequence file with some entries replaced."""
    obj = {
        "kind": "ses",
        "A": {"moduli": [2]},
        "B": {"moduli": [4]},
        "C": {"moduli": [2]},
        "inject": [[2]],
        "project": [[1]],
    }
    obj.update(changes)
    return obj


def _z2_z4_extension(kernel):
    return {
        "kind": "extension",
        "base": {"kind": "finite_group", "order": 2, "identity": 0, "table": [[0, 1], [1, 0]]},
        "kernel": kernel,
        "factor_set": [[[0], [0]], [[0], [1]]],
    }


#: case -> (file name, raw JSON object, CLI arguments that load it)
BAD_ALGEBRA = {
    "ses-moduli-not-invariant": ("bad.ses", _ses(A={"moduli": [3, 2]}), ["bockstein", "w1.cochain"]),
    "ses-moduli-string": ("bad.ses", _ses(A={"moduli": ["x"]}), ["bockstein", "w1.cochain"]),
    "ses-group-not-an-object": ("bad.ses", _ses(A=2), ["bockstein", "w1.cochain"]),
    "ses-inject-wrong-width": ("bad.ses", _ses(inject=[[2, 0]]), ["bockstein", "w1.cochain"]),
    "ses-inject-not-a-matrix": ("bad.ses", _ses(inject=2), ["bockstein", "w1.cochain"]),
    "ses-inject-float": ("bad.ses", _ses(inject=[[2.5]]), ["bockstein", "w1.cochain"]),
    "group-float-modulus": (
        "bad.grp", {"kind": "group", "moduli": [2.7]}, ["cohomology", "rp2.cplx"]
    ),
    "extension-kernel-float-modulus": (
        "bad.ext", _z2_z4_extension({"moduli": [2.0]}), ["obstruct", "rp2.cov", "w1.trn"]
    ),
    "extension-kernel-not-invariant": (
        "bad.ext", _z2_z4_extension({"moduli": [3, 2]}), ["obstruct", "rp2.cov", "w1.trn"]
    ),
}


#: case -> (shipped fixture file, edit of its JSON, CLI arguments with "@" for the edited copy)
BAD_NUMBERS = {
    "transition-float-value": (
        "w1.trn", lambda o: o["edges"][0].update(g=1.7), ["obstruct", "rp2.cov", "@", "z2-z4.ext"]
    ),
    "transition-float-index": (
        "w1.trn", lambda o: o["edges"][0].update(i=0.0), ["obstruct", "rp2.cov", "@", "z2-z4.ext"]
    ),
    "transition-without-value": (
        "w1.trn", lambda o: o["edges"][0].pop("g"), ["obstruct", "rp2.cov", "@", "z2-z4.ext"]
    ),
    "fg-value-float": (
        "w1.cochain", lambda o: o["values"][0].update(value=[0.5]), ["bockstein", "@", "z2z4z2.ses"]
    ),
    "fg-value-wrong-rank": (
        "w1.cochain",
        lambda o: o["values"][0].update(value=[1, 0]),
        ["bockstein", "@", "z2z4z2.ses"],
    ),
    "circle-value-float-num": (
        "theta.cochain",
        lambda o: o["values"][0].update(value={"num": 1.5, "den": 3}),
        ["descent", "circle.cov", "@"],
    ),
    "circle-value-zero-den": (
        "theta.cochain",
        lambda o: o["values"][0].update(value={"num": 1, "den": 0}),
        ["descent", "circle.cov", "@"],
    ),
    "chain-float-coeff": (
        "hexcycle.chn",
        lambda o: o["cells"][0].update(coeff=1.5),
        ["holonomy", "flat_bundle.pkg", "@"],
    ),
}

# Edits of the shipped fixtures whose structure (not a number value) is
# malformed: every one must be a FormatError, never a traceback or exit 0.
BAD_STRUCTURE = {
    "cochain-float-degree": (
        "w1.cochain", lambda o: o.update(degree=1.5), ["bockstein", "@", "z2z4z2.ses"]
    ),
    "cochain-value-without-indices": (
        "w1.cochain", lambda o: o["values"][0].pop("indices"), ["bockstein", "@", "z2z4z2.ses"]
    ),
    "transitions-edges-not-a-list": (
        "w1.trn", lambda o: o.update(edges=5), ["obstruct", "rp2.cov", "@", "z2-z4.ext"]
    ),
    "tower-transitions-of-another-kind": (
        "dbl.trn", lambda o: o.update(kind="chain"), ["tower", "circle.cov", "@", "z2-z4.twr"]
    ),
    "factor-set-float-entry": (
        "z2-z4.ext",
        lambda o: o["factor_set"][1].__setitem__(1, [0.5]),
        ["obstruct", "rp2.cov", "w1.trn", "@"],
    ),
    "factor-set-missing-row": (
        "z2-z4.ext", lambda o: o["factor_set"].pop(), ["obstruct", "rp2.cov", "w1.trn", "@"]
    ),
    "group-table-float-entry": (
        "z2-z4.ext",
        lambda o: o["base"]["table"][1].__setitem__(1, 0.0),
        ["obstruct", "rp2.cov", "w1.trn", "@"],
    ),
    # an identity outside range(order) is refused before any table lookup
    "group-identity-past-the-order": (
        "z2-z4.ext", lambda o: o["base"].update(identity=2), ["obstruct", "rp2.cov", "w1.trn", "@"]
    ),
    "group-identity-huge": (
        "z2-z4.ext",
        lambda o: o["base"].update(identity=2**70),
        ["obstruct", "rp2.cov", "w1.trn", "@"],
    ),
    "group-identity-negative": (
        "z2-z4.ext",
        lambda o: o["base"].update(identity=-1, table=[[1, 0], [0, 1]]),
        ["obstruct", "rp2.cov", "w1.trn", "@"],
    ),
    "group-of-order-zero": (
        "z2-z4.ext",
        lambda o: o.update(base={"kind": "finite_group", "identity": 0, "table": []}, factor_set=[]),
        ["obstruct", "rp2.cov", "w1.trn", "@"],
    ),
    "package-float-degree": (
        "flat_bundle.pkg", lambda o: o.update(degree=1.0), ["holonomy", "@", "hexcycle.chn"]
    ),
    "package-layer-without-cech-degree": (
        "flat_bundle.pkg",
        lambda o: o["layers"][0].pop("cech_degree"),
        ["holonomy", "@", "hexcycle.chn"],
    ),
    "chain-float-degree": (
        "hexcycle.chn", lambda o: o.update(degree=1.0), ["holonomy", "flat_bundle.pkg", "@"]
    ),
    # a key given twice is refused, not silently overwritten by the later entry
    "cochain-repeated-indices": (
        "theta.cochain",
        lambda o: o["values"].append({"indices": [0, 1], "value": {"num": 1, "den": 5}}),
        ["descent", "circle.cov", "@"],
    ),
    "chain-repeated-cell": (
        "hexcycle.chn",
        lambda o: o["cells"].append({"simplex": [0, 1], "coeff": 2}),
        ["holonomy", "flat_bundle.pkg", "@"],
    ),
    "transitions-repeated-edge": (
        "w1.trn",
        lambda o: o["edges"].append({"i": 0, "j": 1, "g": 0}),
        ["obstruct", "rp2.cov", "@", "z2-z4.ext"],
    ),
    "package-repeated-layer": (
        "flat_bundle.pkg",
        lambda o: o["layers"].append(o["layers"][0]),
        ["holonomy", "@", "hexcycle.chn"],
    ),
    "package-repeated-block": (
        "flat_bundle.pkg",
        lambda o: o["layers"][0]["values"].extend([
            {"indices": [0], "cochain": [{"simplex": [0, 1], "value": {"num": 1, "den": 2}}]},
            {"indices": [0], "cochain": []},
        ]),
        ["holonomy", "@", "hexcycle.chn"],
    ),
    "package-repeated-cell": (
        "flat_bundle.pkg",
        lambda o: o["layers"][0]["values"].append({"indices": [0], "cochain": [
            {"simplex": [0, 1], "value": {"num": 1, "den": 2}},
            {"simplex": [0, 1], "value": {"num": 0, "den": 1}},
        ]}),
        ["holonomy", "@", "hexcycle.chn"],
    ),
}

#: An empty tower, as a bare list and as an object: ``tower circle.cov dbl.trn`` on each.
EMPTY_TOWERS = {"bare-list": [], "object": {"kind": "tower", "extensions": []}}


def _main_in(workdir, args, capsys, monkeypatch):
    """Run ``cli.main(args)`` in this process from `workdir`, capturing its output.

    An exception that escapes ``main`` fails the calling test with its
    traceback; the result has the fields of a finished child process.
    """
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    code = cli.main(args)
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


def _run_on_edited_fixture(workdir, case, source, edit, args, capsys, monkeypatch):
    """Run the CLI in process with ``@`` replaced by an edited copy of a shipped fixture."""
    obj = io.load_json(os.path.join(workdir, source))
    edit(obj)
    path = os.path.join(workdir, f"{case}-{source}")
    io.dump_json(obj, path)
    return _main_in(workdir, [path if a == "@" else a for a in args], capsys, monkeypatch)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    # the child must test this checkout, not an installed or stale copy
    where = subprocess.run(
        [sys.executable, "-c", "import cechlift; print(cechlift.__file__)"],
        capture_output=True,
        text=True,
        cwd=d,
        env=cli_env(),
    )
    assert where.returncode == 0, where.stderr
    assert Path(where.stdout.strip()).resolve() == Path(cechlift.__file__).resolve()
    for name in ("circle", "rp2", "torus", "delta3"):
        res = run_cli(["fixtures", name], d)
        assert res.returncode == 0, res.stderr
    # a degree-1 circle cochain with no values, a cocycle on every nerve
    zero = {"kind": "cochain", "degree": 1, "coefficients": io.group_to_json(CIRCLE), "values": []}
    io.dump_json(zero, os.path.join(d, "zero1.cochain"))
    return d


class TestCLI:
    def test_cohomology_example(self, workdir):
        res = run_cli(["cohomology", "rp2.cplx", "z2.grp", "-p", "2"], workdir)
        assert res.returncode == 0, res.stderr
        assert "H^2 = Z/2" in res.stdout

    def test_tower_example(self, workdir):
        res = run_cli(["tower", "circle.cov", "dbl.trn", "z2-z4.twr"], workdir)
        assert res.returncode == 0, res.stderr
        assert "LiftedTo(1), classes: [0]" in res.stdout

    def test_holonomy_example(self, workdir):
        res = run_cli(["holonomy", "flat_bundle.pkg", "hexcycle.chn"], workdir)
        assert res.returncode == 0, res.stderr
        assert "holonomy = 1/3 (mod 1)" in res.stdout

    def test_determinism_byte_identical(self, workdir):
        cases = [
            ["cohomology", "rp2.cplx", "z2.grp", "-p", "2"],
            ["tower", "circle.cov", "dbl.trn", "z2-z4.twr"],
            ["holonomy", "flat_bundle.pkg", "hexcycle.chn"],
            ["obstruct", "rp2.cov", "w1.trn", "z2-z4.ext"],
            ["cohomology", "torus.cov", "z.grp", "-p", "2"],
        ]
        for args in cases:
            first = run_cli(args, workdir)
            second = run_cli(args, workdir)
            assert first.returncode == second.returncode == 0, (
                first.stderr + second.stderr
            )
            assert first.stdout == second.stdout

    def test_obstruct_rp2(self, workdir):
        res = run_cli(["obstruct", "rp2.cov", "w1.trn", "z2-z4.ext"], workdir)
        assert res.returncode == 0, res.stderr
        assert "class: 1" in res.stdout
        assert "liftable: no" in res.stdout

    def test_tower_rp2_blocked(self, workdir):
        res = run_cli(["tower", "rp2.cov", "w1.trn", "rp2_tower.twr"], workdir)
        assert res.returncode == 0, res.stderr
        assert "BlockedAt(1)" in res.stdout

    def test_bockstein(self, workdir):
        res = run_cli(["bockstein", "w1.cochain", "z2z4z2.ses"], workdir)
        assert res.returncode == 0, res.stderr
        assert "class: 1" in res.stdout

    def test_descent_curvature_pipeline(self, workdir):
        res = run_cli(
            ["descent", "circle.cov", "theta.cochain", "--out", "built.pkg"], workdir
        )
        assert res.returncode == 0, res.stderr
        res2 = run_cli(["curvature", "built.pkg"], workdir)
        assert res2.returncode == 0, res2.stderr
        assert "closed (D F = 0): yes" in res2.stdout

    def test_torus_cech_cohomology(self, workdir):
        res = run_cli(["cohomology", "torus.cov", "z.grp", "-p", "1"], workdir)
        assert res.returncode == 0, res.stderr
        assert "H^1 = Z + Z" in res.stdout

    def test_artifact_roundtrip(self, workdir):
        res = run_cli(
            ["obstruct", "rp2.cov", "w1.trn", "z2-z4.ext", "--out", "c2.cochain"],
            workdir,
        )
        assert res.returncode == 0, res.stderr
        x, _ = io.cochain_from_json(io.load_json(os.path.join(workdir, "c2.cochain")))
        assert x.degree == 2
        res2 = run_cli(
            ["holonomy", "flat_bundle.pkg", "hexcycle.chn", "--out", "h.val"], workdir
        )
        assert res2.returncode == 0, res2.stderr
        v = io.load_typed(os.path.join(workdir, "h.val"))
        assert v.value == Fraction(1, 3)

    def test_usage_error_exit_2(self, workdir):
        res = run_cli(["cohomology", "missing.cplx", "z.grp", "-p", "1"], workdir)
        assert res.returncode == 2
        assert "not found" in res.stderr
        res2 = run_cli(["nonsense"], workdir)
        assert res2.returncode == 2

    def test_domain_error_exit_1(self, workdir, tmp_path):
        # a goodness failure surfaces as a domain error with exit 1
        res = run_cli(
            ["descent", "delta3_star.cov", "theta.cochain"], workdir
        )
        assert res.returncode == 1
        assert "error [CoverNotGood]:" in res.stderr
        assert "Traceback" not in res.stderr

    def test_cover_not_good_names_its_witnesses(self, workdir):
        res = run_cli(["descent", "delta3_star.cov", "theta.cochain"], workdir)
        assert res.returncode == 1
        assert res.stderr == (
            "error [CoverNotGood]: cover is not good (11 non-acyclic intersections): "
            "(0, 1) H^1=Z, (0, 1, 2) H^1=Z + Z, (0, 1, 2, 3) H^1=Z + Z + Z, "
            "(0, 1, 3) H^1=Z + Z\n"
        )
        assert "FgAbelianGroup(" not in res.stderr
        assert "Traceback" not in res.stderr
        # the report line renders the same failures the same way
        res2 = run_cli(["cohomology", "delta3_star.cov", "z.grp", "-p", "1"], workdir)
        assert res2.returncode == 0, res2.stderr
        assert (
            "good cover: NO ((0, 1) H^1=Z, (0, 1, 2) H^1=Z + Z, "
            "(0, 1, 2, 3) H^1=Z + Z + Z, (0, 1, 3) H^1=Z + Z)\n"
        ) in res2.stdout

    def test_goodness_degree_cannot_be_lowered(self, workdir):
        """Goodness is checked in every degree; no option can lower it."""
        res = run_cli(["descent", "delta3_star.cov", "zero1.cochain", "--max-check-degree", "0"], workdir)
        assert res.returncode == 2, res.stdout
        res = run_cli(["descent", "delta3_star.cov", "zero1.cochain"], workdir)
        assert res.returncode == 1, res.stdout
        assert res.stderr.startswith("error [CoverNotGood]:")

    def test_descent_reports_the_goodness_it_enforces(self, workdir):
        """descent prints the goodness line cohomology prints for the same cover."""
        res = run_cli(["descent", "torus.cov", "zero1.cochain"], workdir)
        assert res.returncode == 0, res.stderr
        res2 = run_cli(["cohomology", "torus.cov", "z.grp", "-p", "1"], workdir)
        assert res2.returncode == 0, res2.stderr
        line = "good cover: yes (acyclic intersections up to degree 3)\n"
        assert line in res.stdout and line in res2.stdout

    def test_malformed_json_exit_1(self, workdir):
        bad = os.path.join(workdir, "bad.cplx")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        res = run_cli(["cohomology", "bad.cplx", "z.grp", "-p", "1"], workdir)
        assert res.returncode == 1
        assert "error [FormatError]:" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("case", sorted(BAD_FACES))
    def test_bad_faces_are_refused_before_closure(self, workdir, case):
        """Each raw face is checked before the downward closure is taken."""
        obj, error = BAD_FACES[case]
        name = f"{case}.{'cov' if obj['kind'] == 'cover' else 'cplx'}"
        io.dump_json(obj, os.path.join(workdir, name))
        res = run_cli(["cohomology", name, "z.grp", "-p", "1"], workdir, timeout=20)
        assert res.returncode == 1, res.stderr
        assert f"error [{error}]:" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("case", sorted(BAD_ALGEBRA))
    def test_malformed_algebra_is_a_format_error(self, workdir, case, capsys, monkeypatch):
        """Moduli and sequence matrices must be JSON integers forming valid maps."""
        name, obj, args = BAD_ALGEBRA[case]
        path = os.path.join(workdir, f"{case}-{name}")
        io.dump_json(obj, path)
        extra = ["-p", "1"] if args[0] == "cohomology" else []
        res = _main_in(workdir, [*args, path, *extra], capsys, monkeypatch)
        assert res.returncode == 1, (res.stdout, res.stderr)
        assert "error [FormatError]:" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
    def test_non_integer_numbers_are_a_format_error(self, workdir, case, capsys, monkeypatch):
        """Transitions, fg and circle values and chain coefficients must be JSON integers."""
        res = _run_on_edited_fixture(workdir, case, *BAD_NUMBERS[case], capsys, monkeypatch)
        assert res.returncode == 1, (res.stdout, res.stderr)
        assert "error [FormatError]:" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("case", sorted(BAD_STRUCTURE))
    def test_malformed_structure_is_a_format_error(self, workdir, case, capsys, monkeypatch):
        """Degrees, list shapes, required and repeated keys, factor sets and group tables."""
        res = _run_on_edited_fixture(workdir, case, *BAD_STRUCTURE[case], capsys, monkeypatch)
        assert res.returncode == 1, (res.stdout, res.stderr)
        assert "error [FormatError]:" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("case", sorted(EMPTY_TOWERS))
    def test_empty_tower_is_a_format_error(self, workdir, case, capsys, monkeypatch):
        path = os.path.join(workdir, f"empty-{case}.twr")
        io.dump_json(EMPTY_TOWERS[case], path)
        res = _main_in(workdir, ["tower", "circle.cov", "dbl.trn", path], capsys, monkeypatch)
        assert res.returncode == 1, (res.stdout, res.stderr)
        assert "error [FormatError]:" in res.stderr
        assert "Traceback" not in res.stderr

    def test_verify_full_mode(self, workdir):
        res = run_cli(
            ["cohomology", "rp2.cplx", "z2.grp", "-p", "2", "--verify", "full"], workdir
        )
        assert res.returncode == 0, res.stderr
        assert "H^2 = Z/2" in res.stdout

    def test_fixture_determinism(self, workdir, tmp_path_factory):
        d1 = tmp_path_factory.mktemp("fx1")
        d2 = tmp_path_factory.mktemp("fx2")
        for d in (d1, d2):
            res = run_cli(["fixtures", "circle"], d)
            assert res.returncode == 0, res.stderr
        for name in os.listdir(d1):
            with open(os.path.join(d1, name), "rb") as f1, open(
                os.path.join(d2, name), "rb"
            ) as f2:
                assert f1.read() == f2.read()


@pytest.fixture(scope="module")
def command_results(workdir):
    """Each command's (arguments, artifact) on the shipped fixtures, the
    artifact built by the library and ``io`` without the CLI."""
    def load(name, kind):
        return io.load_container(os.path.join(workdir, name), kind)

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
def test_main_writes_the_artifact_io_builds(
    workdir, command_results, command, capsys, monkeypatch
):
    """``--out`` holds the io format of the command's result; without it nothing is written."""
    args, artifact = command_results[command]
    out = f"skeleton-{command}.out"
    expected = f"skeleton-{command}.expected"
    io.dump_json(artifact, os.path.join(workdir, expected))
    bare = _main_in(workdir, args, capsys, monkeypatch)
    assert bare.returncode == 0, bare.stderr
    assert not os.path.exists(os.path.join(workdir, out))
    res = _main_in(workdir, [*args, "--out", out], capsys, monkeypatch)
    assert res.returncode == 0, res.stderr
    assert res.stdout == bare.stdout + f"wrote: {out}\n"
    with open(os.path.join(workdir, out), "rb") as got, open(
        os.path.join(workdir, expected), "rb"
    ) as want:
        assert got.read() == want.read()


def test_curvature_artifact_reparses_to_the_curvature(workdir, capsys, monkeypatch):
    res = _main_in(
        workdir, ["curvature", "flat_bundle.pkg", "--out", "skeleton-f.cochain"], capsys, monkeypatch
    )
    assert res.returncode == 0, res.stderr
    pkg = io.load_typed(os.path.join(workdir, "flat_bundle.pkg"), expect="package")
    f = io.load_typed(os.path.join(workdir, "skeleton-f.cochain"), expect="rational_cochain")
    assert f == curvature(pkg) and f.carrier == pkg.cover.base


@pytest.mark.parametrize(
    "args, code, error",
    [
        (["descent", "delta3_star.cov", "theta.cochain"], 1, "error [CoverNotGood]: "),
        (["descent", "missing.cov", "theta.cochain"], 2, "usage error: input file not found"),
    ],
    ids=["domain", "usage"],
)
def test_a_failing_command_prints_no_report_and_writes_no_artifact(
    workdir, args, code, error, capsys, monkeypatch
):
    out = os.path.join(workdir, f"skeleton-failed-{code}.pkg")
    res = _main_in(workdir, [*args, "--out", out], capsys, monkeypatch)
    assert res.returncode == code
    assert res.stdout == ""
    assert res.stderr.startswith(error)
    assert not os.path.exists(out)


def _degree_zero(o):
    """Degree 0, with the classifying cocycle 1/3 on every piece: a constant
    0-cochain, so a cocycle."""
    third = {"num": 1, "den": 3}
    o["degree"] = 0
    o["cocycle"].update(
        degree=0, values=[{"indices": [i], "value": third} for i in range(len(o["cover"]["pieces"]))]
    )


#: Edits of ``flat_bundle.pkg`` whose classifying degree or layers do not
#: fit, with the DegreeMismatch message each must give.
BAD_PACKAGE_DEGREES = {
    "degree-0": (_degree_zero, "packages need classifying degree >= 1"),
    "layer-3": (
        lambda o: o["layers"].append({"cech_degree": 3, "form_degree": 0, "values": []}),
        "layer 3 is outside 0..0",
    ),
}


@pytest.mark.parametrize("command", ["curvature", "holonomy"])
@pytest.mark.parametrize("case", sorted(BAD_PACKAGE_DEGREES))
def test_a_package_degree_or_layer_out_of_range_is_a_degree_mismatch(
    workdir, case, command, capsys, monkeypatch
):
    edit, message = BAD_PACKAGE_DEGREES[case]
    args = [command, "@", "hexcycle.chn"] if command == "holonomy" else [command, "@"]
    res = _run_on_edited_fixture(workdir, case, "flat_bundle.pkg", edit, args, capsys, monkeypatch)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == f"error [DegreeMismatch]: {message}\n"


def test_a_chain_that_is_not_a_cycle_has_no_holonomy(workdir, capsys, monkeypatch):
    """The hexagon cycle less one edge is a path: holonomy refuses it, so no
    report (and no "boundary zero" line) is printed."""
    res = _run_on_edited_fixture(
        workdir, "open-path", "hexcycle.chn", lambda o: o["cells"].pop(),
        ["holonomy", "flat_bundle.pkg", "@"], capsys, monkeypatch,
    )
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == "error [NoFundamentalCycle]: chain is not a cycle\n"


@pytest.mark.parametrize(
    "args, code, error",
    [
        (
            ["cohomology", "rp2.cplx", "z2.grp", "-p", "2", "--out", "nodir/h.grp"], 2,
            "usage error: nodir/h.grp: No such file or directory\n",
        ),
        (
            ["cohomology", "rp2.cplx", "adir.grp", "-p", "2", "--out", "h.grp"], 2,
            "usage error: adir.grp: Is a directory\n",
        ),
        (
            ["fixtures", "rp2", "--out", "rp2.cplx"], 2,
            "usage error: rp2.cplx: File exists\n",
        ),
        (
            ["cohomology", "latin1.cplx", "z2.grp", "-p", "2", "--out", "h.grp"], 1,
            "error [FormatError]: latin1.cplx: invalid JSON ('utf-8' codec can't decode",
        ),
        (
            ["cohomology", "deep.cplx", "z2.grp", "-p", "2", "--out", "h.grp"], 1,
            "error [FormatError]: deep.cplx: invalid JSON (maximum recursion depth exceeded",
        ),
    ],
    ids=["out-dir-missing", "input-is-a-directory", "fixtures-out-is-a-file", "not-utf-8", "too-deep"],
)
def test_an_unusable_path_or_undecodable_file_is_reported_without_a_traceback(
    tmp_path, args, code, error, capsys, monkeypatch
):
    """A path that cannot be read or written is a usage error, a file that
    is not UTF-8 or nests too deeply a format error; neither prints a
    report or creates a file."""
    golden = Path(__file__).resolve().parent / "golden" / "fixtures"
    for name in ("rp2.cplx", "z2.grp"):
        (tmp_path / name).write_bytes((golden / name).read_bytes())
    (tmp_path / "adir.grp").mkdir()
    (tmp_path / "latin1.cplx").write_bytes('{"kind": "complex", "simplices": "\xe9"}'.encode("latin-1"))
    (tmp_path / "deep.cplx").write_text("[" * 200_000)
    before = sorted(p.name for p in tmp_path.iterdir())
    res = _main_in(tmp_path, args, capsys, monkeypatch)
    assert (res.returncode, res.stdout) == (code, "")
    assert res.stderr.startswith(error), res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "blocked, error",
    [
        ("rp2.cplx", "usage error: d/rp2.cplx: Is a directory\n"),
        ("z2.grp.tmp", "usage error: d/z2.grp.tmp: Is a directory\n"),
    ],
    ids=["target-is-a-directory", "temporary-is-a-directory"],
)
def test_fixtures_that_cannot_write_one_file_write_none(tmp_path, blocked, error, capsys, monkeypatch):
    """A fixtures run that cannot write one of its files, found before the
    first write or while the temporaries are written, creates no file and
    removes none it did not write, a later file's ``.tmp`` name included."""
    (tmp_path / "d" / blocked).mkdir(parents=True)
    (tmp_path / "d" / "z2z4z2.ses.tmp").write_text("kept")
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    res = _main_in(tmp_path, ["fixtures", "rp2", "--out", "d"], capsys, monkeypatch)
    assert (res.returncode, res.stdout, res.stderr) == (2, "", error)
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
    assert (tmp_path / "d" / "z2z4z2.ses.tmp").read_text() == "kept"


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


def _fan_cover(n):
    """The fan of edges (0, i), 1 <= i <= n, with one piece per edge."""
    base = {"kind": "complex", "simplices": [[0, i] for i in range(1, n + 1)]}
    return {"kind": "cover", "base": base, "pieces": [[[0, i]] for i in range(1, n + 1)]}


def _cone_star_cover(n):
    """The star cover of the cone over an n-gon: 1 + n pieces at the apex."""
    faces = [[0, i, i % n + 1] for i in range(1, n + 1)]
    return {"kind": "cover", "base": {"kind": "complex", "simplices": faces}, "star_cover": True}


def _arc_cover(m, pieces, a):
    """The m-cycle covered by itself and pieces - 1 copies of its arc a..m-1."""
    base = {"kind": "complex", "simplices": [[i, (i + 1) % m] for i in range(m)]}
    arc = [[i, i + 1] for i in range(a, m - 1)]
    return {"kind": "cover", "base": base, "pieces": [base["simplices"], *[arc] * (pieces - 1)]}


def _simplex_cover(pieces, n):
    """The n-vertex simplex covered by ``pieces`` copies of itself."""
    base = {"kind": "complex", "simplices": [list(range(n))]}
    return {"kind": "cover", "base": base, "pieces": [base["simplices"]] * pieces}


def _star_simplex(n):
    """The star cover of the n-vertex simplex."""
    return {"kind": "cover", "base": {"kind": "complex", "simplices": [list(range(n))]}, "star_cover": True}


def _limit(listed):
    return io.BUDGET_FLOOR + io.BUDGET_PER_ID * listed


def _closure_refusal(n, ids):
    return (
        f"complex simplices: closing the faces may build {2**n - 1} simplices, over the limit "
        f"{_limit(ids)} for {ids} listed vertex ids; the largest face {tuple(range(n))} has "
        f"{n} vertices"
    )


def _pieces_refusal(pieces, n):
    return (
        f"cover pieces: closing the faces may build {pieces * (2**n - 1)} simplices, over the "
        f"limit {_limit(pieces * n)} for {pieces * n} listed vertex ids; the largest face "
        f"{tuple(range(n))} has {n} vertices"
    )


def _nerve_refusal(built, ids, simplex, pieces):
    return (
        f"cover: the nerve's intersections may hold {built} simplices, over the limit "
        f"{_limit(ids)} for {ids} listed vertex ids; simplex {simplex} lies in {pieces} pieces"
    )


#: case -> (file, the step that refuses it, the error it names)
BLOW_UPS = {
    "10-pieces-of-a-12-simplex": (_simplex_cover(10, 12), "pieces", _pieces_refusal(10, 12)),
    "11-pieces-of-a-14-simplex": (_simplex_cover(11, 14), "pieces", _pieces_refusal(11, 14)),
    "30-pieces-of-a-14-simplex": (_simplex_cover(30, 14), "pieces", _pieces_refusal(30, 14)),
    "30-pieces-of-a-17-simplex": (_simplex_cover(30, 17), "complex", _closure_refusal(17, 17)),
    "16-simplex": (
        {"kind": "complex", "simplices": [list(range(16))]}, "complex", _closure_refusal(16, 16),
    ),
    "star-cover-of-a-16-simplex": (_star_simplex(16), "complex", _closure_refusal(16, 16)),
}

#: the steps that build, in the order a cover file is loaded and used
_STEPS = ("complex", "pieces", "nerve")


def _cohomology_of(obj, tmp_path, capsys, monkeypatch):
    """(`cohomology -p 1` on the file ``obj``, the building steps it ran)."""
    steps = []

    def record(step, fn):
        def recorded(*args, **kwargs):
            steps.append(step)
            return fn(*args, **kwargs)
        return recorded

    monkeypatch.setattr(io, "validate_complex", record("complex", io.validate_complex))
    monkeypatch.setattr(io, "star_cover", record("pieces", io.star_cover))
    monkeypatch.setattr(io, "downward_closure", record("pieces", io.downward_closure))
    monkeypatch.setattr(cli, "nerve", record("nerve", cli.nerve))
    io.dump_json(obj, tmp_path / "in.json")
    io.dump_json(io.group_to_json(FgAbelianGroup((0,))), tmp_path / "z.grp")
    res = _main_in(tmp_path, ["cohomology", "in.json", "z.grp", "-p", "1"], capsys, monkeypatch)
    return res, set(steps)


@pytest.mark.parametrize("case", list(BLOW_UPS))
def test_blow_ups_are_refused_before_their_costly_step(tmp_path, capsys, monkeypatch, case):
    """A file whose closure or pieces would blow up exits 1 with a
    FormatError naming its largest face, before that step runs."""
    obj, step, message = BLOW_UPS[case]
    res, steps = _cohomology_of(obj, tmp_path, capsys, monkeypatch)
    assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error [FormatError]: {message}\n")
    assert steps <= set(_STEPS[: _STEPS.index(step)])


@pytest.mark.parametrize(
    "obj, message",
    [
        (
            {"kind": "complex", "simplices": [list(range(5000))]},
            f"complex simplices: closing the faces may build at least 2^4999 simplices, over the "
            f"limit {_limit(5000)} for 5000 listed vertex ids; the largest face {tuple(range(5000))} "
            f"has 5000 vertices",
        ),
        (
            _simplex_cover(5000, 1),
            _nerve_refusal("at least 2^4999", 5001, (0,), 5000),
        ),
    ],
    ids=["closure", "nerve"],
)
def test_a_count_past_the_digit_limit_is_named_by_its_bits(tmp_path, capsys, monkeypatch, obj, message):
    """str() refuses ints of more than 4,300 digits; the refusal still names
    the count, by a lower bound, without a traceback."""
    io.dump_json(obj, tmp_path / "big.json")
    io.dump_json(io.group_to_json(FgAbelianGroup((0,))), tmp_path / "z.grp")
    res = _main_in(tmp_path, ["cohomology", "big.json", "z.grp", "-p", "0"], capsys, monkeypatch)
    assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error [FormatError]: {message}\n")


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


@pytest.mark.parametrize(
    "cover, message",
    [
        (_fan_cover(16), _nerve_refusal(2**16 - 1 + 32, 64, (0,), 16)),
        (_cone_star_cover(16), _nerve_refusal(2**17 - 1 + 16 * (2 * 15 + 2 * 7), 48, (0,), 17)),
        # one more edge in each repeated arc than at the limit
        (_arc_cover(125, 9, 101), _nerve_refusal(203 + 47 * (2**9 - 1), 868, (101,), 9)),
    ],
    ids=["fan", "star-cone", "one-past-the-limit"],
)
def test_nerve_size_is_bounded_where_covers_are_read(tmp_path, capsys, monkeypatch, cover, message):
    """A cover whose nerve's intersections would hold more simplices than
    the budget for the ids it lists exits 1 with a FormatError naming the
    simplex in the most pieces, before any nerve is built."""
    res, steps = _cohomology_of(cover, tmp_path, capsys, monkeypatch)
    assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error [FormatError]: {message}\n")
    assert "nerve" not in steps


def test_a_cover_at_the_nerve_limit_runs(tmp_path, capsys, monkeypatch):
    """The 125-cycle and 8 copies of its arc 102..124: the 45 simplices of
    the arc lie in 9 pieces and the other 205 in one, so the nerve's
    intersections hold the limit itself for the 852 vertex ids the file
    lists."""
    assert 205 + 45 * (2**9 - 1) == _limit(2 * 125 + 2 * 125 + 8 * 2 * 22)
    io.dump_json(_arc_cover(125, 9, 102), tmp_path / "limit.cov")
    io.dump_json(io.group_to_json(FgAbelianGroup((0,))), tmp_path / "z.grp")
    res = _main_in(tmp_path, ["cohomology", "limit.cov", "z.grp", "-p", "1"], capsys, monkeypatch)
    assert res.returncode == 0, res.stderr
    assert "nerve: [9, 36, 84, 126, 126, 84, 36, 9, 1]\n" in res.stdout
    assert res.stdout.endswith("H^1 = 0\n")


def test_a_noncommutative_derived_quotient_is_a_domain_error(workdir, capsys, monkeypatch):
    path = os.path.join(workdir, "noncommutative.twr")
    extensions = [io.extension_to_json(e) for e in noncommutative_derived_extensions()]
    io.dump_json({"kind": "tower", "extensions": extensions}, path)
    res = _main_in(workdir, ["tower", "circle.cov", "dbl.trn", path], capsys, monkeypatch)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == (
        "error [NotAbelian]: derived quotient at level 1 is not commutative\n"
    )


def test_verify_full_checks_only_during_its_command(tmp_path, monkeypatch):
    """--verify full turns the Smith re-check on for one command, then off."""
    from cechlift import abelian, cli, kernels

    real = kernels.snf_with_transforms

    def corrupted(rows, ncols):
        fac = real(rows, ncols)
        if fac.diag:
            fac.diag = [fac.diag[0] + 1, *fac.diag[1:]]
        return fac

    io.dump_json(io.complex_to_json(fixtures.rp2_minimal()), tmp_path / "rp2.cplx")
    io.dump_json(io.group_to_json(FgAbelianGroup((2,))), tmp_path / "z2.grp")
    monkeypatch.setattr(kernels, "snf_with_transforms", corrupted)
    argv = [str(tmp_path / "rp2.cplx"), str(tmp_path / "z2.grp"), "-p", "2"]
    with pytest.raises(AssertionError, match="SNF product check failed"):
        cli.main(["cohomology", *argv, "--verify", "full"])
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


def test_main_runs_again_after_a_usage_error(tmp_path, monkeypatch, capsys):
    """The parser is built once per process and serves every later call."""
    golden = Path(__file__).resolve().parent / "golden"
    for name in ("rp2.cplx", "z2.grp"):
        (tmp_path / name).write_bytes((golden / "fixtures" / name).read_bytes())
    assert _main_in(tmp_path, ["nonsense"], capsys, monkeypatch).returncode == 2
    res = _main_in(
        tmp_path, ["cohomology", "rp2.cplx", "z2.grp", "-p", "2", "--out", "h2.grp"],
        capsys, monkeypatch,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == (golden / "cli" / "cohomology-rp2-z2-p2.stdout").read_text()
    assert (tmp_path / "h2.grp").read_bytes() == (
        golden / "cli" / "cohomology-rp2-z2-p2.out"
    ).read_bytes()
    assert cli._build_parser() is cli._build_parser()
