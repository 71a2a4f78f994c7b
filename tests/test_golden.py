"""Golden files: the exact bytes of CLI reports, artifacts and representatives.

``tests/golden/`` holds, byte for byte:

- ``fixtures/``: every file the ``fixtures`` subcommand writes;
- ``cli/<case>.stdout`` and ``cli/<case>.out``: the report and the
  ``--out`` artifact of each README command-line example;
- ``representatives.json``: cohomology generators and class coordinates
  on the torus and RP^2 nerves, and one canonical ``is_coboundary``
  witness per coefficient ring on the torus nerve.

Refactors of the solvers and the Smith layer must leave all of these
unchanged.  After an intended and declared output change, rewrite them
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from cechlift import fixtures
from cechlift.abelian import CIRCLE, QQ, CircleElement, FgAbelianGroup, GroupElement
from cechlift.cochains import Cochain, coboundary, cohomology_classes, is_coboundary
from cechlift.complexes import nerve

from conftest import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURE_SETS = ("circle", "delta3", "rp2", "torus")

#: (case name, CLI arguments, --out file name); run in this order, in
#: one directory, so ``curvature`` reads the package ``descent`` wrote.
CLI_CASES = (
    ("cohomology-rp2-z2-p2", ["cohomology", "rp2.cplx", "z2.grp", "-p", "2"], "h2.grp"),
    ("cohomology-torus-z-p1", ["cohomology", "torus.cov", "z.grp", "-p", "1"], "h1.grp"),
    ("obstruct-rp2", ["obstruct", "rp2.cov", "w1.trn", "z2-z4.ext"], "c.cochain"),
    ("tower-circle", ["tower", "circle.cov", "dbl.trn", "z2-z4.twr"], "circle.obs"),
    ("tower-rp2", ["tower", "rp2.cov", "w1.trn", "rp2_tower.twr"], "rp2.obs"),
    ("bockstein-rp2", ["bockstein", "w1.cochain", "z2z4z2.ses"], "b.cochain"),
    ("descent-circle", ["descent", "circle.cov", "theta.cochain"], "built.pkg"),
    ("curvature-built", ["curvature", "built.pkg"], "f.cochain"),
    ("holonomy-circle", ["holonomy", "flat_bundle.pkg", "hexcycle.chn"], "circle.val"),
    ("holonomy-torus", ["holonomy", "flat_gerbe.pkg", "torus_cycle.chn"], "torus.val"),
    (
        "cohomology-rp2-verify-full",
        ["cohomology", "rp2.cplx", "z2.grp", "-p", "2", "--verify", "full"],
        "h2full.grp",
    ),
)


def _write_fixtures(workdir):
    for name in FIXTURE_SETS:
        res = run_cli(["fixtures", name], workdir)
        assert res.returncode == 0, res.stderr
    return sorted(p.name for p in workdir.iterdir())


def cli_outputs(workdir):
    """(relative golden path, bytes) for every fixture and CLI case."""
    workdir = Path(workdir)
    out = [(f"fixtures/{name}", (workdir / name).read_bytes()) for name in _write_fixtures(workdir)]
    for case, args, artifact in CLI_CASES:
        res = run_cli([*args, "--out", artifact], workdir)
        assert res.returncode == 0, f"{case}: {res.stderr}"
        out.append((f"cli/{case}.stdout", res.stdout.encode()))
        out.append((f"cli/{case}.out", (workdir / artifact).read_bytes()))
    return out


# ---------------------------------------------------------------------------
# representatives
# ---------------------------------------------------------------------------

def _value(v):
    if isinstance(v, GroupElement):
        return ",".join(map(str, v.coords))
    if isinstance(v, CircleElement):
        return str(v.value)
    return str(v)


def _cochain(x):
    """One ``"simplex: value"`` string per support simplex, or None."""
    if x is None:
        return None
    return [f"{s}: {_value(v)}" for s, v in x.items()]


def _pattern(carrier, degree, group, make):
    """A fixed cochain: value make(i) on the i-th simplex of the degree."""
    simps = carrier.simplices_of_dim(degree)
    return Cochain(carrier, degree, group, {s: make(i) for i, s in enumerate(simps)})


def representatives():
    z, z2 = FgAbelianGroup((0,)), FgAbelianGroup((2,))
    _, torus_cov = fixtures.torus_product()
    torus = nerve(torus_cov)
    _, rp2 = fixtures.rp2_good_cover()
    out = {"cohomology": {}, "witnesses": {}}
    for label, carrier, group in (("torus/Z", torus, z), ("rp2/Z2", rp2, z2)):
        for p in (1, 2):
            classes = cohomology_classes(carrier, group, p)
            gens = classes.generators()
            # every generator once, plus the coboundary of a fixed pattern
            mixed = coboundary(
                _pattern(carrier, p - 1, group, lambda i: (i % 3 - 1,))
            )
            for g in gens:
                mixed = mixed + g
            out["cohomology"][f"{label}/H{p}"] = {
                "group": str(classes.group),
                "generators": [_cochain(g) for g in gens],
                "class_coords": [str(classes.class_coords(g)) for g in gens],
                "mixed": _cochain(mixed),
                "mixed_coords": str(classes.class_coords(mixed)),
            }
    rings = (
        ("Z", z, lambda i: (i % 5 - 2,)),
        ("Z2", z2, lambda i: (i % 2,)),
        ("Q", QQ, lambda i: Fraction(i % 7 - 3, 1 + i % 4)),
        ("QZ", CIRCLE, lambda i: CircleElement(Fraction(i % 5, 6))),
    )
    for ring, group, make in rings:
        x = coboundary(_pattern(torus, 1, group, make))
        out["witnesses"][ring] = {"cocycle": _cochain(x), "witness": _cochain(is_coboundary(x))}
    x, _ = fixtures.torus_nerve_generators(torus)
    out["witnesses"]["Z/non-coboundary"] = {"cocycle": _cochain(x), "witness": _cochain(is_coboundary(x))}
    return (json.dumps(out, indent=1, sort_keys=True) + "\n").encode()


# ---------------------------------------------------------------------------
# the tests
# ---------------------------------------------------------------------------

def test_cli_reports_and_artifacts_match_golden(tmp_path):
    outputs = cli_outputs(tmp_path)
    expected = sorted(
        p.relative_to(GOLDEN).as_posix()
        for sub in ("fixtures", "cli")
        for p in (GOLDEN / sub).iterdir()
    )
    assert sorted(rel for rel, _ in outputs) == expected
    differing = [rel for rel, data in outputs if (GOLDEN / rel).read_bytes() != data]
    assert not differing, f"output differs from tests/golden/ for {differing}"


def test_representatives_match_golden():
    assert representatives() == (GOLDEN / "representatives.json").read_bytes()


def _write_golden():
    for sub in ("fixtures", "cli"):
        (GOLDEN / sub).mkdir(parents=True, exist_ok=True)
        for old in (GOLDEN / sub).iterdir():
            old.unlink()
    with tempfile.TemporaryDirectory() as workdir:
        for rel, data in cli_outputs(workdir):
            (GOLDEN / rel).write_bytes(data)
    (GOLDEN / "representatives.json").write_bytes(representatives())


if __name__ == "__main__":
    _write_golden()
