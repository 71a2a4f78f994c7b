"""Golden files: the exact bytes of CLI reports, artifacts and representatives.

``tests/golden/`` holds, byte for byte:

- ``fixtures/``: every file the ``fixtures`` subcommand writes;
- ``cli/<case>.stdout`` and ``cli/<case>.out``: the report and the
  ``--out`` artifact of each README command-line example and a few more
  runs;
- ``representatives.json``: cohomology generators and class coordinates
  on the torus and RP^2 nerves, and one canonical ``is_coboundary``
  witness per coefficient ring on the torus nerve.

The cases of ``tests/cli_cases.py`` compare the first two in the test
process; the test here runs them again in a second interpreter.
Refactors of the solvers and the Smith layer must leave all of these
unchanged.  After an intended and declared output change, rewrite them
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import cechlift
from cechlift import fixtures
from cechlift.abelian import CIRCLE, QQ, CircleElement, FgAbelianGroup, GroupElement
from cechlift.cochains import Cochain, coboundary, cohomology_classes, is_coboundary
from cechlift.complexes import nerve

from cli_cases import CASES, GOLDEN, Golden, run


def cli_env():
    """Environment in which a child run in another directory imports the
    `cechlift` under test: its directory first, then the inherited
    PYTHONPATH entries, each made absolute."""
    env = dict(os.environ)
    root = str(Path(cechlift.__file__).resolve().parents[1])
    inherited = [
        os.path.abspath(p)
        for p in env.get("PYTHONPATH", "").split(os.pathsep)
        if p
    ]
    env["PYTHONPATH"] = os.pathsep.join([root, *inherited])
    return env


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
    """Every golden CLI file is read by a case, and every case that reads
    one gives its bytes in a second interpreter, which imports this
    checkout's ``cechlift``."""
    read = {
        g for case in CASES.values() for g in (case.stdout, *case.artifacts.values())
        if isinstance(g, Golden)
    }
    assert read == {
        p.relative_to(GOLDEN).as_posix() for sub in ("fixtures", "cli") for p in (GOLDEN / sub).iterdir()
    }
    res = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("cli_cases.py"))],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env(),
    )
    assert (res.returncode, res.stderr) == (0, "")
    assert Path(res.stdout.strip()) == Path(cechlift.__file__).resolve()


def test_representatives_match_golden():
    assert representatives() == (GOLDEN / "representatives.json").read_bytes()


def _write_golden():
    """Rewrite every golden file from the cases that read one, in table order."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in CASES.items():
            if not case.reads_golden():
                continue
            res = run(case, Path(tmp) / name)
            assert res.code == 0, f"{name}: {res.stderr}"
            if isinstance(case.stdout, Golden):
                (GOLDEN / case.stdout).write_bytes(res.stdout.encode())
            for path, golden in case.artifacts.items():
                (GOLDEN / golden).write_bytes(res.after[path])
    (GOLDEN / "representatives.json").write_bytes(representatives())


if __name__ == "__main__":
    _write_golden()
