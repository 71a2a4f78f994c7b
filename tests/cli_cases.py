"""One table of command-line cases, run in this process through ``cli.main``.

Each case runs in a fresh directory that already holds every shipped
fixture file (``tests/golden/fixtures``).  A case gives:

- ``argv``: the arguments after ``cechlift``, split on spaces;
- ``files``: the files it writes before it runs, by path: a JSON value,
  raw text or bytes, ``DIR`` for a directory, a ``Golden`` file, or a
  function that edits the JSON of the shipped fixture of that name;
- ``code``: the exit code;
- ``stdout``: the report, exactly, or a ``Golden`` file;
- ``stderr``: the message, exactly, or a ``Start`` of it;
- ``artifacts``: every file the command writes, by the ``Golden`` file
  it must equal.  A case writes these and nothing else, so a failing
  case leaves its directory as it was.

``run`` runs a case under a deadline of ``DEADLINE_S`` seconds and
``check`` asserts what it gives.  The tests that held these cases run
them by name.  ``python tests/cli_cases.py`` prints the path of the
``cechlift`` it imported and checks every case that reads a golden file;
``tests/test_golden.py`` runs it in a child, so the golden bytes are
pinned across interpreters.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from io import StringIO
from pathlib import Path

import cechlift
from cechlift import cli, io

from conftest import noncommutative_derived_extensions, two_arc_circle

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Seconds a case may run; every case takes well under one.  A file that
#: slipped past a pre-closure check would run far longer.
DEADLINE_S = 10


class Golden(str):
    """A path under ``tests/golden`` whose bytes an output must equal."""

    def read(self):
        return (GOLDEN / self).read_bytes()


class Start(str):
    """The first characters of an expected stderr."""


#: A directory in ``Case.files``.
DIR = object()


@dataclass(frozen=True)
class Case:
    argv: str
    code: int = 0
    stdout: str = ""
    stderr: str = ""
    files: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)

    def reads_golden(self):
        return isinstance(self.stdout, Golden) or bool(self.artifacts)


#: ``before`` and ``after`` map each path under the case's directory to
#: its bytes, or None for a directory.
Result = namedtuple("Result", "code stdout stderr before after")


class PastDeadline(Exception):
    pass


def _past_deadline(signum, frame):
    raise PastDeadline(f"the command ran past its deadline of {DEADLINE_S} s")


def _write(path, content):
    path.parent.mkdir(parents=True, exist_ok=True)
    if content is DIR:
        path.mkdir()
    elif callable(content):
        obj = json.loads(path.read_bytes())
        content(obj)
        io.dump_json(obj, path)
    elif isinstance(content, Golden):
        path.write_bytes(content.read())
    elif isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        io.dump_json(content, path)


def _tree(root):
    return {
        p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes()
        for p in root.rglob("*")
    }


def run(case, workdir):
    """Fill ``workdir`` for ``case`` and run it there through ``cli.main``."""
    workdir = Path(workdir)
    shutil.copytree(GOLDEN / "fixtures", workdir, dirs_exist_ok=True)
    for path in case.artifacts:
        # what the case must write is not there before it runs
        (workdir / path).unlink(missing_ok=True)
    for path, content in case.files.items():
        _write(workdir / path, content)
    before = _tree(workdir)
    out, err = StringIO(), StringIO()
    home = os.getcwd()
    os.chdir(workdir)
    handler = signal.signal(signal.SIGALRM, _past_deadline)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(case.argv.split())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        os.chdir(home)
    return Result(code, out.getvalue(), err.getvalue(), before, _tree(workdir))


def check(case, res):
    """Assert that ``res`` is what ``case`` expects."""
    assert res.code == case.code, f"exit {res.code}: {res.stderr}"
    stdout = case.stdout.read() if isinstance(case.stdout, Golden) else case.stdout.encode()
    assert res.stdout.encode() == stdout, res.stdout
    if isinstance(case.stderr, Start):
        assert res.stderr.startswith(case.stderr), res.stderr
    else:
        assert res.stderr == case.stderr
    want = {**res.before, **{path: g.read() for path, g in case.artifacts.items()}}
    # 0 stands for a path that is not there
    differ = {p for p in want.keys() | res.after.keys() if want.get(p, 0) != res.after.get(p, 0)}
    assert not differ, f"files written or changed other than expected: {sorted(differ)}"


def check_cases(workdir, *names):
    """Run and check the named cases, each in its own directory under ``workdir``."""
    for name in names:
        check(CASES[name], run(CASES[name], Path(workdir) / name))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _fixtures(name, *files):
    """``fixtures name``: its report and every file it writes."""
    report = "".join(f"wrote: ./{f}\n" for f in files)
    return Case(
        f"fixtures {name}",
        stdout=f"cechlift fixtures\n{report}",
        artifacts={f: Golden(f"fixtures/{f}") for f in files},
    )


def _golden(name, argv, out, **kw):
    """``argv --out out``, whose report and artifact are the golden ``name``."""
    return Case(
        f"{argv} --out {out}",
        stdout=Golden(f"cli/{name}.stdout"),
        artifacts={out: Golden(f"cli/{name}.out")},
        **kw,
    )


def _refused(argv, error="FormatError", message=Start(""), **kw):
    """Exit 1 with ``error [error]: message``; a ``Start`` message is matched
    as the start of stderr."""
    text = f"error [{error}]: {message}"
    return Case(argv, code=1, stderr=Start(text) if isinstance(message, Start) else text + "\n", **kw)


def _usage(argv, message, **kw):
    return Case(argv, code=2, stderr=message if isinstance(message, Start) else f"usage error: {message}\n", **kw)


def _edited(name, fn, argv, error="FormatError", message=Start("")):
    """``argv`` refused on the shipped fixture ``name`` edited by ``fn``."""
    return _refused(argv, error, message, files={name: fn})


def _triangle(simplices, vertices=3):
    return {"kind": "complex", "vertices": vertices, "simplices": simplices}


def _path_cover(n, pieces):
    """A cover of the path on n vertices with the given raw pieces."""
    return {
        "kind": "cover",
        "base": _triangle([[i, i + 1] for i in range(n - 1)], vertices=n),
        "pieces": pieces,
    }


def _faces(obj, error="FormatError"):
    """``cohomology -p 1`` refusing the complex or cover file ``obj``."""
    name = "in.cov" if obj["kind"] == "cover" else "in.cplx"
    return _refused(f"cohomology {name} z.grp -p 1", error, files={name: obj})


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


def _file(argv, name, obj, message=Start("")):
    """``argv`` refused with a FormatError on the file ``name`` holding ``obj``."""
    return _refused(argv, "FormatError", message, files={name: obj})


def _degree_zero(o):
    """Degree 0, with the classifying cocycle 1/3 on every piece: a constant
    0-cochain, so a cocycle."""
    third = {"num": 1, "den": 3}
    o["degree"] = 0
    o["cocycle"].update(
        degree=0, values=[{"indices": [i], "value": third} for i in range(len(o["cover"]["pieces"]))]
    )


def _gauge_bundle(o):
    """Layer 0 of the flat bundle becomes D f on each arc, for the rational
    0-cochain f = (1/2, -1/3, 2/5, 0, 3/4, -1) on the hexagon's vertices."""
    f = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), Fraction(0), Fraction(3, 4), Fraction(-1)]

    def cell(a, b):
        x = f[b] - f[a]
        return {"simplex": [a, b], "value": {"num": x.numerator, "den": x.denominator}}

    o["layers"][0]["values"] = [
        {"indices": [i], "cochain": [cell(a, b) for a, b in piece]} for i, piece in enumerate(o["cover"]["pieces"])
    ]


def _two_arcs():
    """The files of a package on two arcs of the 8-cycle that meet in two
    disjoint edges, c = 1/3 on the nerve edge and layer a, and its cycle:
    the holonomy is <a, z> = 1/2 - 1/3 + 2/5 - 3/4 = 49/60 mod 1."""
    a = {(0, 1): Fraction(1, 2), (2, 3): Fraction(-1, 3), (5, 6): Fraction(2, 5), (0, 7): Fraction(3, 4)}
    pkg, _, z = two_arc_circle(Fraction(1, 3), a)
    return {"arcs.pkg": io.package_to_json(pkg), "arcs.chn": io.chain_to_json(z)}


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


def budget(listed):
    """The simplices a file listing ``listed`` vertex ids may make the library build."""
    return io.BUDGET_FLOOR + io.BUDGET_PER_ID * listed


def _closure_refusal(n, ids):
    return (
        f"complex simplices: closing the faces may build {2**n - 1} simplices, over the limit "
        f"{budget(ids)} for {ids} listed vertex ids; the largest face {tuple(range(n))} has "
        f"{n} vertices"
    )


def _pieces_refusal(pieces, n):
    return (
        f"cover pieces: closing the faces may build {pieces * (2**n - 1)} simplices, over the "
        f"limit {budget(pieces * n)} for {pieces * n} listed vertex ids; the largest face "
        f"{tuple(range(n))} has {n} vertices"
    )


def _nerve_refusal(built, ids, simplex, pieces):
    return (
        f"cover: the nerve's intersections may hold {built} simplices, over the limit "
        f"{budget(ids)} for {ids} listed vertex ids; simplex {simplex} lies in {pieces} pieces"
    )


def _blow_up(obj, message, argv="cohomology in.json z.grp -p 1"):
    return _file(argv, "in.json", obj, message)


_NOT_GOOD = (
    "cover is not good (11 non-acyclic intersections): (0, 1) H^1=Z, (0, 1, 2) H^1=Z + Z, "
    "(0, 1, 2, 3) H^1=Z + Z + Z, (0, 1, 3) H^1=Z + Z"
)

#: A degree-1 circle cochain with no values, a cocycle on every nerve.
_ZERO1 = {"kind": "cochain", "degree": 1, "coefficients": {"kind": "group", "circle": True}, "values": []}

_USAGE = Start("usage: cechlift ")


# ---------------------------------------------------------------------------
# the table, by the tests that run its parts
# ---------------------------------------------------------------------------

#: ``fixtures``, which writes the files every other case starts from.
FIXTURES = {
    "fixtures-circle": _fixtures(
        "circle", "circle.cov", "circle.cplx", "dbl.trn", "flat_bundle.pkg", "hexcycle.chn",
        "qz.grp", "theta.cochain", "z.grp", "z2-z4.ext", "z2-z4.twr", "z2.grp",
    ),
    "fixtures-delta3": _fixtures("delta3", "delta3.cplx", "delta3_star.cov", "delta3cycle.chn", "z.grp"),
    "fixtures-rp2": _fixtures(
        "rp2", "rp2.cov", "rp2.cplx", "rp2_tower.twr", "w1.cochain", "w1.trn", "z.grp",
        "z2-z4.ext", "z2.grp", "z2z4z2.ses",
    ),
    "fixtures-torus": _fixtures("torus", "flat_gerbe.pkg", "torus.cov", "torus.cplx", "torus_cycle.chn", "z.grp"),
}

#: The README command-line examples, and more runs with golden outputs.
EXAMPLES = {
    "cohomology-rp2-z2-p2": _golden("cohomology-rp2-z2-p2", "cohomology rp2.cplx z2.grp -p 2", "h2.grp"),
    "cohomology-torus-z-p1": _golden("cohomology-torus-z-p1", "cohomology torus.cov z.grp -p 1", "h1.grp"),
    "obstruct-rp2": _golden("obstruct-rp2", "obstruct rp2.cov w1.trn z2-z4.ext", "c.cochain"),
    "tower-circle": _golden("tower-circle", "tower circle.cov dbl.trn z2-z4.twr", "circle.obs"),
    "tower-rp2": _golden("tower-rp2", "tower rp2.cov w1.trn rp2_tower.twr", "rp2.obs"),
    "bockstein-rp2": _golden("bockstein-rp2", "bockstein w1.cochain z2z4z2.ses", "b.cochain"),
    "descent-circle": _golden("descent-circle", "descent circle.cov theta.cochain", "built.pkg"),
    # the package the descent case above writes
    "curvature-built": _golden(
        "curvature-built", "curvature built.pkg", "f.cochain",
        files={"built.pkg": Golden("cli/descent-circle.out")},
    ),
    "holonomy-circle": _golden("holonomy-circle", "holonomy flat_bundle.pkg hexcycle.chn", "circle.val"),
    "holonomy-torus": _golden("holonomy-torus", "holonomy flat_gerbe.pkg torus_cycle.chn", "torus.val"),
    # the flat bundle gauged by a global datum: its nonzero layer pairs with
    # the cycle, and the holonomy is the flat bundle's
    "holonomy-gauged-bundle": Case(
        "holonomy flat_bundle.pkg hexcycle.chn",
        files={"flat_bundle.pkg": _gauge_bundle},
        stdout="cechlift holonomy\npackage: degree 1 (equations re-verified)\n"
        "cycle: degree 1, 6 cells; boundary zero: yes\nrestriction subcomplex: 12 simplices, dim 1\n"
        "holonomy = 1/3 (mod 1)\n",
    ),
    # a cover that is not good on the cycle: holonomy needs none
    "holonomy-two-arcs": Case(
        "holonomy arcs.pkg arcs.chn",
        files=_two_arcs(),
        stdout="cechlift holonomy\npackage: degree 1 (equations re-verified)\n"
        "cycle: degree 1, 8 cells; boundary zero: yes\nrestriction subcomplex: 16 simplices, dim 1\n"
        "holonomy = 49/60 (mod 1)\n",
    ),
    # --verify full re-checks every Smith decomposition and prints the same
    "cohomology-rp2-verify-full": _golden(
        "cohomology-rp2-verify-full", "cohomology rp2.cplx z2.grp -p 2 --verify full", "h2full.grp"
    ),
    "tower-rp2-verify-full": _golden("tower-rp2", "tower rp2.cov w1.trn rp2_tower.twr --verify full", "rp2.obs"),
    "bockstein-rp2-verify-full": _golden(
        "bockstein-rp2", "bockstein w1.cochain z2z4z2.ses --verify full", "b.cochain"
    ),
    "cohomology-torus-z-p2": Case(
        "cohomology torus.cov z.grp -p 2",
        stdout="cechlift cohomology\ninput: torus.cov (cover)\ncoefficients: Z\ndegree: 2\n"
        "cover: 9 pieces\nnerve: [9, 36, 36, 9]\n"
        "good cover: yes (acyclic intersections up to degree 3)\nH^2 = Z\n",
    ),
    "cohomology-rp2-z2-plus-z-p2": Case(
        "cohomology rp2.cplx z2z.grp -p 2",
        files={"z2z.grp": {"kind": "group", "moduli": [2, 0]}},
        stdout="cechlift cohomology\ninput: rp2.cplx (complex)\ncoefficients: Z/2 + Z\ndegree: 2\n"
        "complex: 6 vertices, dim 2\nH^2 = Z/2 + Z/2\n",
    ),
    # 'circle' false is the same as no 'circle'
    "cohomology-rp2-circle-false": Case(
        "cohomology rp2.cplx z2.grp -p 2",
        files={"z2.grp": {"kind": "group", "circle": False, "moduli": [2]}},
        stdout="cechlift cohomology\ninput: rp2.cplx (complex)\ncoefficients: Z/2\ndegree: 2\n"
        "complex: 6 vertices, dim 2\nH^2 = Z/2\n",
    ),
    # the report line renders the goodness failures as CoverNotGood does
    "cohomology-delta3-star-z-p1": Case(
        "cohomology delta3_star.cov z.grp -p 1",
        stdout="cechlift cohomology\ninput: delta3_star.cov (cover)\ncoefficients: Z\ndegree: 1\n"
        "cover: 4 pieces\nnerve: [4, 6, 4, 1]\n"
        "good cover: NO ((0, 1) H^1=Z, (0, 1, 2) H^1=Z + Z, (0, 1, 2, 3) H^1=Z + Z + Z, "
        "(0, 1, 3) H^1=Z + Z)\nH^1 = 0\n",
    ),
    # descent prints the goodness line cohomology prints for the same cover
    "descent-torus-zero": Case(
        "descent torus.cov zero1.cochain",
        files={"zero1.cochain": _ZERO1},
        stdout="cechlift descent\ncover: 9 pieces; nerve [9, 36, 36, 9]\n"
        "good cover: yes (acyclic intersections up to degree 3)\npackage: degree 1, layers [0]\n"
        "descent equations: verified exactly\nlayer 0: bidegree (0,1), support 0\n",
    ),
    # the 125-cycle and 8 copies of its arc 102..124: the 45 simplices of
    # the arc lie in 9 pieces and the other 205 in one, so the nerve's
    # intersections hold the budget itself for the 852 vertex ids listed;
    # the piece that is the whole cycle is not acyclic
    "cover-at-the-nerve-limit": Case(
        "cohomology limit.cov z.grp -p 1",
        files={"limit.cov": _arc_cover(125, 9, 102)},
        stdout="cechlift cohomology\ninput: limit.cov (cover)\ncoefficients: Z\ndegree: 1\n"
        "cover: 9 pieces\nnerve: [9, 36, 84, 126, 126, 84, 36, 9, 1]\n"
        "good cover: NO ((0,) H^1=Z)\nH^1 = 0\n",
    ),
}

#: Usage errors: exit 2, no report, no file written.
USAGE = {
    "input-not-found": _usage("cohomology missing.cplx z.grp -p 1", "input file not found: missing.cplx"),
    "unknown-command": _usage("nonsense", _USAGE),
    # goodness is checked in every degree; no option lowers it
    "no-goodness-degree-option": _usage(
        "descent delta3_star.cov zero1.cochain --max-check-degree 0", _USAGE, files={"zero1.cochain": _ZERO1}
    ),
    "failing-usage-writes-no-artifact": _usage(
        "descent missing.cov theta.cochain --out built.pkg", "input file not found: missing.cov"
    ),
    "out-dir-missing": _usage(
        "cohomology rp2.cplx z2.grp -p 2 --out nodir/h.grp", "nodir/h.grp: No such file or directory"
    ),
    "input-is-a-directory": _usage(
        "cohomology rp2.cplx adir.grp -p 2 --out h.grp", "adir.grp: Is a directory", files={"adir.grp": DIR}
    ),
    "fixtures-out-is-a-file": _usage("fixtures rp2 --out rp2.cplx", "rp2.cplx: File exists"),
    # a fixtures run that cannot write one of its files, found before the
    # first write or while the temporaries are written, writes none and
    # removes none it did not write, a later file's .tmp name included
    "target-is-a-directory": _usage(
        "fixtures rp2 --out d", "d/rp2.cplx: Is a directory", files={"d/rp2.cplx": DIR, "d/z2z4z2.ses.tmp": "kept"}
    ),
    "temporary-is-a-directory": _usage(
        "fixtures rp2 --out d", "d/z2.grp.tmp: Is a directory",
        files={"d/z2.grp.tmp": DIR, "d/z2z4z2.ses.tmp": "kept"},
    ),
}

#: Domain errors: exit 1 with a typed error, no report, no file written.
REFUSED = {
    "cover-not-good": _refused("descent delta3_star.cov theta.cochain", "CoverNotGood", _NOT_GOOD),
    "cover-not-good-zero-cocycle": _refused(
        "descent delta3_star.cov zero1.cochain", "CoverNotGood", _NOT_GOOD, files={"zero1.cochain": _ZERO1}
    ),
    "failing-domain-writes-no-artifact": _refused(
        "descent delta3_star.cov theta.cochain --out built.pkg", "CoverNotGood", _NOT_GOOD
    ),
    "cohomology-over-q-mod-z": _refused(
        "cohomology rp2.cplx qz.grp -p 1", "GroupMismatch", "cohomology needs finitely generated coefficients"
    ),
    "cohomology-of-a-transitions-file": _refused(
        "cohomology rp2.cplx w1.trn -p 1", message="w1.trn: expected a group file, found transitions"
    ),
    "obstruct-with-a-tower-file": _refused(
        "obstruct rp2.cov w1.trn rp2_tower.twr", message="rp2_tower.twr: expected an extension file, found tower"
    ),
    # a file that is not UTF-8 JSON, or nests too deeply, is a FormatError
    "malformed-json": _file(
        "cohomology bad.cplx z.grp -p 1", "bad.cplx", "{not json", Start("bad.cplx: invalid JSON (")
    ),
    "not-utf-8": _refused(
        "cohomology latin1.cplx z2.grp -p 2 --out h.grp",
        message=Start("latin1.cplx: invalid JSON ('utf-8' codec can't decode"),
        files={"latin1.cplx": '{"kind": "complex", "simplices": "\xe9"}'.encode("latin-1")},
    ),
    "too-deep": _refused(
        "cohomology deep.cplx z2.grp -p 2 --out h.grp",
        message=Start("deep.cplx: invalid JSON (maximum recursion depth exceeded"),
        files={"deep.cplx": "[" * 200_000},
    ),
    "not-a-cycle": _edited(
        "hexcycle.chn", lambda o: o["cells"].pop(), "holonomy flat_bundle.pkg hexcycle.chn",
        "NoFundamentalCycle", "chain is not a cycle",
    ),
    "noncommutative-derived-quotient": _refused(
        "tower circle.cov dbl.trn nc.twr", "NotAbelian", "derived quotient at level 1 is not commutative",
        files={"nc.twr": {
            "kind": "tower",
            "extensions": [io.extension_to_json(e) for e in noncommutative_derived_extensions()],
        }},
    ),
}
#: Raw faces checked before any downward closure is taken.
BAD_FACES = {
    "string-vertex": _faces(_triangle([["a", 1]])),
    "float-vertex": _faces(_triangle([[0, 1.5]])),
    "bool-vertex": _faces(_triangle([[True, 2]])),
    "negative-vertex": _faces(_triangle([[-1, 2]])),
    "float-vertex-count": _faces(_triangle([[0, 1]], vertices=1e9)),
    "string-vertex-count": _faces(_triangle([[0, 1]], vertices="3")),
    "simplices-not-lists": _faces(_triangle([0, 1])),
    "24-vertex-simplex-in-3-vertex-complex": _faces(_triangle([list(range(24))])),
    "repeated-vertex": _faces(_triangle([[0, 1, 1]]), "DuplicateVertexInSimplex"),
    "22-vertex-simplex-without-vertex-count": _faces({"kind": "complex", "simplices": [list(range(22))]}),
    "22-vertex-simplex-in-22-vertex-complex": _faces(_triangle([list(range(22))], vertices=22)),
    "string-in-cover-piece": _faces(_path_cover(3, [[[0, "1"]], [[1, 2]]])),
    "cover-vertex-out-of-range": _faces(_path_cover(3, [[[0, 1]], [[1, 3]]])),
    "cover-piece-outside-base": _faces(_path_cover(20, [[list(range(20))]]), "InvalidCover"),
}

_BOCKSTEIN = "bockstein w1.cochain bad.ses"
_OBSTRUCT = "obstruct rp2.cov w1.trn bad.ext"
_COHOMOLOGY = "cohomology rp2.cplx bad.grp -p 1"

#: Moduli, group flags and sequence matrices that are not JSON integers,
#: booleans or valid maps.
BAD_ALGEBRA = {
    "ses-moduli-not-invariant": _file(_BOCKSTEIN, "bad.ses", _ses(A={"moduli": [3, 2]})),
    "ses-moduli-string": _file(_BOCKSTEIN, "bad.ses", _ses(A={"moduli": ["x"]})),
    "ses-group-not-an-object": _file(_BOCKSTEIN, "bad.ses", _ses(A=2)),
    "ses-inject-wrong-width": _file(_BOCKSTEIN, "bad.ses", _ses(inject=[[2, 0]])),
    "ses-inject-not-a-matrix": _file(_BOCKSTEIN, "bad.ses", _ses(inject=2)),
    "ses-inject-float": _file(_BOCKSTEIN, "bad.ses", _ses(inject=[[2.5]])),
    "group-float-modulus": _file(_COHOMOLOGY, "bad.grp", {"kind": "group", "moduli": [2.7]}),
    "group-circle-string": _file(
        _COHOMOLOGY, "bad.grp", {"kind": "group", "circle": "false"},
        "group 'circle' must be true or false, not 'false'",
    ),
    "group-circle-one": _file(
        _COHOMOLOGY, "bad.grp", {"kind": "group", "circle": 1}, "group 'circle' must be true or false, not 1"
    ),
    "group-circle-with-moduli": _file(
        _COHOMOLOGY, "bad.grp", {"kind": "group", "circle": True, "moduli": [2]},
        "group: 'circle' true and 'moduli' are given together",
    ),
    "extension-kernel-float-modulus": _file(_OBSTRUCT, "bad.ext", _z2_z4_extension({"moduli": [2.0]})),
    "extension-kernel-not-invariant": _file(_OBSTRUCT, "bad.ext", _z2_z4_extension({"moduli": [3, 2]})),
    "extension-over-the-order-limit": _file(
        _OBSTRUCT, "bad.ext", {**_z2_z4_extension({"moduli": [100_000]}), "factor_set": [[[0], [0]], [[0], [0]]]},
        f"extension: total order 200000 is over the limit {io.MAX_GROUP_ORDER}",
    ),
}

_OBSTRUCT_W1 = "obstruct rp2.cov w1.trn z2-z4.ext"
_BOCKSTEIN_W1 = "bockstein w1.cochain z2z4z2.ses"
_HOLONOMY = "holonomy flat_bundle.pkg hexcycle.chn"

#: Transitions, fg and circle values and chain coefficients that are not
#: JSON integers, in edits of the shipped fixtures.
BAD_NUMBERS = {
    "transition-float-value": _edited("w1.trn", lambda o: o["edges"][0].update(g=1.7), _OBSTRUCT_W1),
    "transition-float-index": _edited("w1.trn", lambda o: o["edges"][0].update(i=0.0), _OBSTRUCT_W1),
    "transition-without-value": _edited("w1.trn", lambda o: o["edges"][0].pop("g"), _OBSTRUCT_W1),
    "fg-value-float": _edited("w1.cochain", lambda o: o["values"][0].update(value=[0.5]), _BOCKSTEIN_W1),
    "fg-value-wrong-rank": _edited("w1.cochain", lambda o: o["values"][0].update(value=[1, 0]), _BOCKSTEIN_W1),
    "circle-value-float-num": _edited(
        "theta.cochain", lambda o: o["values"][0].update(value={"num": 1.5, "den": 3}),
        "descent circle.cov theta.cochain",
    ),
    "circle-value-zero-den": _edited(
        "theta.cochain", lambda o: o["values"][0].update(value={"num": 1, "den": 0}),
        "descent circle.cov theta.cochain",
    ),
    "chain-float-coeff": _edited("hexcycle.chn", lambda o: o["cells"][0].update(coeff=1.5), _HOLONOMY),
}

#: Edits of the shipped fixtures whose structure (not a number value) is
#: malformed: degrees, list shapes, required and repeated keys, factor
#: sets and group tables.
BAD_STRUCTURE = {
    "cochain-float-degree": _edited("w1.cochain", lambda o: o.update(degree=1.5), _BOCKSTEIN_W1),
    "cochain-value-without-indices": _edited("w1.cochain", lambda o: o["values"][0].pop("indices"), _BOCKSTEIN_W1),
    "cochain-coefficients-circle-string": _edited(
        "theta.cochain", lambda o: o["coefficients"].update(circle="no"), "descent circle.cov theta.cochain",
        message="group 'circle' must be true or false, not 'no'",
    ),
    "transitions-edges-not-a-list": _edited("w1.trn", lambda o: o.update(edges=5), _OBSTRUCT_W1),
    "tower-transitions-of-another-kind": _edited(
        "dbl.trn", lambda o: o.update(kind="chain"), "tower circle.cov dbl.trn z2-z4.twr"
    ),
    "factor-set-float-entry": _edited(
        "z2-z4.ext", lambda o: o["factor_set"][1].__setitem__(1, [0.5]), _OBSTRUCT_W1
    ),
    "factor-set-missing-row": _edited("z2-z4.ext", lambda o: o["factor_set"].pop(), _OBSTRUCT_W1),
    "group-table-float-entry": _edited(
        "z2-z4.ext", lambda o: o["base"]["table"][1].__setitem__(1, 0.0), _OBSTRUCT_W1
    ),
    # an identity outside range(order) is refused before any table lookup
    "group-identity-past-the-order": _edited(
        "z2-z4.ext", lambda o: o["base"].update(identity=2), _OBSTRUCT_W1
    ),
    "group-identity-huge": _edited("z2-z4.ext", lambda o: o["base"].update(identity=2**70), _OBSTRUCT_W1),
    "group-identity-negative": _edited(
        "z2-z4.ext", lambda o: o["base"].update(identity=-1, table=[[1, 0], [0, 1]]), _OBSTRUCT_W1
    ),
    "group-of-order-zero": _edited(
        "z2-z4.ext",
        lambda o: o.update(base={"kind": "finite_group", "identity": 0, "table": []}, factor_set=[]),
        _OBSTRUCT_W1,
    ),
    "package-float-degree": _edited("flat_bundle.pkg", lambda o: o.update(degree=1.0), _HOLONOMY),
    "package-layer-without-cech-degree": _edited(
        "flat_bundle.pkg", lambda o: o["layers"][0].pop("cech_degree"), _HOLONOMY
    ),
    "chain-float-degree": _edited("hexcycle.chn", lambda o: o.update(degree=1.0), _HOLONOMY),
    # a key given twice is refused, not silently overwritten by the later entry
    "cochain-repeated-indices": _edited(
        "theta.cochain",
        lambda o: o["values"].append({"indices": [0, 1], "value": {"num": 1, "den": 5}}),
        "descent circle.cov theta.cochain",
    ),
    "chain-repeated-cell": _edited(
        "hexcycle.chn", lambda o: o["cells"].append({"simplex": [0, 1], "coeff": 2}), _HOLONOMY
    ),
    "transitions-repeated-edge": _edited(
        "w1.trn", lambda o: o["edges"].append({"i": 0, "j": 1, "g": 0}), _OBSTRUCT_W1
    ),
    "package-repeated-layer": _edited(
        "flat_bundle.pkg", lambda o: o["layers"].append(o["layers"][0]), _HOLONOMY
    ),
    "package-repeated-block": _edited(
        "flat_bundle.pkg",
        lambda o: o["layers"][0]["values"].extend([
            {"indices": [0], "cochain": [{"simplex": [0, 1], "value": {"num": 1, "den": 2}}]},
            {"indices": [0], "cochain": []},
        ]),
        _HOLONOMY,
    ),
    "package-repeated-cell": _edited(
        "flat_bundle.pkg",
        lambda o: o["layers"][0]["values"].append({"indices": [0], "cochain": [
            {"simplex": [0, 1], "value": {"num": 1, "den": 2}},
            {"simplex": [0, 1], "value": {"num": 0, "den": 1}},
        ]}),
        _HOLONOMY,
    ),
}

#: An empty tower, as a bare list and as an object.
EMPTY_TOWERS = {
    "bare-list": _file("tower circle.cov dbl.trn empty.twr", "empty.twr", []),
    "object": _file("tower circle.cov dbl.trn empty.twr", "empty.twr", {"kind": "tower", "extensions": []}),
}

#: Edits of ``flat_bundle.pkg`` whose classifying degree or layers do not
#: fit, under ``curvature`` and ``holonomy``.
BAD_PACKAGE_DEGREES = {
    f"{case}-{command}": _edited("flat_bundle.pkg", edit, argv, "DegreeMismatch", message)
    for case, edit, message in (
        ("degree-0", _degree_zero, "packages need classifying degree >= 1"),
        (
            "layer-3",
            lambda o: o["layers"].append({"cech_degree": 3, "form_degree": 0, "values": []}),
            "layer 3 is outside 0..0",
        ),
    )
    for command, argv in (("curvature", "curvature flat_bundle.pkg"), ("holonomy", _HOLONOMY))
}


def _bump_gerbe_cocycle(o):
    """The flat gerbe's classifying cocycle moved on one nerve triangle."""
    o["cocycle"]["values"][0]["value"] = {"num": 1, "den": 4}


def _bumped_arcs():
    """The two-arc package with its layer-0 cell at the overlap edge (0, 1)
    of arc 0 moved, so delta A^(0) is not 0 there.  The flat bundle's
    three arcs meet only in vertices, where no bump of a 1-form shows."""
    files = _two_arcs()
    block = next(b for b in files["arcs.pkg"]["layers"][0]["values"] if b["indices"] == [0])
    cell = next(c for c in block["cochain"] if c["simplex"] == [0, 1])
    cell["value"] = {"num": cell["value"]["num"] + cell["value"]["den"], "den": cell["value"]["den"]}
    return files


#: Packages that fail a package equation, under ``curvature`` and
#: ``holonomy``: refused on load, so no report and no ``--out`` file.
BAD_PACKAGE_EQUATIONS = {
    f"{case}-{command}": _refused(argv, "NotACocycle", message, files=files)
    for case, files, message, argvs in (
        (
            "layer-bumped", _bumped_arcs(), "top descent equation fails",
            ("curvature arcs.pkg --out f.cochain", "holonomy arcs.pkg arcs.chn --out h.val"),
        ),
        (
            "cocycle-bumped", {"flat_gerbe.pkg": _bump_gerbe_cocycle}, "classifying cochain is not a cocycle",
            ("curvature flat_gerbe.pkg --out f.cochain", "holonomy flat_gerbe.pkg torus_cycle.chn --out h.val"),
        ),
    )
    for command, argv in zip(("curvature", "holonomy"), argvs)
}

#: Files whose closure or pieces would blow up, refused before that step.
BLOW_UPS = {
    "10-pieces-of-a-12-simplex": _blow_up(_simplex_cover(10, 12), _pieces_refusal(10, 12)),
    "11-pieces-of-a-14-simplex": _blow_up(_simplex_cover(11, 14), _pieces_refusal(11, 14)),
    "30-pieces-of-a-14-simplex": _blow_up(_simplex_cover(30, 14), _pieces_refusal(30, 14)),
    "30-pieces-of-a-17-simplex": _blow_up(_simplex_cover(30, 17), _closure_refusal(17, 17)),
    "16-simplex": _blow_up({"kind": "complex", "simplices": [list(range(16))]}, _closure_refusal(16, 16)),
    "star-cover-of-a-16-simplex": _blow_up(
        {"kind": "cover", "base": {"kind": "complex", "simplices": [list(range(16))]}, "star_cover": True},
        _closure_refusal(16, 16),
    ),
}

#: Covers whose nerve's intersections would hold more simplices than the
#: budget for the ids they list, refused before any nerve is built.
NERVE_BLOW_UPS = {
    "fan": _blow_up(_fan_cover(16), _nerve_refusal(2**16 - 1 + 32, 64, (0,), 16)),
    "star-cone": _blow_up(
        _cone_star_cover(16), _nerve_refusal(2**17 - 1 + 16 * (2 * 15 + 2 * 7), 48, (0,), 17)
    ),
    # one more edge in each repeated arc than at the limit
    "one-past-the-limit": _blow_up(_arc_cover(125, 9, 101), _nerve_refusal(203 + 47 * (2**9 - 1), 868, (101,), 9)),
}

#: str() refuses ints of more than 4,300 digits; these refusals name the
#: count by a lower bound.
DIGIT_LIMIT = {
    "closure-past-the-digit-limit": _blow_up(
        {"kind": "complex", "simplices": [list(range(5000))]},
        f"complex simplices: closing the faces may build at least 2^4999 simplices, over the "
        f"limit {budget(5000)} for 5000 listed vertex ids; the largest face {tuple(range(5000))} "
        f"has 5000 vertices",
        argv="cohomology in.json z.grp -p 0",
    ),
    "nerve-past-the-digit-limit": _blow_up(
        _simplex_cover(5000, 1), _nerve_refusal("at least 2^4999", 5001, (0,), 5000),
        argv="cohomology in.json z.grp -p 0",
    ),
}


def _table(*groups):
    table = {}
    for group in groups:
        assert not table.keys() & group.keys(), table.keys() & group.keys()
        table.update(group)
    return table


#: Every case; ``fixtures`` first and ``descent`` before ``curvature``,
#: the order in which golden files are rewritten.
CASES = _table(
    FIXTURES, EXAMPLES, USAGE, REFUSED, BAD_FACES, BAD_ALGEBRA, BAD_NUMBERS, BAD_STRUCTURE,
    EMPTY_TOWERS, BAD_PACKAGE_DEGREES, BAD_PACKAGE_EQUATIONS, BLOW_UPS, NERVE_BLOW_UPS, DIGIT_LIMIT,
)


if __name__ == "__main__":
    # the cases that read a golden file, in a second interpreter; the first
    # that fails ends the run with its traceback
    print(Path(cechlift.__file__).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in CASES.items():
            if case.reads_golden():
                check(case, run(case, Path(tmp) / name))
