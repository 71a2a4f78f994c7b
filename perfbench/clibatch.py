"""cli-batch: the CLI in-process on JSON files written at set-up.

Jobs are ``cechlift.cli.main(argv)`` calls with stdout and stderr
captured: the README examples on the shipped fixtures plus seeded
variants (relabelled complexes, arc covers of cycles, transitions and
cocycles shifted by coboundaries, packages made non-flat).  About half
the jobs write ``--out`` artifacts, some use ``--verify full``, a few
expect a typed error, and some repeat an earlier argv, whose stdout
must come out byte-identical.  Nothing here computes a large-matrix
cohomology.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import re
from fractions import Fraction

import oracle
from common import Job, cycle_graph, job_rng, relabel

FIXTURES = ("circle", "rp2", "delta3", "torus")
# complex file stem -> (constructor, cohomology kind, [(coefficient file, degree)])
COMPLEXES = {
    "rp2": (lambda fx, cx: fx.rp2_minimal(), "rp2", [("z", 1), ("z", 2), ("z2", 1), ("z2", 2), ("z3", 2)]),
    "sphere": (lambda fx, cx: fx.boundary_delta3(), "s2", [("z", 1), ("z", 2), ("z2", 2)]),
    "bsd_sphere": (lambda fx, cx: fx.barycentric_subdivision(fx.boundary_delta3())[0], "s2",
                   [("z", 2), ("z3", 1)]),
    "hexagon": (lambda fx, cx: cycle_graph(cx, 6), "circle", [("z", 0), ("z", 1), ("z2", 1)]),
    "c3xc3": (lambda fx, cx: cx.product_complex(cycle_graph(cx, 3), cycle_graph(cx, 3))[0], "torus",
              [("z", 1), ("z", 2)]),
}
GROUP_MODULI = {"z": 0, "z2": 2, "z3": 3}
ARC_COVERS = ((6, 3), (8, 4), (9, 3), (10, 5), (12, 4), (7, 3))
VARIANTS = 2  # relabelled copies of each complex, seeded shifts of each cocycle
REPEAT_EVERY = 12  # this share of the argvs runs again at the end of a pass


def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _complex_json(k):
    top = k.simplices_of_dim(k.dim)
    return {"kind": "complex", "vertices": k.vertex_count, "simplices": [list(s) for s in top]}


def _circle_value(v):
    v = Fraction(v) % 1
    return {"num": v.numerator, "den": v.denominator}


def _cochain_json(degree, values, circle):
    group = {"kind": "group", "circle": True} if circle else {"kind": "group", "moduli": [2]}
    return {
        "kind": "cochain", "degree": degree, "coefficients": group,
        "values": [{"indices": list(s), "value": _circle_value(v) if circle else [v % 2]}
                   for s, v in sorted(values.items())],
    }


def _transitions_json(values):
    return {"kind": "transitions",
            "edges": [{"i": i, "j": j, "g": v % 2} for (i, j), v in sorted(values.items())]}


def _chain_json(cells):
    return {"kind": "chain", "degree": 1,
            "cells": [{"simplex": list(s), "coeff": c} for s, c in sorted(cells.items())]}


class Expect:
    """What a CLI job must print: exit code, report lines, stderr text."""

    def __init__(self, code=0, lines=(), any_of=(), prefix=(), stderr=None, artifact=None):
        self.code = code
        self.lines = list(lines)
        self.any_of = list(any_of)  # groups of alternatives, one must appear
        self.prefix = list(prefix)
        self.stderr = stderr
        self.artifact = artifact  # (path, check(lib, path, stdout))


# ---------------------------------------------------------------------------
# set-up: files
# ---------------------------------------------------------------------------

def _setup_files(lib, seed):
    """Write every input file into the working directory; returns facts."""
    sink = stdio.StringIO()
    with contextlib.redirect_stdout(sink):
        for name in FIXTURES:
            lib.cli.main(["fixtures", name])
    _dump("z3.grp", {"kind": "group", "moduli": [3]})
    _dump("zero1.cochain", _cochain_json(1, {}, circle=True))
    for levels in (1, 2, 3):
        _dump(f"tower{levels}.twr", lib.io.tower_to_json(lib.fixtures.z2_tower(levels)))
    facts = {"complexes": [], "arcs": [], "rp2": [], "torus": [], "nonflat": []}
    cx, fx = lib.complexes, lib.fixtures
    for stem, (construct, kind, plan) in COMPLEXES.items():
        for v in range(VARIANTS):
            k = relabel(cx, construct(fx, cx), job_rng(seed, "cli", stem, v))
            path = f"{stem}_{v}.cplx"
            _dump(path, _complex_json(k))
            facts["complexes"].append((path, kind, plan))
    for n, k in ARC_COVERS:
        facts["arcs"].append(_arc_files(cx, seed, n, k))
    rp2_cover = lib.io.load_json("rp2.cov")
    w1 = oracle.fg_values(fx.rp2_orientation_cocycle(cx.nerve(fx.rp2_good_cover()[0])))
    for v in range(VARIANTS * 2):
        rng = job_rng(seed, "cli", "w1", v)
        h = [rng.randrange(2) for _ in range(6)]
        g = oracle.combine([(1, w1), (1, {(i, j): h[j] - h[i] for i, j in _nerve_edges(rp2_cover)})], 2)
        _dump(f"w1_{v}.trn", _transitions_json(g))
        cochain = _cochain_json(1, g, circle=False)
        cochain["cover"] = rp2_cover
        _dump(f"w1_{v}.cochain", cochain)
        facts["rp2"].append(v)
    _torus_files(lib, seed, facts)
    return facts


def _nerve_edges(cover_json):
    """Nerve edges of a cover file: pairs of pieces sharing a vertex."""
    verts = [{v for s in p for v in s} for p in cover_json["pieces"]]
    return [(i, j) for i in range(len(verts)) for j in range(i + 1, len(verts)) if verts[i] & verts[j]]


def _arc_files(cx, seed, n, k):
    """A seeded k-arc cover of a relabelled n-cycle, with cocycles."""
    rng = job_rng(seed, "cli", "arcs", n, k)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [tuple(sorted((perm[i], perm[(i + 1) % n]))) for i in range(n)]
    cuts = sorted(rng.sample(range(n), k))
    pieces = []
    for a, start in enumerate(cuts):
        stop = cuts[a + 1] if a + 1 < k else cuts[0] + n
        pieces.append([list(edges[i % n]) for i in range(start, stop)])
    base = {"kind": "complex", "vertices": n, "simplices": [list(e) for e in edges]}
    stem = f"arc{n}.{k}"
    _dump(f"{stem}.cov", {"kind": "cover", "base": base, "pieces": pieces})
    cycle = {e: (1 if perm[i] < perm[(i + 1) % n] else -1) for i, e in enumerate(edges)}
    _dump(f"{stem}.chn", _chain_json(cycle))
    nerve_edges = [(a, a + 1) for a in range(k - 1)] + [(0, k - 1)]
    t = Fraction(rng.randrange(1, 12), 12)
    eta = {(a,): Fraction(rng.randrange(12), 12) for a in range(k)}
    theta = oracle.combine([(t, {(0, k - 1): -1}), (1, oracle.delta(eta, nerve_edges))], 1)
    _dump(f"{stem}.cochain", _cochain_json(1, theta, circle=True))
    _dump(f"{stem}.trn", _transitions_json({e: rng.randrange(2) for e in nerve_edges}))
    return stem, n, k, t


def _torus_files(lib, seed, facts):
    """Transitions and non-flat degree-1 packages on the torus fixture cover."""
    cover = lib.io.load_typed("torus.cov")
    nrv = lib.complexes.nerve(cover)
    x, y = (oracle.fg_values(c) for c in lib.fixtures.torus_nerve_generators(nrv))
    edges = nrv.simplices_of_dim(1)
    for v in range(VARIANTS):
        rng = job_rng(seed, "cli", "torus", v)
        h = [rng.randrange(2) for _ in range(9)]
        terms = [(rng.randrange(2), x), (rng.randrange(2), y),
                 (1, {(i, j): h[j] - h[i] for i, j in edges})]
        _dump(f"torus_{v}.trn", _transitions_json(oracle.combine(terms, 2)))
        facts["torus"].append(v)
    dl = lib.deligne
    base = cover.base
    # the first hexagon of hexagon x hexagon at a seeded second coordinate
    for v in range(VARIANTS):
        rng = job_rng(seed, "cli", "nonflat", v)
        t = Fraction(rng.randrange(1, 12), 12)
        c = lib.cochains.Cochain(nrv, 1, lib.abelian.CIRCLE, oracle.combine([(t, x)], 1))
        pkg = dl.descent_chain(c, cover, nrv)
        a = oracle.reduce({e: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                           for e in base.simplices_of_dim(1)}, 0)
        local = {(i,): {s: a[s] for s in piece.simplices_of_dim(1) if s in a}
                 for i, piece in enumerate(cover.pieces)}
        layer = pkg.layers[0] + dl.DoubleCochain(cover, nrv, 0, 1, local)
        nonflat = dl.DelignePackage(cover, nrv, 1, c, {0: layer})
        _dump(f"nonflat_{v}.pkg", lib.io.package_to_json(nonflat))
        y0 = rng.randrange(6)
        loop = {}
        for i in range(6):
            u, w = i * 6 + y0, ((i + 1) % 6) * 6 + y0
            loop[tuple(sorted((u, w)))] = 1 if u < w else -1
        _dump(f"loop_{v}.chn", _chain_json(loop))
        curvature = oracle.delta(a, base.simplices_of_dim(2))
        shift = oracle.pairing(a, loop)
        facts["nonflat"].append((v, t, curvature, shift))


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def build(lib, seed, small=False, corrupt=False):
    facts = _setup_files(lib, seed)
    specs = _job_specs(facts)
    if small:
        specs = specs[:24]  # README examples, typed errors, some complexes
    if corrupt:
        argv, expect = specs[0]
        expect.lines.append("a line no report prints (self-test)")
    jobs = [_job(lib, i, argv, expect) for i, (argv, expect) in enumerate(specs)]
    jobs += [_repeat_job(lib, argv) for argv, _ in specs[::REPEAT_EVERY]]
    return jobs


def _job_specs(facts):
    specs = []
    added = [0]

    def add(argv, expect, artifact=None):
        """Every other job writes --out; every seventh uses --verify full.

        The flags follow the fixed job order, not the seed, so that every
        seed asks for the same amount of writing and re-verification.
        """
        n = added[0]
        added[0] += 1
        if artifact is not None and n % 2 == 0:
            path = f"out_{n}.json"
            argv = argv + ["--out", path]
            expect.lines.append(f"wrote: {path}")
            expect.artifact = (path, artifact)
        if n % 7 == 3:
            argv = argv + ["--verify", "full"]
        specs.append((argv, expect))

    for name in FIXTURES[:3]:
        specs.append((["fixtures", name, "--out", f"fx_{name}"],
                      Expect(lines=[f"wrote: fx_{name}/z.grp"])))
    # README examples
    add(["cohomology", "rp2.cplx", "z2.grp", "-p", "2"], Expect(lines=["H^2 = Z/2"]),
        artifact=_group_artifact((2,)))
    add(["cohomology", "torus.cov", "z.grp", "-p", "1"],
        Expect(lines=["H^1 = Z + Z", "good cover: yes (acyclic intersections up to degree 3)"]),
        artifact=_group_artifact((0, 0)))
    add(["obstruct", "rp2.cov", "w1.trn", "z2-z4.ext"],
        Expect(lines=["class: 1", "liftable: no", "H^2(nerve; Z/2) = Z/2"]), artifact=_cochain_artifact("c"))
    add(["tower", "circle.cov", "dbl.trn", "z2-z4.twr"],
        Expect(lines=["status: LiftedTo(1), classes: [0]"]), artifact=_sequence_artifact(("lifted", 1)))
    add(["bockstein", "w1.cochain", "z2z4z2.ses"],
        Expect(lines=["class: 1", "H^2(nerve; Z/2) = Z/2"]), artifact=_cochain_artifact("b"))
    add(["descent", "circle.cov", "theta.cochain"],
        Expect(lines=["package: degree 1, layers [0]", "descent equations: verified exactly"]),
        artifact=_package_artifact(1))
    add(["curvature", "flat_bundle.pkg"], Expect(lines=["curvature: degree 2, support 0"]),
        artifact=_curvature_artifact({}))
    add(["holonomy", "flat_bundle.pkg", "hexcycle.chn"], Expect(lines=["holonomy = 1/3 (mod 1)"]),
        artifact=_holonomy_artifact({Fraction(1, 3)}))
    # typed errors
    specs.append((["descent", "delta3_star.cov", "zero1.cochain"],
                  Expect(code=1, stderr="error [CoverNotGood]")))
    specs.append((["cohomology", "missing.cplx", "z.grp", "-p", "1"],
                  Expect(code=2, stderr="usage error: input file not found")))
    specs.append((["cohomology", "z.grp", "z.grp", "-p", "1"],
                  Expect(code=1, stderr="error [FormatError]")))
    add(["cohomology", "delta3_star.cov", "z.grp", "-p", "1"],
        Expect(lines=["H^1 = 0"], prefix=["good cover: NO"]), artifact=_group_artifact(()))
    # seeded variants
    for path, kind, plan in facts["complexes"]:
        for grp, p in plan:
            want = oracle.cohomology_moduli(kind, p, GROUP_MODULI[grp])
            add(["cohomology", path, f"{grp}.grp", "-p", str(p)],
                Expect(lines=[f"H^{p} = {oracle.group_str(want)}"]), artifact=_group_artifact(want))
    for index, (stem, n, k, t) in enumerate(facts["arcs"]):
        cov = f"{stem}.cov"
        good = "good cover: yes (acyclic intersections up to degree 2)"
        for grp, p in (("z", 1), ("z2", 1), ("z", 0)):
            want = oracle.cohomology_moduli("circle", p, GROUP_MODULI[grp])
            add(["cohomology", cov, f"{grp}.grp", "-p", str(p)],
                Expect(lines=[f"H^{p} = {oracle.group_str(want)}", good]), artifact=_group_artifact(want))
        add(["obstruct", cov, f"{stem}.trn", "z2-z4.ext"],
            Expect(lines=["class: 0", "liftable: yes", "H^2(nerve; Z/2) = 0"]), artifact=_cochain_artifact("c"))
        levels = 1 + index % 3
        add(["tower", cov, f"{stem}.trn", f"tower{levels}.twr"],
            Expect(lines=[f"status: LiftedTo({levels}), classes: [{', '.join(['0'] * levels)}]"]),
            artifact=_sequence_artifact(("lifted", levels)))
        pkg = f"{stem}.pkg"
        specs.append((["descent", cov, f"{stem}.cochain", "--out", pkg],
                      Expect(lines=[good, "package: degree 1, layers [0]", f"wrote: {pkg}"],
                             artifact=(pkg, _package_artifact(1)))))
        add(["curvature", pkg], Expect(lines=["curvature: degree 2, support 0"]),
            artifact=_curvature_artifact({}))
        add(["holonomy", pkg, f"{stem}.chn"],
            Expect(any_of=[[f"holonomy = {v} (mod 1)" for v in {t % 1, -t % 1}]]),
            artifact=_holonomy_artifact({t % 1, -t % 1}))
    for v in facts["rp2"]:
        blocked = ["class: 1", "liftable: no", "H^2(nerve; Z/2) = Z/2"]
        add(["obstruct", "rp2.cov", f"w1_{v}.trn", "z2-z4.ext"], Expect(lines=blocked),
            artifact=_cochain_artifact("c"))
        add(["bockstein", f"w1_{v}.cochain", "z2z4z2.ses"], Expect(lines=["class: 1"]),
            artifact=_cochain_artifact("b"))
        levels = 2 + v % 2
        add(["tower", "rp2.cov", f"w1_{v}.trn", f"tower{levels}.twr"],
            Expect(lines=[f"status: BlockedAt(1), classes: [1{', 0' * (levels - 1)}]"]),
            artifact=_sequence_artifact(("blocked", 1)))
    for v in facts["torus"]:
        add(["obstruct", "torus.cov", f"torus_{v}.trn", "z2-z4.ext"],
            Expect(lines=["class: 0", "liftable: yes", "H^2(nerve; Z/2) = Z/2"]), artifact=_cochain_artifact("c"))
    for v, t, curvature, shift in facts["nonflat"]:
        add(["curvature", f"nonflat_{v}.pkg"],
            Expect(lines=[f"curvature: degree 2, support {len(curvature)}"]),
            artifact=_curvature_artifact(curvature))
        want = {(t + shift) % 1, (-t + shift) % 1}
        add(["holonomy", f"nonflat_{v}.pkg", f"loop_{v}.chn"],
            Expect(any_of=[[f"holonomy = {w} (mod 1)" for w in want]]), artifact=_holonomy_artifact(want))
    return specs


def _run_cli(lib, argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _job(lib, index, argv, expect):
    def check(state, _, result):
        code, stdout, stderr = result
        state[tuple(argv)] = stdout
        oracle.require(code == expect.code, f"exit code {code}, expected {expect.code}: {stderr.strip()}")
        lines = stdout.splitlines()
        for line in expect.lines:
            oracle.require(line in lines, f"missing report line {line!r}")
        for group in expect.any_of:
            oracle.require(any(line in lines for line in group), f"none of {group} in the report")
        for pre in expect.prefix:
            oracle.require(any(line.startswith(pre) for line in lines), f"no line starting {pre!r}")
        if expect.stderr is not None:
            oracle.require(expect.stderr in stderr, f"stderr {stderr.strip()!r} lacks {expect.stderr!r}")
        if expect.artifact is not None:
            path, artifact_check = expect.artifact
            artifact_check(lib, path, lines)

    return Job(f"cli/{index}/{' '.join(argv)}", lambda _: _run_cli(lib, argv), check)


def _repeat_job(lib, argv):
    def check(state, _, result):
        oracle.require(result[1] == state.get(tuple(argv)), "stdout differs from the earlier identical run")

    return Job(f"cli/repeat/{' '.join(argv)}", lambda _: _run_cli(lib, argv), check)


# ---------------------------------------------------------------------------
# artifact checks: re-parse the --out file and compare with the report
# ---------------------------------------------------------------------------

_CELL = re.compile(r"^  ([a-zA-Z])(\([0-9, ]+\)) = (.+)$")


def _report_cells(lines, letter):
    out = {}
    for line in lines:
        m = _CELL.match(line)
        if m and m.group(1) == letter:
            out[tuple(int(v) for v in m.group(2)[1:-1].split(","))] = m.group(3)
    return out


def _group_artifact(moduli):
    def check(lib, path, lines):
        oracle.require(lib.io.load_typed(path, expect="group").moduli == tuple(moduli),
                       f"{path} does not hold the group {moduli}")
    return check


def _cochain_artifact(letter):
    """The written cochain equals the cells the report printed."""
    def check(lib, path, lines):
        x, _ = lib.io.cochain_from_json(lib.io.load_json(path))
        written = {s: str(v.coords[0]) for s, v in x.values.items()}
        oracle.require(written == _report_cells(lines, letter), f"{path} differs from the report")
    return check


def _fmt_coords(coords):
    """Class coordinates as the reports spell them."""
    if not any(coords):
        return "0"
    if len(coords) == 1:
        return str(coords[0])
    return "(" + ",".join(map(str, coords)) + ")"


def _sequence_artifact(status):
    def check(lib, path, lines):
        obj = lib.io.load_json(path)
        oracle.require(tuple(obj["status"]) == status, f"{path} status {obj['status']}, expected {status}")
        classes = ", ".join(_fmt_coords(e["class"]) for e in obj["entries"])
        oracle.require(any(line.endswith(f"classes: [{classes}]") for line in lines),
                       f"{path} classes differ from the report")
    return check


def _package_artifact(degree):
    def check(lib, path, lines):
        pkg = lib.io.load_typed(path, expect="package")
        oracle.require(pkg.degree == degree and sorted(pkg.layers) == list(range(degree)),
                       f"{path} does not re-parse to a degree-{degree} package")
    return check


def _curvature_artifact(expected):
    def check(lib, path, lines):
        f = lib.io.load_typed(path, expect="rational_cochain")
        oracle.require(oracle.reduce(f.values, 0) == expected, f"{path} differs from D a")
        printed = {s: Fraction(v) for s, v in _report_cells(lines, "F").items()}
        oracle.require(printed == expected, "reported curvature differs from D a")
    return check


def _holonomy_artifact(allowed):
    def check(lib, path, lines):
        h = lib.io.load_typed(path, expect="circle_value")
        oracle.require(h.value in allowed, f"{path} holds {h.value}, expected one of {sorted(allowed)}")
    return check
