"""Batch front-end: parse input files, dispatch, emit deterministic reports.

``main`` owns the skeleton every command shares.  It starts the report
with its ``cechlift <command>`` header and calls the command, which
appends its lines and returns a zero-argument callable that builds its
artifact (or None).  ``main`` then writes that artifact to ``--out``,
when one is given, with a ``wrote:`` line, and prints the report.  A
command that raises prints no report and writes no artifact; every
artifact format lives in ``io``.

Exit codes: 0 on success, 1 on domain errors (reported with location),
2 on usage errors, a path that cannot be read or written among them.
Identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import abelian, io
from . import fixtures as fx
from .abelian import CIRCLE, FgAbelianGroup
from .cochains import cohomology_classes, verify_good_cover
from .complexes import SimplicialComplex, downward_closure, nerve, star_cover
from .deligne import curvature, descent_chain, holonomy
from .errors import CechliftError, FormatError, GroupMismatch
from .tower import ExtensionTower, bockstein, giraud_obstruction, obstruction_class, tower_obstructions


def _fmt_coords(coords):
    if not coords or all(c == 0 for c in coords):
        return "0"
    if len(coords) == 1:
        return str(coords[0])
    return "(" + ",".join(str(c) for c in coords) + ")"


def _load(path, *kinds):
    """The JSON object in ``path``; it must exist and be of one of ``kinds``."""
    if not os.path.exists(path):
        raise UsageError(f"input file not found: {path}")
    return io.load_container(path, *kinds)


class UsageError(Exception):
    pass


def _nerve_counts(n):
    return [len(n.simplices_of_dim(d)) for d in range(n.dim + 1)]


def _goodness_line(cover, nrv):
    rep = verify_good_cover(cover, nrv)
    if rep.ok:
        return f"good cover: yes (acyclic intersections up to degree {rep.max_degree})"
    return f"good cover: NO ({rep.describe()})"


# ---------------------------------------------------------------------------
# subcommands: each appends its report lines to ``rep`` and returns a
# callable that builds its --out artifact
# ---------------------------------------------------------------------------

def cmd_cohomology(args, rep):
    obj = _load(args.space, "complex", "cover")
    kind = io.kind_of(obj)
    group = io.group_from_json(_load(args.group, "group"))
    if not isinstance(group, FgAbelianGroup):
        raise GroupMismatch("cohomology needs finitely generated coefficients")
    p = args.degree
    rep.append(f"input: {os.path.basename(args.space)} ({kind})")
    rep.append(f"coefficients: {group}")
    rep.append(f"degree: {p}")
    if kind == "complex":
        carrier = io.complex_from_json(obj)
        rep.append(f"complex: {carrier.vertex_count} vertices, dim {carrier.dim}")
    else:
        cover = io.cover_from_json(obj)
        carrier = nerve(cover)
        rep.append(f"cover: {len(cover.pieces)} pieces")
        rep.append(f"nerve: {_nerve_counts(carrier)}")
        rep.append(_goodness_line(cover, carrier))
    classes = cohomology_classes(carrier, group, p)
    rep.append(f"H^{p} = {classes.group}")
    return lambda: io.group_to_json(classes.group)


def cmd_obstruct(args, rep):
    cover = io.cover_from_json(_load(args.cover, "cover"))
    nrv = nerve(cover)
    ext = io.extension_from_json(_load(args.extension, "extension"))
    g = io.transitions_from_json(_load(args.transitions, "transitions"), nrv, ext.base)
    rep.append(f"cover: {len(cover.pieces)} pieces; nerve {_nerve_counts(nrv)}")
    rep.append(
        f"extension: base order {ext.base.order}, kernel {ext.kernel}, "
        f"total order {ext.total.order}"
    )
    rep.append(f"transitions: {len(g.g)} nontrivial edges (cocycle law verified)")
    c = giraud_obstruction(g, ext)
    rep.append("obstruction cocycle: delta c = 0 verified")
    obs = obstruction_class(c)
    rep.append(f"H^2(nerve; {ext.kernel}) = {obs.cohomology}")
    rep.append(f"class: {_fmt_coords(obs.coords)}")
    for s, v in c.items():
        rep.append(f"  c{s} = {_fmt_coords(v.coords)}")
    rep.append(f"liftable: {'yes' if obs.is_zero() else 'no'}")
    return lambda: io.cochain_to_json(c, include_cover=cover)


def cmd_tower(args, rep):
    cover = io.cover_from_json(_load(args.cover, "cover"))
    nrv = nerve(cover)
    twr = io.tower_from_json(_load(args.tower, "tower"))
    tobj = _load(args.transitions, "transitions")
    g = io.transitions_from_json(tobj, nrv, twr.extensions[0].base)
    rep.append(f"cover: {len(cover.pieces)} pieces; nerve {_nerve_counts(nrv)}")
    rep.append(f"tower: {len(twr)} extensions, kernels "
               + ", ".join(str(e.kernel) for e in twr.extensions))
    seq = tower_obstructions(g, twr)
    status, level = seq.status
    name = "LiftedTo" if status == "lifted" else "BlockedAt"
    classes_str = ", ".join(_fmt_coords(e.coords) for e in seq.entries)
    rep.append(f"status: {name}({level}), classes: [{classes_str}]")
    for e in seq.entries:
        rep.append(
            f"level {e.level}: degree {e.degree}, coefficients {e.coefficients}, "
            f"H = {e.cohomology}, class {_fmt_coords(e.coords)}"
        )
        for s, v in e.cocycle.items():
            rep.append(f"  c{s} = {_fmt_coords(v.coords)}")
    return lambda: io.obstruction_sequence_to_json(seq)


def cmd_bockstein(args, rep):
    cobj = _load(args.cochain, "cochain")
    if "cover" not in cobj:
        raise FormatError(f"{args.cochain}: bockstein needs a cochain file with an embedded cover")
    x, cover = io.cochain_from_json(cobj)
    ses = io.ses_from_json(_load(args.ses, "ses"))
    rep.append(f"cochain: degree {x.degree}, coefficients {x.group}, support {len(x.values)}")
    rep.append(f"sequence: 0 -> {ses.A} -> {ses.B} -> {ses.C} -> 0 (exactness verified)")
    out = bockstein(x, ses)
    rep.append(f"result: degree {out.degree}, coefficients {out.group} (delta = 0 verified)")
    obs = obstruction_class(out)
    rep.append(f"H^{out.degree}(nerve; {ses.A}) = {obs.cohomology}")
    rep.append(f"class: {_fmt_coords(obs.coords)}")
    for s, v in out.items():
        rep.append(f"  b{s} = {_fmt_coords(v.coords)}")
    return lambda: io.cochain_to_json(out, include_cover=cover)


def cmd_descent(args, rep):
    cover = io.cover_from_json(_load(args.cover, "cover"))
    nrv = nerve(cover)
    c = io.cochain_from_json(_load(args.cocycle, "cochain"), carrier=nrv)
    if c.group != CIRCLE:
        raise FormatError("descent needs a circle-valued classifying cocycle")
    rep.append(f"cover: {len(cover.pieces)} pieces; nerve {_nerve_counts(nrv)}")
    pkg = descent_chain(c, cover, nrv)
    rep.append(f"good cover: yes (acyclic intersections up to degree {cover.base.dim + 1})")
    rep.append(f"package: degree {pkg.degree}, layers {sorted(pkg.layers)}")
    rep.append("descent equations: verified exactly")
    for q in sorted(pkg.layers):
        rep.append(f"layer {q}: bidegree ({q},{pkg.degree - q}), support {len(pkg.layers[q].num)}")
    return lambda: io.package_to_json(pkg)


def cmd_curvature(args, rep):
    pkg = io.package_from_json(_load(args.package, "package"))
    rep.append(f"package: degree {pkg.degree} (equations re-verified)")
    f = curvature(pkg)
    rep.append(f"curvature: degree {f.degree}, support {len(f.values)}")
    rep.append("glued consistently on overlaps: yes")
    rep.append("closed (D F = 0): yes")
    for s, v in f.items():
        rep.append(f"  F{s} = {v}")
    return lambda: io.rational_cochain_to_json(f, pkg.cover.base)


def cmd_holonomy(args, rep):
    pkg = io.package_from_json(_load(args.package, "package"))
    z = io.chain_from_json(_load(args.cycle, "chain"), pkg.cover.base)
    support = downward_closure(z.coefficients.keys())
    v = SimplicialComplex._trusted(pkg.cover.base.vertex_count, support)
    rep.append(f"package: degree {pkg.degree} (equations re-verified)")
    # holonomy refuses a chain that is not a cycle, and a refused command
    # prints no report
    rep.append(f"cycle: degree {z.degree}, {len(z.coefficients)} cells; boundary zero: yes")
    rep.append(f"restriction subcomplex: {len(v.simplices)} simplices, dim {v.dim}")
    h = holonomy(pkg, v, z)
    rep.append(f"holonomy = {h.value} (mod 1)")
    return lambda: io.circle_value_to_json(h)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _fixture_files(name):
    z = FgAbelianGroup((0,))
    z2 = FgAbelianGroup((2,))
    if name == "circle":
        hexa = fx.hexagon()
        cov = fx.three_arc_cover(hexa)
        nrv = nerve(cov)
        files = {
            "circle.cplx": io.complex_to_json(hexa),
            "circle.cov": io.cover_to_json(cov),
            "hexcycle.chn": io.chain_to_json(fx.hexagon_cycle(hexa)),
            "dbl.trn": io.transitions_to_json(fx.circle_double_cover_transitions(nrv)),
            "z2-z4.twr": io.tower_to_json(ExtensionTower([fx.z2_z4_extension()])),
            "z2-z4.ext": io.extension_to_json(fx.z2_z4_extension()),
            "flat_bundle.pkg": io.package_to_json(fx.circle_flat_package(Fraction(1, 3))),
            "theta.cochain": io.cochain_to_json(fx.circle_flat_cocycle(nrv, Fraction(1, 3))),
            "z.grp": io.group_to_json(z),
            "z2.grp": io.group_to_json(z2),
            "qz.grp": io.group_to_json(CIRCLE),
        }
    elif name == "delta3":
        bd3 = fx.boundary_delta3()
        files = {
            "delta3.cplx": io.complex_to_json(bd3),
            "delta3_star.cov": io.cover_to_json(star_cover(bd3)),
            "delta3cycle.chn": io.chain_to_json(fx.boundary_delta3_cycle(bd3)),
            "z.grp": io.group_to_json(z),
        }
    elif name == "rp2":
        cover, nrv = fx.rp2_good_cover()
        twr = fx.z2_tower(2)
        files = {
            "rp2.cplx": io.complex_to_json(fx.rp2_minimal()),
            "rp2.cov": io.cover_to_json(cover),
            "w1.trn": io.transitions_to_json(fx.rp2_orientation_transitions(nrv)),
            "w1.cochain": io.cochain_to_json(
                fx.rp2_orientation_cocycle(nrv), include_cover=cover
            ),
            "z2-z4.ext": io.extension_to_json(fx.z2_z4_extension()),
            "rp2_tower.twr": io.tower_to_json(twr),
            "z2z4z2.ses": io.ses_to_json(twr.derived_sequence(1)),
            "z.grp": io.group_to_json(z),
            "z2.grp": io.group_to_json(z2),
        }
    elif name == "torus":
        torus, cov = fx.torus_product()
        files = {
            "torus.cplx": io.complex_to_json(torus),
            "torus.cov": io.cover_to_json(cov),
            "torus_cycle.chn": io.chain_to_json(fx.torus_cycle(torus)),
            "flat_gerbe.pkg": io.package_to_json(fx.torus_flat_gerbe(Fraction(1, 3))),
            "z.grp": io.group_to_json(z),
        }
    else:
        raise UsageError(f"unknown fixture {name!r}; choose from circle, delta3, rp2, torus")
    return files


def cmd_fixtures(args, rep):
    """Write the fixture files into the directory ``--out`` (default: the
    current one), all of them or none; there is no artifact for ``main``
    to write."""
    outdir = args.out or "."
    files = _fixture_files(args.name)
    os.makedirs(outdir, exist_ok=True)
    objs = {os.path.join(outdir, fname): files[fname] for fname in sorted(files)}
    io.dump_json_files(objs)
    rep.extend(f"wrote: {path}" for path in objs)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argument parser, built once: ``parse_args`` does not change it."""
    parser = argparse.ArgumentParser(
        prog="cechlift",
        description=(
            "Exact Cech lifting obstructions and discrete connective "
            "structures on finite simplicial complexes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the machine-readable result here")
        p.add_argument(
            "--verify",
            choices=("fast", "full"),
            default="fast",
            help="full re-checks every Smith decomposition",
        )

    p = sub.add_parser("cohomology", help="cohomology of a complex or cover nerve")
    p.add_argument("space", help="complex or cover file")
    p.add_argument("group", help="coefficient group file")
    p.add_argument("-p", "--degree", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("obstruct", help="lifting obstruction of transitions")
    p.add_argument("cover")
    p.add_argument("transitions")
    p.add_argument("extension")
    common(p)
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("tower", help="full obstruction sequence of a tower")
    p.add_argument("cover")
    p.add_argument("transitions")
    p.add_argument("tower")
    common(p)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("bockstein", help="connecting operator on a cocycle")
    p.add_argument("cochain", help="cochain file with an embedded cover")
    p.add_argument("ses", help="short exact sequence file")
    common(p)
    p.set_defaults(func=cmd_bockstein)

    p = sub.add_parser("descent", help="build a connective structure")
    p.add_argument("cover")
    p.add_argument("cocycle", help="circle-valued cochain file")
    common(p)
    p.set_defaults(func=cmd_descent)

    p = sub.add_parser("curvature", help="global curvature of a package")
    p.add_argument("package")
    common(p)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("holonomy", help="holonomy of a package over a cycle")
    p.add_argument("package")
    p.add_argument("cycle", help="chain file")
    common(p)
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("fixtures", help="emit built-in fixture files")
    p.add_argument("name", help="circle, delta3, rp2 or torus")
    p.add_argument("--out", help="output directory (default: current)")
    p.set_defaults(func=cmd_fixtures, verify="fast")

    return parser


def main(argv=None):
    """Run the command ``argv`` names (default: ``sys.argv[1:]``); the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    token = abelian.SNF_VERIFY.set(args.verify == "full")
    rep = [f"cechlift {args.command}"]
    try:
        artifact = args.func(args, rep)
        if artifact is not None and args.out:
            io.dump_json(artifact(), args.out)
            rep.append(f"wrote: {args.out}")
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except OSError as exc:
        # a path the system refuses to open, read or make; the error names it
        sys.stderr.write(f"usage error: {exc.filename}: {exc.strerror}\n")
        return 2
    except CechliftError as exc:
        sys.stderr.write(f"error [{type(exc).__name__}]: {exc}\n")
        return 1
    finally:
        abelian.SNF_VERIFY.reset(token)
    sys.stdout.write("\n".join(rep) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
