"""Batch front-end: parse input files, dispatch, emit deterministic reports.

Exit codes: 0 on success, 1 on domain errors (reported with location),
2 on usage errors.  Identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import abelian, io
from .abelian import CIRCLE, FgAbelianGroup
from .cochains import cohomology_classes, verify_good_cover
from .complexes import downward_closure, nerve, SimplicialComplex, chain_boundary
from .deligne import curvature, descent_chain, holonomy
from .errors import CechliftError, FormatError
from .tower import bockstein, giraud_obstruction, obstruction_class, tower_obstructions
from . import fixtures as fx


def _fmt_coords(coords):
    if not coords or all(c == 0 for c in coords):
        return "0"
    if len(coords) == 1:
        return str(coords[0])
    return "(" + ",".join(str(c) for c in coords) + ")"


class Report:
    def __init__(self, command):
        self.lines = [f"cechlift {command}"]

    def add(self, line):
        self.lines.append(line)

    def emit(self):
        sys.stdout.write("\n".join(self.lines) + "\n")


def _load(path, *kinds):
    """The JSON object in ``path``; it must exist and be of one of ``kinds``."""
    if not os.path.exists(path):
        raise UsageError(f"input file not found: {path}")
    obj = io.load_json(path)
    kind = io.kind_of(obj)
    if kind not in kinds:
        raise FormatError(f"{path}: expected a {' or '.join(kinds)} file, found {kind}")
    return obj


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
# subcommands
# ---------------------------------------------------------------------------

def cmd_cohomology(args):
    rep = Report("cohomology")
    obj = _load(args.space, "complex", "cover")
    kind = obj["kind"]
    group = io.group_from_json(_load(args.group, "group"))
    if not isinstance(group, FgAbelianGroup):
        raise CechliftError("cohomology needs finitely generated coefficients")
    p = args.degree
    rep.add(f"input: {os.path.basename(args.space)} ({kind})")
    rep.add(f"coefficients: {group}")
    rep.add(f"degree: {p}")
    if kind == "complex":
        carrier = io.complex_from_json(obj)
        rep.add(f"complex: {carrier.vertex_count} vertices, dim {carrier.dim}")
    else:
        cover = io.cover_from_json(obj)
        carrier = nerve(cover)
        rep.add(f"cover: {len(cover.pieces)} pieces")
        rep.add(f"nerve: {_nerve_counts(carrier)}")
        rep.add(_goodness_line(cover, carrier))
    classes = cohomology_classes(carrier, group, p)
    rep.add(f"H^{p} = {classes.group}")
    if args.out:
        io.dump_json(io.group_to_json(classes.group), args.out)
        rep.add(f"wrote: {args.out}")
    rep.emit()
    return 0


def cmd_obstruct(args):
    rep = Report("obstruct")
    cover = io.cover_from_json(_load(args.cover, "cover"))
    nrv = nerve(cover)
    ext = io.extension_from_json(_load(args.extension, "extension"))
    g = io.transitions_from_json(_load(args.transitions, "transitions"), nrv, ext.base)
    rep.add(f"cover: {len(cover.pieces)} pieces; nerve {_nerve_counts(nrv)}")
    rep.add(
        f"extension: base order {ext.base.order}, kernel {ext.kernel}, "
        f"total order {ext.total.order}"
    )
    rep.add(f"transitions: {len(g.g)} nontrivial edges (cocycle law verified)")
    c = giraud_obstruction(g, ext)
    rep.add("obstruction cocycle: delta c = 0 verified")
    obs = obstruction_class(c)
    rep.add(f"H^2(nerve; {ext.kernel}) = {obs.cohomology}")
    rep.add(f"class: {_fmt_coords(obs.coords)}")
    for s, v in c.items():
        rep.add(f"  c{s} = {_fmt_coords(v.coords)}")
    rep.add(f"liftable: {'yes' if obs.is_zero() else 'no'}")
    if args.out:
        io.dump_json(io.cochain_to_json(c, include_cover=cover), args.out)
        rep.add(f"wrote: {args.out}")
    rep.emit()
    return 0


def cmd_tower(args):
    rep = Report("tower")
    cover = io.cover_from_json(_load(args.cover, "cover"))
    nrv = nerve(cover)
    twr = io.tower_from_json(_load(args.tower, "tower"))
    tobj = _load(args.transitions, "transitions")
    g = io.transitions_from_json(tobj, nrv, twr.extensions[0].base)
    rep.add(f"cover: {len(cover.pieces)} pieces; nerve {_nerve_counts(nrv)}")
    rep.add(f"tower: {len(twr)} extensions, kernels "
            + ", ".join(str(e.kernel) for e in twr.extensions))
    seq = tower_obstructions(g, twr)
    status, level = seq.status
    name = "LiftedTo" if status == "lifted" else "BlockedAt"
    classes_str = ", ".join(_fmt_coords(e.coords) for e in seq.entries)
    rep.add(f"status: {name}({level}), classes: [{classes_str}]")
    for e in seq.entries:
        rep.add(
            f"level {e.level}: degree {e.degree}, coefficients {e.coefficients}, "
            f"H = {e.cohomology}, class {_fmt_coords(e.coords)}"
        )
        for s, v in e.cocycle.items():
            rep.add(f"  c{s} = {_fmt_coords(v.coords)}")
    if args.out:
        payload = {
            "kind": "obstruction_sequence",
            "status": [status, level],
            "entries": [
                {
                    "level": e.level,
                    "degree": e.degree,
                    "coefficients": list(e.coefficients.moduli),
                    "cohomology": list(e.cohomology.moduli),
                    "class": list(e.coords),
                    "cocycle": io.cochain_to_json(e.cocycle),
                }
                for e in seq.entries
            ],
        }
        io.dump_json(payload, args.out)
        rep.add(f"wrote: {args.out}")
    rep.emit()
    return 0


def cmd_bockstein(args):
    rep = Report("bockstein")
    cobj = _load(args.cochain, "cochain")
    if "cover" not in cobj:
        raise FormatError(f"{args.cochain}: bockstein needs a cochain file with an embedded cover")
    x, cover = io.cochain_from_json(cobj)
    ses = io.ses_from_json(_load(args.ses, "ses"))
    rep.add(f"cochain: degree {x.degree}, coefficients {x.group}, support {len(x.values)}")
    rep.add(f"sequence: 0 -> {ses.A} -> {ses.B} -> {ses.C} -> 0 (exactness verified)")
    out = bockstein(x, ses)
    rep.add(f"result: degree {out.degree}, coefficients {out.group} (delta = 0 verified)")
    obs = obstruction_class(out)
    rep.add(f"H^{out.degree}(nerve; {ses.A}) = {obs.cohomology}")
    rep.add(f"class: {_fmt_coords(obs.coords)}")
    for s, v in out.items():
        rep.add(f"  b{s} = {_fmt_coords(v.coords)}")
    if args.out:
        io.dump_json(io.cochain_to_json(out, include_cover=cover), args.out)
        rep.add(f"wrote: {args.out}")
    rep.emit()
    return 0


def cmd_descent(args):
    rep = Report("descent")
    cover = io.cover_from_json(_load(args.cover, "cover"))
    nrv = nerve(cover)
    c = io.cochain_from_json(_load(args.cocycle, "cochain"), carrier=nrv)
    if c.group != CIRCLE:
        raise FormatError("descent needs a circle-valued classifying cocycle")
    rep.add(f"cover: {len(cover.pieces)} pieces; nerve {_nerve_counts(nrv)}")
    pkg = descent_chain(c, cover, nrv)
    rep.add(f"good cover: yes (acyclic intersections up to degree {cover.base.dim + 1})")
    rep.add(f"package: degree {pkg.degree}, layers {sorted(pkg.layers)}")
    rep.add("descent equations: verified exactly")
    for q in sorted(pkg.layers):
        rep.add(f"layer {q}: bidegree ({q},{pkg.degree - q}), support {len(pkg.layers[q].num)}")
    if args.out:
        io.dump_json(io.package_to_json(pkg), args.out)
        rep.add(f"wrote: {args.out}")
    rep.emit()
    return 0


def cmd_curvature(args):
    rep = Report("curvature")
    pkg = io.package_from_json(_load(args.package, "package"))
    rep.add(f"package: degree {pkg.degree} (equations re-verified)")
    f = curvature(pkg)
    rep.add(f"curvature: degree {f.degree}, support {len(f.values)}")
    rep.add("glued consistently on overlaps: yes")
    rep.add("closed (D F = 0): yes")
    for s, v in f.items():
        rep.add(f"  F{s} = {v}")
    if args.out:
        io.dump_json(io.rational_cochain_to_json(f, pkg.cover.base), args.out)
        rep.add(f"wrote: {args.out}")
    rep.emit()
    return 0


def cmd_holonomy(args):
    rep = Report("holonomy")
    pkg = io.package_from_json(_load(args.package, "package"))
    z = io.chain_from_json(_load(args.cycle, "chain"), pkg.cover.base)
    support = downward_closure(z.coefficients.keys())
    v = SimplicialComplex._trusted(pkg.cover.base.vertex_count, support)
    rep.add(f"package: degree {pkg.degree} (equations re-verified)")
    rep.add(f"cycle: degree {z.degree}, {len(z.coefficients)} cells; boundary zero: "
            f"{'yes' if not chain_boundary(z).coefficients else 'no'}")
    rep.add(f"restriction subcomplex: {len(v.simplices)} simplices, dim {v.dim}")
    h = holonomy(pkg, v, z)
    rep.add(f"holonomy = {h.value} (mod 1)")
    if args.out:
        io.dump_json(io.circle_value_to_json(h), args.out)
        rep.add(f"wrote: {args.out}")
    rep.emit()
    return 0


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _fixture_files(name):
    from .io import (
        chain_to_json,
        complex_to_json,
        cover_to_json,
        extension_to_json,
        group_to_json,
        package_to_json,
        tower_to_json,
        transitions_to_json,
    )
    from .tower import ExtensionTower

    z = FgAbelianGroup((0,))
    z2 = FgAbelianGroup((2,))
    if name == "circle":
        from .io import cochain_to_json

        hexa = fx.hexagon()
        cov = fx.three_arc_cover(hexa)
        nrv = nerve(cov)
        files = {
            "circle.cplx": complex_to_json(hexa),
            "circle.cov": cover_to_json(cov),
            "hexcycle.chn": chain_to_json(fx.hexagon_cycle(hexa)),
            "dbl.trn": transitions_to_json(fx.circle_double_cover_transitions(nrv)),
            "z2-z4.twr": tower_to_json(ExtensionTower([fx.z2_z4_extension()])),
            "z2-z4.ext": extension_to_json(fx.z2_z4_extension()),
            "flat_bundle.pkg": package_to_json(fx.circle_flat_package(Fraction(1, 3))),
            "theta.cochain": cochain_to_json(
                fx.circle_flat_cocycle(nrv, Fraction(1, 3))
            ),
            "z.grp": group_to_json(z),
            "z2.grp": group_to_json(z2),
            "qz.grp": group_to_json(CIRCLE),
        }
    elif name == "delta3":
        from .complexes import star_cover

        bd3 = fx.boundary_delta3()
        files = {
            "delta3.cplx": complex_to_json(bd3),
            "delta3_star.cov": cover_to_json(star_cover(bd3)),
            "delta3cycle.chn": chain_to_json(fx.boundary_delta3_cycle(bd3)),
            "z.grp": group_to_json(z),
        }
    elif name == "rp2":
        from .io import cochain_to_json, ses_to_json

        cover, nrv = fx.rp2_good_cover()
        twr = fx.z2_tower(2)
        files = {
            "rp2.cplx": complex_to_json(fx.rp2_minimal()),
            "rp2.cov": cover_to_json(cover),
            "w1.trn": transitions_to_json(fx.rp2_orientation_transitions(nrv)),
            "w1.cochain": cochain_to_json(fx.rp2_orientation_cocycle(nrv), include_cover=cover),
            "z2-z4.ext": extension_to_json(fx.z2_z4_extension()),
            "rp2_tower.twr": tower_to_json(twr),
            "z2z4z2.ses": ses_to_json(twr.derived_sequence(1)),
            "z.grp": group_to_json(z),
            "z2.grp": group_to_json(z2),
        }
    elif name == "torus":
        torus, cov = fx.torus_product()
        files = {
            "torus.cplx": complex_to_json(torus),
            "torus.cov": cover_to_json(cov),
            "torus_cycle.chn": chain_to_json(fx.torus_cycle(torus)),
            "flat_gerbe.pkg": package_to_json(fx.torus_flat_gerbe(Fraction(1, 3))),
            "z.grp": group_to_json(z),
        }
    else:
        raise UsageError(f"unknown fixture {name!r}; choose from circle, delta3, rp2, torus")
    return files


def cmd_fixtures(args):
    rep = Report("fixtures")
    outdir = args.out or "."
    files = _fixture_files(args.name)
    os.makedirs(outdir, exist_ok=True)
    for fname in sorted(files):
        path = os.path.join(outdir, fname)
        io.dump_json(files[fname], path)
        rep.add(f"wrote: {path}")
    rep.emit()
    return 0


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    token = abelian.SNF_VERIFY.set(getattr(args, "verify", "fast") == "full")
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except CechliftError as exc:
        sys.stderr.write(f"error [{type(exc).__name__}]: {exc}\n")
        return 1
    finally:
        abelian.SNF_VERIFY.reset(token)


if __name__ == "__main__":
    sys.exit(main())
