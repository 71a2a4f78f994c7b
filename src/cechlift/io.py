"""JSON container formats for every domain object, and the CLI's artifacts.

One container format with a "kind" discriminator; emitted artifacts are
canonical (sorted keys, sorted simplices, fixed separators) so repeated
runs are byte-identical.  Every container ``load_typed`` knows re-parses
to an equal value; a cochain re-parses through ``cochain_from_json``, and
the obstruction sequence is an output only, with no loader.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
from collections import Counter
from fractions import Fraction

from . import abelian, deligne, tower
from .abelian import CIRCLE, CircleElement, FgAbelianGroup, GroupElement, Homomorphism, ShortExactSequence
from .cochains import Cochain
from .complexes import (
    Chain,
    Cover,
    SimplicialComplex,
    downward_closure,
    maximal_simplices,
    nerve,
    star_cover,
    validate_complex,
)
from .errors import DuplicateVertexInSimplex, FormatError, InvalidCover


def _require(obj, key, kind):
    if not isinstance(obj, dict):
        raise FormatError(f"{kind} must be an object, not {obj!r}")
    if key not in obj:
        raise FormatError(f"{kind} object is missing '{key}'")
    return obj[key]


def _integer(value, what):
    """A JSON integer (not a float or a bool), else FormatError."""
    if type(value) is not int:
        raise FormatError(f"{what} must be an integer, not {value!r}")
    return value


def _require_integer(obj, key, kind):
    return _integer(_require(obj, key, kind), f"{kind} '{key}'")


def _require_list(obj, key, kind):
    value = _require(obj, key, kind)
    if not isinstance(value, list):
        raise FormatError(f"{kind} '{key}' must be a list, not {value!r}")
    return value


def _put(mapping, key, value, what):
    """Set ``mapping[key]``; a key given twice is a FormatError naming it."""
    if key in mapping:
        raise FormatError(f"{what} {key} is given more than once")
    mapping[key] = value


def _simplex(value, what):
    """The tuple of a list of JSON integers, else FormatError."""
    if not (isinstance(value, list) and all(type(v) is int for v in value)):
        raise FormatError(f"{what} must be a list of integers, not {value!r}")
    return tuple(value)


def _integer_rows(raw, what):
    """A matrix given as a list of rows of JSON integers, as a tuple of tuples."""
    if not isinstance(raw, list) or not all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in raw
    ):
        raise FormatError(f"{what} must be a list of integer rows, not {raw!r}")
    return tuple(map(tuple, raw))


def _fraction(obj, what):
    """The Fraction of a ``{"num": p, "den": q}`` object, p and q integers, q != 0."""
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a {{'num':p,'den':q}} object, not {obj!r}")
    num = _require_integer(obj, "num", what)
    den = _require_integer(obj, "den", what)
    if den == 0:
        raise FormatError(f"{what}: 'den' must be nonzero")
    return Fraction(num, den)


def load_json(path):
    """The JSON value in ``path``; FormatError when it is not UTF-8 JSON or
    nests too deeply for the parser."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def _json_text(obj):
    """``obj`` as one line of compact, key-sorted JSON."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def dump_json(obj, path):
    """Write ``obj`` as one line of compact, key-sorted JSON, in one write."""
    text = _json_text(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def dump_json_files(objs):
    """Write each ``{path: obj}`` as ``dump_json`` does: every file, or none.

    Every object is encoded, and every path checked not to be a
    directory, before anything is written.  Each text goes to
    ``<path>.tmp`` first, and the temporaries are renamed over their
    paths only once all of them are written; a failure removes the
    temporaries this call opened, and one before the renames leaves
    every path as it was.
    """
    texts = {path: _json_text(obj) for path, obj in objs.items()}
    for path in texts:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    temps = []
    try:
        for path, text in texts.items():
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                temps.append(tmp)
                fh.write(text)
        for tmp, path in zip(temps, texts):
            os.replace(tmp, path)
    except OSError:
        for tmp in temps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def kind_of(obj):
    """The "kind" of a container object; a bare list of extensions is a tower."""
    if isinstance(obj, list):
        return "tower"
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError("top-level object must carry a 'kind' discriminator")
    return obj["kind"]


def load_container(path, *kinds):
    """The container object in ``path``; when ``kinds`` are given, its kind
    must be one of them."""
    obj = load_json(path)
    kind = kind_of(obj)
    if kinds and kind not in kinds:
        wanted = " or ".join(kinds)
        article = "an" if wanted[0] in "aeiou" else "a"
        raise FormatError(f"{path}: expected {article} {wanted} file, found {kind}")
    return obj


# -- complexes --------------------------------------------------------------

#: Largest order of a finite group, or of an extension's total group, read
#: from a file.  Loading is cubic in the base order: an extension of a
#: 180-element base, the slowest input this admits, loads in 0.9 to 1.2 s
#: (2-core x86-64, Python 3.11).  The largest tower built, z2_tower(4), has
#: total order 32.
MAX_GROUP_ORDER = 180

#: A complex or cover file may make the library build at most BUDGET_FLOOR +
#: BUDGET_PER_ID x L simplices in a complex's closure, in a cover's pieces and
#: in its nerve's intersections, L the vertex ids it lists for each (for the
#: nerve, the base's and the pieces').  Per listed id, triangles build 0.75 to
#: 2.33 (fixtures, dual-block covers, squares of arc covers), 4-simplices 6.2,
#: blow-ups 340 to 7,710.  The worst small files the floor admits, a 14-vertex
#: simplex and 14 pieces of one vertex, take 1.4 s and 1.8 s (`cohomology -p 6`,
#: 2-core x86-64, Python 3.11); a 15-vertex simplex, refused, takes 6.2 s.
BUDGET_FLOOR = 2**14
BUDGET_PER_ID = 8


def _check_budget(what, built, faces, witness):
    """Refuse ``built`` simplices past the budget of the ids ``faces`` list."""
    listed = sum(map(len, faces))
    limit = BUDGET_FLOOR + BUDGET_PER_ID * listed
    if built > limit:
        # str() refuses ints of over 4,300 digits
        shown = built if built.bit_length() <= 64 else f"at least 2^{built.bit_length() - 1}"
        raise FormatError(f"{what} {shown} simplices, over the limit {limit} for {listed} listed "
                          f"vertex ids; {witness()}")


def _check_closure(what, faces):
    """Refuse faces whose closure may pass their budget, naming the largest."""
    top = max(faces, key=len, default=())
    _check_budget(f"{what}: closing the faces may build", sum((1 << len(f)) - 1 for f in faces),
                  faces, lambda: f"the largest face {top} has {len(top)} vertices")


def _maximal_faces(simplices):
    """The maximal simplices, sorted, as lists."""
    return [list(s) for s in maximal_simplices(simplices)]


def _raw_faces(raw, vertices, what):
    """Check raw faces before any closure is taken; return them as sorted tuples.

    Every face must be a list of JSON integers in [0, vertices) (no
    bound when ``vertices`` is None) with no vertex repeated.
    """
    if not isinstance(raw, list) or not all(isinstance(face, list) for face in raw):
        raise FormatError(f"{what} must be a list of vertex lists")
    bound = float("inf") if vertices is None else vertices
    for face in raw:
        if not all(type(v) is int and 0 <= v < bound for v in face):
            raise FormatError(f"{what}: {face} is not a list of integer vertices in [0, {bound})")
        if len(set(face)) != len(face):
            raise DuplicateVertexInSimplex(f"{what}: repeated vertex in {tuple(face)}")
    return [tuple(sorted(face)) for face in raw]


def complex_to_json(k):
    return {"kind": "complex", "vertices": k.vertex_count, "simplices": _maximal_faces(k.simplices)}


def complex_from_json(obj):
    raw = _require(obj, "simplices", "complex")
    vertices = obj.get("vertices")
    if vertices is not None and not (type(vertices) is int and vertices >= 0):
        raise FormatError(f"complex: 'vertices' must be an integer >= 0, not {vertices!r}")
    faces = _raw_faces(raw, vertices, "complex simplices")
    _check_closure("complex simplices", faces)
    return validate_complex(faces, vertex_count=vertices)


# -- covers -----------------------------------------------------------------

def cover_to_json(c):
    pieces = [_maximal_faces(piece.simplices) for piece in c.pieces]
    return {"kind": "cover", "base": complex_to_json(c.base), "pieces": pieces}


def cover_from_json(obj):
    base = complex_from_json(_require(obj, "base", "cover"))
    star = obj.get("star_cover", False)
    if type(star) is not bool:
        raise FormatError(f"cover 'star_cover' must be true or false, not {star!r}")
    if star and "pieces" in obj:
        raise FormatError("cover: 'star_cover' true and 'pieces' are given together")
    pieces = []
    for i, praw in enumerate([] if star else _require_list(obj, "pieces", "cover")):
        pieces.append(_raw_faces(praw, base.vertex_count, f"cover piece {i}"))
        if not all(base.has_simplex(s) for s in pieces[-1] if s):
            raise InvalidCover(f"piece {i} is not a subcomplex of the base")
    faces = [face for piece in pieces for face in piece]
    _check_closure("cover pieces", faces)
    closed = (SimplicialComplex._trusted(base.vertex_count, downward_closure(p)) for p in pieces)
    cover = star_cover(base) if star else Cover(base, tuple(closed))
    # W_t holds s for each of the 2^k - 1 nonempty sets t of the k pieces at s
    at = Counter(s for piece in cover.pieces for s in piece.simplices)
    built = sum((1 << k) - 1 for k in at.values())
    listed = obj["base"]["simplices"] + faces

    def witness():
        most = min(at, key=lambda s: (-at[s], s))
        return f"simplex {most} lies in {at[most]} pieces"

    _check_budget("cover: the nerve's intersections may hold", built, listed, witness)
    return cover


# -- groups and elements ----------------------------------------------------

def group_to_json(g):
    if isinstance(g, abelian.CircleGroup):
        return {"kind": "group", "circle": True}
    return {"kind": "group", "moduli": list(g.moduli)}


def _moduli_group(obj, what):
    """The FgAbelianGroup of ``{"moduli": [...]}``, every modulus a JSON integer."""
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be an object with 'moduli'")
    moduli = _require(obj, "moduli", what)
    if not isinstance(moduli, list) or not all(type(m) is int for m in moduli):
        raise FormatError(f"{what}: 'moduli' must be a list of integers, not {moduli!r}")
    try:
        return FgAbelianGroup(moduli)
    except ValueError as exc:
        raise FormatError(f"{what}: {exc}") from exc


def group_from_json(obj):
    circle = obj.get("circle", False) if isinstance(obj, dict) else False
    if type(circle) is not bool:
        raise FormatError(f"group 'circle' must be true or false, not {circle!r}")
    if circle and "moduli" in obj:
        raise FormatError("group: 'circle' true and 'moduli' are given together")
    return CIRCLE if circle else _moduli_group(obj, "group")


def element_to_json(v):
    if isinstance(v, GroupElement):
        return list(v.coords)
    if isinstance(v, CircleElement):
        return {"num": v.value.numerator, "den": v.value.denominator}
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    raise FormatError(f"cannot serialize element {v!r}")


def element_from_json(group, obj):
    if isinstance(group, abelian.CircleGroup):
        return CircleElement(_fraction(obj, "circle element"))
    if not (isinstance(obj, list) and len(obj) == group.rank and all(type(c) is int for c in obj)):
        raise FormatError(
            f"elements of {group} are integer lists of length {group.rank}, not {obj!r}"
        )
    return GroupElement(group, tuple(obj))


# -- chains ------------------------------------------------------------------

def chain_to_json(z):
    return {
        "kind": "chain",
        "degree": z.degree,
        "cells": [
            {"simplex": list(s), "coeff": c} for s, c in sorted(z.coefficients.items())
        ],
    }


def chain_from_json(obj, complex_):
    degree = _require_integer(obj, "degree", "chain")
    coeffs = {}
    for cell in _require_list(obj, "cells", "chain"):
        s = _simplex(_require(cell, "simplex", "chain cell"), "chain simplex")
        _put(coeffs, s, _integer(_require(cell, "coeff", "chain cell"), "chain coefficient"),
             "chain simplex")
    return Chain(complex_, degree, coeffs)


# -- cochains ----------------------------------------------------------------

def cochain_to_json(x, include_cover=None):
    out = {
        "kind": "cochain",
        "degree": x.degree,
        "coefficients": group_to_json(x.group),
        "values": [
            {"indices": list(s), "value": element_to_json(v)} for s, v in x.items()
        ],
    }
    if include_cover is not None:
        out["cover"] = cover_to_json(include_cover)
    return out


def cochain_from_json(obj, carrier=None):
    """Rebuild a cochain; the carrier comes from context or the embedded
    cover (whose nerve is used)."""
    cover = None
    if carrier is None:
        if "cover" not in obj:
            raise FormatError("cochain file has no embedded cover and no context")
        cover = cover_from_json(obj["cover"])
        carrier = nerve(cover)
    group = group_from_json(_require(obj, "coefficients", "cochain"))
    degree = _require_integer(obj, "degree", "cochain")
    values = {}
    for entry in _require_list(obj, "values", "cochain"):
        indices = _simplex(_require(entry, "indices", "cochain value"), "cochain indices")
        _put(values, indices, element_from_json(group, _require(entry, "value", "cochain value")),
             "cochain indices")
    x = Cochain(carrier, degree, group, values)
    return (x, cover) if cover is not None else x


# -- finite groups, extensions, towers, transitions ---------------------------

def finite_group_to_json(g):
    return {
        "kind": "finite_group",
        "order": g.order,
        "identity": g.identity,
        "table": [list(r) for r in g.table],
    }


def finite_group_from_json(obj):
    table = _integer_rows(_require(obj, "table", "finite_group"), "finite_group 'table'")
    if len(table) > MAX_GROUP_ORDER:
        raise FormatError(f"finite_group: order {len(table)} is over the limit {MAX_GROUP_ORDER}")
    identity = obj.get("identity")
    if identity is not None:
        _integer(identity, "finite_group 'identity'")
    try:
        return tower.FiniteGroup(table, identity)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def extension_to_json(e):
    return {
        "kind": "extension",
        "base": finite_group_to_json(e.base),
        "kernel": {"moduli": list(e.kernel.moduli)},
        "factor_set": [
            [list(v.coords) for v in row] for row in e.factor_set
        ],
    }


def extension_from_json(obj):
    base = finite_group_from_json(_require(obj, "base", "extension"))
    kernel = _moduli_group(_require(obj, "kernel", "extension"), "extension kernel")
    n = base.order
    # a free kernel factor makes the product 0; CentralExtension refuses it
    order = n * math.prod(kernel.moduli)
    if order > MAX_GROUP_ORDER:
        raise FormatError(f"extension: total order {order} is over the limit {MAX_GROUP_ORDER}")
    raw = _require_list(obj, "factor_set", "extension")
    if len(raw) != n or not all(isinstance(row, list) and len(row) == n for row in raw):
        raise FormatError(f"extension 'factor_set' must be {n} rows of {n} kernel elements")
    fs = [[element_from_json(kernel, v) for v in row] for row in raw]
    return tower.CentralExtension(base, kernel, fs)


def tower_to_json(t):
    return {"kind": "tower", "extensions": [extension_to_json(e) for e in t.extensions]}


def tower_from_json(obj):
    raw = obj if isinstance(obj, list) else _require_list(obj, "extensions", "tower")
    if not raw:
        raise FormatError("a tower needs at least one extension")
    return tower.ExtensionTower([extension_from_json(e) for e in raw])


def transitions_to_json(g):
    return {
        "kind": "transitions",
        "edges": [{"i": i, "j": j, "g": v} for (i, j), v in g.items()],
    }


def transitions_from_json(obj, nerve_, group):
    g = {}
    for e in _require_list(obj, "edges", "transitions"):
        if not isinstance(e, dict):
            raise FormatError(f"transitions edges are {{'i','j','g'}} objects, not {e!r}")
        i, j, v = (_require_integer(e, k, "transitions edge") for k in "ijg")
        _put(g, (i, j), v, "transitions edge")
    return tower.TransitionCocycle(nerve_, group, g)


# -- short exact sequences ----------------------------------------------------

def ses_to_json(s):
    return {
        "kind": "ses",
        "A": {"moduli": list(s.A.moduli)},
        "B": {"moduli": list(s.B.moduli)},
        "C": {"moduli": list(s.C.moduli)},
        "inject": [list(r) for r in s.inject.matrix],
        "project": [list(r) for r in s.project.matrix],
    }


def ses_from_json(obj):
    a, b, c = (_moduli_group(_require(obj, k, "ses"), f"ses {k}") for k in "ABC")
    inject, project = (
        _integer_rows(_require(obj, k, "ses"), f"ses '{k}'") for k in ("inject", "project")
    )
    try:
        return ShortExactSequence(
            a, b, c, Homomorphism(a, b, inject), Homomorphism(b, c, project)
        )
    except ValueError as exc:
        raise FormatError(f"not a short exact sequence: {exc}") from exc


# -- packages ------------------------------------------------------------------

def package_to_json(p):
    layers = []
    for q in sorted(p.layers):
        layer = p.layers[q]
        blocks = []
        for t, loc in sorted(layer.values.items()):
            blocks.append(
                {
                    "indices": list(t),
                    "cochain": [
                        {
                            "simplex": list(s),
                            "value": {"num": v.numerator, "den": v.denominator},
                        }
                        for s, v in sorted(loc.items())
                    ],
                }
            )
        layers.append(
            {"cech_degree": layer.cech_degree, "form_degree": layer.form_degree, "values": blocks}
        )
    return {
        "kind": "package",
        "degree": p.degree,
        "cover": cover_to_json(p.cover),
        "cocycle": cochain_to_json(p.cocycle),
        "layers": layers,
    }


def package_from_json(obj):
    cover = cover_from_json(_require(obj, "cover", "package"))
    nerve_ = nerve(cover)
    degree = _require_integer(obj, "degree", "package")
    cocycle = cochain_from_json(_require(obj, "cocycle", "package"), carrier=nerve_)
    layers = {}
    for block in _require_list(obj, "layers", "package"):
        q = _require_integer(block, "cech_degree", "package layer")
        form_degree = _require_integer(block, "form_degree", "package layer")
        values = {}
        for entry in _require_list(block, "values", "package layer"):
            t = _simplex(_require(entry, "indices", "package block"), "package block indices")
            loc = {}
            for cell in _require_list(entry, "cochain", "package block"):
                s = _simplex(_require(cell, "simplex", "package cell"), "package simplex")
                _put(loc, s, _fraction(_require(cell, "value", "package cell"), "package value"),
                     f"package block {t} simplex")
            _put(values, t, loc, f"package layer {q} block")
        _put(layers, q, deligne.DoubleCochain(cover, nerve_, q, form_degree, values),
             "package layer cech_degree")
    pkg = deligne.DelignePackage(cover, nerve_, degree, cocycle, layers)
    pkg.validate()
    return pkg


# -- result artifacts -----------------------------------------------------------

def rational_cochain_to_json(x, complex_):
    return {
        "kind": "rational_cochain",
        "complex": complex_to_json(complex_),
        "degree": x.degree,
        "values": [
            {"simplex": list(s), "num": v.numerator, "den": v.denominator}
            for s, v in x.items()
        ],
    }


def rational_cochain_from_json(obj):
    complex_ = complex_from_json(_require(obj, "complex", "rational_cochain"))
    values = {}
    for e in _require_list(obj, "values", "rational_cochain"):
        s = _simplex(_require(e, "simplex", "rational cochain value"), "rational cochain simplex")
        _put(values, s, _fraction(e, "rational cochain value"), "rational cochain simplex")
    degree = _require_integer(obj, "degree", "rational_cochain")
    return Cochain(complex_, degree, abelian.QQ, values)


def circle_value_to_json(v):
    return {"kind": "circle_value", "num": v.value.numerator, "den": v.value.denominator}


def circle_value_from_json(obj):
    return CircleElement(_fraction(obj, "circle_value"))


def obstruction_sequence_to_json(seq):
    """The status and the recorded entries of a tower run."""
    return {
        "kind": "obstruction_sequence",
        "status": list(seq.status),
        "entries": [
            {
                "level": e.level,
                "degree": e.degree,
                "coefficients": list(e.coefficients.moduli),
                "cohomology": list(e.cohomology.moduli),
                "class": list(e.coords),
                "cocycle": cochain_to_json(e.cocycle),
            }
            for e in seq.entries
        ],
    }


# -- dispatch -------------------------------------------------------------------

_LOADERS = {
    "complex": complex_from_json,
    "cover": cover_from_json,
    "group": group_from_json,
    "finite_group": finite_group_from_json,
    "extension": extension_from_json,
    "tower": tower_from_json,
    "ses": ses_from_json,
    "package": package_from_json,
    "rational_cochain": rational_cochain_from_json,
    "circle_value": circle_value_from_json,
}


def load_typed(path, expect=None):
    """Load a container file, optionally enforcing its kind."""
    obj = load_container(path, expect) if expect is not None else load_container(path)
    kind = kind_of(obj)
    loader = _LOADERS.get(kind)
    if loader is None:
        raise FormatError(f"{path}: no loader for kind {kind!r}")
    return loader(obj)
