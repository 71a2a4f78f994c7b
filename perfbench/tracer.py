"""Spans around the library's public functions, installed from outside.

``Tracer.install`` wraps every public function and method of the layer
modules (one layer per module of ``cechlift``) and rebinds each wrapper
in every module namespace that holds the function by name, so that
``from .cochains import is_coboundary`` in ``tower`` and ``cli`` is
traced too; ``remove`` puts the originals back.  A span is recorded
only while a job's timed call runs: name, start, end, parent span and
job index, kept in flat arrays and written out when the run ends.

Per-layer metrics are derived from the spans afterwards.  A layer's self
time is the duration of its spans minus the time covered by their
child spans; ``busy_s`` of a function family sums its outermost spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter
from types import FunctionType

LAYERS = ("kernels", "abelian", "complexes", "cochains", "tower", "deligne", "io", "cli")

#: Accessors called per simplex or per group element.  Each body is a
#: lookup or two; a span around them would cost more than the call and
#: its time belongs to the caller's layer anyway.
SKIP = frozenset({
    "simplices_of_dim", "has_simplex", "dim", "vertices", "is_empty", "value",
    "local", "cech_value", "mul", "inv", "zero", "element", "is_zero",
    "is_zero_value", "items", "rank", "is_trivial", "is_finite", "order",
    "project", "section", "embed", "kernel_part", "with_kernel_offset",
    "kernel_size", "is_integral", "is_subcomplex_of",
})

#: Constructors that count as building towers and groups.
TRACED_INITS = frozenset({"FiniteGroup", "CentralExtension", "ExtensionTower"})


class Tracer:
    def __init__(self):
        self.names = []          # span-name table
        self.name = array("i")   # per span: index into names
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes = {}          # span index -> annotation
        self.active = False
        self.current_job = -1
        self._stack = [-1]
        self._patches = []
        self._seen_matrices = set()
        self.shapes = Counter()

    # -- recording ---------------------------------------------------------

    def begin_job(self, index):
        self.current_job = index
        self._seen_matrices = set()
        self.active = True

    def end_job(self):
        self.active = False

    def _wrap(self, fn, span_name, annotate):
        name_id = len(self.names)
        self.names.append(span_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1])
            tracer.job.append(tracer.current_job)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if annotate is not None:
                tracer.notes[idx] = annotate(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, lib_modules):
        """Wrap the layer modules' public functions and methods."""
        wrappers = {}
        for layer in LAYERS:
            mod = lib_modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType) and attr not in SKIP:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", ANNOTATE.get(f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "cechlift" or n.startswith("cechlift."))]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if type(val) is FunctionType and id(val) in wrappers:
                    self._patches.append((ns, attr, val))
                    setattr(ns, attr, wrappers[id(val)])

    def _wrap_methods(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            traced_init = attr == "__init__" and cls.__name__ in TRACED_INITS
            if (attr.startswith("_") and not traced_init) or attr in SKIP:
                continue
            span = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, FunctionType):
                wrapped = self._wrap(member, span, ANNOTATE.get(span))
            elif isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(member.__func__, span, None))
            else:
                continue
            self._patches.append((cls, attr, member))
            setattr(cls, attr, wrapped)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- derived metrics ---------------------------------------------------

    def _outermost(self, names):
        """Indices of spans named in ``names`` with no such ancestor."""
        ids = {i for i, n in enumerate(self.names) if n in names}
        inside = array("b", bytes(len(self.start)))
        out = []
        for i in range(len(self.start)):
            p = self.parent[i]
            nested = p >= 0 and (inside[p] or self.name[p] in ids)
            inside[i] = nested
            if self.name[i] in ids and not nested:
                out.append(i)
        return out

    def _busy(self, names):
        return sum(self.end[i] - self.start[i] for i in self._outermost(names))

    def _count(self, names):
        ids = {i for i, n in enumerate(self.names) if n in names}
        return sum(1 for n in self.name if n in ids)

    def _notes(self, names):
        ids = {i for i, n in enumerate(self.names) if n in names}
        return [self.notes[i] for i in range(len(self.start)) if self.name[i] in ids and i in self.notes]

    def self_times(self):
        """Layer -> summed span time not covered by child spans."""
        child = array("d", bytes(8 * len(self.start)))
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(len(self.start)):
            layer = self.names[self.name[i]].split(".", 1)[0]
            out[layer] += self.end[i] - self.start[i] - child[i]
        return out

    def layer_metrics(self):
        snf = {"kernels.snf_with_transforms"}
        solves = {"abelian.solve_integer", "abelian.solve_linear", "abelian.solve_rational"}
        matrices = {f"complexes.{c}.{m}" for c in ("SimplicialComplex", "Nerve")
                    for m in ("coboundary_matrix", "boundary_matrix")}
        builds = {"tower.build_extension", "tower.split_extension"} | {
            f"tower.{c}.__init__" for c in TRACED_INITS}
        snf_notes = self._notes(snf)
        solve_rings = Counter(self.notes.get(i) for i in self._outermost(solves))
        cob_rings = Counter(self._notes({"cochains.is_coboundary"}))
        matrix_notes = self._notes(matrices)
        loads = self._notes({"io.load_json"})
        dumps = self._notes({"io.dump_json"})
        self_s = self.self_times()
        calls = len(snf_notes)
        return {
            "kernels.snf.calls": calls,
            "kernels.snf.busy_s": self._busy(snf),
            "kernels.snf.cells": sum(n[0] for n in snf_notes),
            "kernels.snf.max_cells": max((n[0] for n in snf_notes), default=0),
            "kernels.snf.repeat_frac": sum(n[1] for n in snf_notes) / calls if calls else 0.0,
            "abelian.solve.calls.Z": solve_rings["Z"],
            "abelian.solve.calls.Zm": solve_rings["Zm"],
            "abelian.solve.calls.Q": solve_rings["Q"],
            "abelian.solve.busy_s": self._busy(solves),
            "abelian.cohomology.calls": self._count({"abelian.cohomology_with_coords"}),
            "abelian.self_s": self_s["abelian"],
            "complexes.matrix.calls": len(matrix_notes),
            "complexes.matrix.busy_s": self._busy(matrices),
            "complexes.matrix.cells": sum(n[0] for n in matrix_notes),
            "complexes.matrix.nnz": sum(n[1] for n in matrix_notes),
            "complexes.nerve.calls": self._count({"complexes.nerve"}),
            "complexes.nerve.busy_s": self._busy({"complexes.nerve"}),
            "complexes.self_s": self_s["complexes"],
            "cochains.cohomology_classes.calls": self._count({"cochains.cohomology_classes"}),
            "cochains.cohomology_classes.busy_s": self._busy({"cochains.cohomology_classes"}),
            "cochains.is_coboundary.calls.Z": cob_rings["Z"],
            "cochains.is_coboundary.calls.Zm": cob_rings["Zm"],
            "cochains.is_coboundary.calls.Q": cob_rings["Q"],
            "cochains.is_coboundary.calls.QZ": cob_rings["QZ"],
            "cochains.is_coboundary.busy_s": self._busy({"cochains.is_coboundary"}),
            "cochains.goodness.calls": self._count({"cochains.verify_good_cover"}),
            "cochains.goodness.intersections": sum(self._notes({"cochains.verify_good_cover"})),
            "cochains.goodness.busy_s": self._busy({"cochains.verify_good_cover"}),
            "cochains.self_s": self_s["cochains"],
            "tower.build.busy_s": self._busy(builds),
            "tower.giraud.calls": self._count({"tower.giraud_obstruction"}),
            "tower.giraud.busy_s": self._busy({"tower.giraud_obstruction"}),
            "tower.bockstein.calls": self._count({"tower.bockstein"}),
            "tower.obstructions.busy_s": self._busy({"tower.tower_obstructions"}),
            "tower.self_s": self_s["tower"],
            "deligne.descent.busy_s": self._busy({"deligne.descent_chain"}),
            "deligne.validate.calls": self._count({"deligne.DelignePackage.validate"}),
            "deligne.curvature.busy_s": self._busy({"deligne.curvature", "deligne.characteristic_form"}),
            "deligne.holonomy.busy_s": self._busy({"deligne.holonomy"}),
            "deligne.self_s": self_s["deligne"],
            "io.load.calls": len(loads),
            "io.load.busy_s": self._busy({"io.load_json", "io.load_typed"}),
            "io.load.bytes": sum(loads),
            "io.dump.calls": len(dumps),
            "io.dump.busy_s": self._busy({"io.dump_json"}),
            "io.dump.bytes": sum(dumps),
            "cli.main.calls": self._count({"cli.main"}),
            "cli.self_s": self_s["cli"],
        }

    def write(self, path):
        """All spans as JSON: a name table and one row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "columns": ["name", "parent", "job", "start", "end"],
                "spans": [
                    [self.name[i], self.parent[i], self.job[i], self.start[i], self.end[i]]
                    for i in range(len(self.start))
                ],
            }, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# annotations: (tracer, args, kwargs, result) -> note kept with the span
# ---------------------------------------------------------------------------

def _snf_note(tracer, args, kwargs, result):
    mat = args[0]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    tracer.shapes[(rows, cols)] += 1
    key = tuple(map(tuple, mat))
    repeat = key in tracer._seen_matrices
    tracer._seen_matrices.add(key)
    return rows * cols, int(repeat)


def _ring(group):
    moduli = getattr(group, "moduli", None)
    if moduli is None:
        return "QZ" if type(group).__name__ == "CircleGroup" else "Q"
    return "Zm" if any(moduli) else "Z"


def _solve_linear_note(tracer, args, kwargs, result):
    moduli = args[2] if len(args) > 2 else kwargs["moduli"]
    if isinstance(moduli, int):
        moduli = [moduli]
    return "Zm" if any(moduli) else "Z"


def _matrix_note(tracer, args, kwargs, result):
    rows = len(result)
    cols = len(result[0]) if rows else 0
    return rows * cols, sum(1 for row in result for v in row if v)


def _goodness_note(tracer, args, kwargs, result):
    nerve_ = args[1] if len(args) > 1 else kwargs["nerve_"]
    return len(nerve_.simplices)


ANNOTATE = {
    "kernels.snf_with_transforms": _snf_note,
    "abelian.solve_integer": lambda t, a, k, r: "Z",
    "abelian.solve_rational": lambda t, a, k, r: "Q",
    "abelian.solve_linear": _solve_linear_note,
    "cochains.is_coboundary": lambda t, a, k, r: _ring(a[0].group),
    "cochains.verify_good_cover": _goodness_note,
    "io.load_json": lambda t, a, k, r: os.path.getsize(a[0]),
    "io.dump_json": lambda t, a, k, r: os.path.getsize(a[1]),
    **{f"complexes.{c}.{m}": _matrix_note for c in ("SimplicialComplex", "Nerve")
       for m in ("coboundary_matrix", "boundary_matrix")},
}
