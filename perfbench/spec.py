"""What the benchmark measures: workloads, metrics, bounds and seeds.

This file is the single source of the metric definitions.  Running it
regenerates the repository's ``BENCHMARK.json``, the summary that
benchmark runners read (command, paths, run length, workloads,
end-to-end metrics with their bounds, per-layer metrics).  What that
file has no field for (seeds, metric meanings, which end-to-end number
each layer metric should move) lives here, and ``run.py`` prints it
with the metrics.

    python3 perfbench/spec.py          # rewrite BENCHMARK.json
"""

from __future__ import annotations

import json
import os

RUN_SECONDS = 30
DEFAULT_SEED = 1
#: Inputs not used while a change is being written; a claimed gain must
#: also hold here.
HOLDOUT_SEED = 7

WORKLOADS = {
    "cohomology-ladder": (
        "large-matrix work: cohomology and coboundary decisions over Z, Z/m, Q "
        "and Q/Z on a size ladder of complexes up to 48 vertices, with "
        "H^1(torus36; Z/2) in every pass"
    ),
    "lift-descent": (
        "many small distinct problems: nerve, goodness, Giraud lifts, towers, "
        "descent, curvature and holonomy on torus, RP2 and circle covers"
    ),
    "cli-batch": (
        "the CLI in-process on JSON files: parsing, re-validation, report "
        "formatting and --out writes, on small inputs only"
    ),
}

# name -> (unit, better, bound, meaning).  Every workload reports all.
# Times are reference seconds (see speed.py): measured seconds scaled by
# how fast a frozen reference computation runs beside them.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25,
               "time to solution of one batch: the sum over its jobs of each "
               "job's median latency across the passes of a run"),
    "job_s.p50": ("s", "lower", 0.25,
                  "median over jobs of each job's median latency "
                  "(Harrell-Davis estimate)"),
    "job_s.p90": ("s", "lower", 0.25,
                  "90th percentile of the same; a batch has >= 100 jobs"),
    "setup_s": ("s", "lower", 0.25,
                "import cechlift plus input construction in a fresh child; "
                "median of several children"),
    "peak_rss_mb": ("MiB", "lower", 0.1,
                    "peak resident memory of the measuring child"),
}

# Per-layer metrics of the traced pass: name -> (unit, should move).
_LADDER = "cohomology-ladder"
_LIFT = "lift-descent"
_CLI = "cli-batch"
_K = f"wall_s and job_s.p90 on {_LADDER}; somewhat on {_LIFT}; little on {_CLI}"
_A = f"wall_s on {_LADDER}, through the augmented [d | m*I] path for Z/m"
_C = f"peak_rss_mb and wall_s on {_LADDER} (dense to sparse); job_s.p50 on {_LIFT}"
_CO = (f"job_s.p50 on {_LIFT} and {_CLI} (goodness checks); "
       f"job_s.p50 on {_LADDER} (decisions)")
_T = f"job_s.p50 on {_LIFT} and {_CLI}"
_D = f"job_s.p90 on {_LIFT}"
_IO = f"job_s.p50 on {_CLI}"
PER_LAYER = {
    "kernels.snf.calls": ("count", _K),
    "kernels.snf.busy_s": ("s", _K),
    "kernels.snf.cells": ("count", _K),
    "kernels.snf.max_cells": ("count", _K),
    "kernels.snf.repeat_frac": ("fraction", _K),
    "abelian.solve.calls.Z": ("count", _A),
    "abelian.solve.calls.Zm": ("count", _A),
    "abelian.solve.calls.Q": ("count", _A),
    "abelian.solve.busy_s": ("s", _A),
    "abelian.cohomology.calls": ("count", _A),
    "abelian.self_s": ("s", _A),
    "complexes.matrix.calls": ("count", _C),
    "complexes.matrix.busy_s": ("s", _C),
    "complexes.matrix.cells": ("count", _C),
    "complexes.matrix.nnz": ("count", _C),
    "complexes.nerve.calls": ("count", _C),
    "complexes.nerve.busy_s": ("s", _C),
    "complexes.self_s": ("s", _C),
    "cochains.cohomology_classes.calls": ("count", _CO),
    "cochains.cohomology_classes.busy_s": ("s", _CO),
    "cochains.is_coboundary.calls.Z": ("count", _CO),
    "cochains.is_coboundary.calls.Zm": ("count", _CO),
    "cochains.is_coboundary.calls.Q": ("count", _CO),
    "cochains.is_coboundary.calls.QZ": ("count", _CO),
    "cochains.is_coboundary.busy_s": ("s", _CO),
    "cochains.goodness.calls": ("count", _CO),
    "cochains.goodness.intersections": ("count", _CO),
    "cochains.goodness.busy_s": ("s", _CO),
    "cochains.self_s": ("s", _CO),
    "tower.build.busy_s": ("s", _T),
    "tower.giraud.calls": ("count", _T),
    "tower.giraud.busy_s": ("s", _T),
    "tower.bockstein.calls": ("count", _T),
    "tower.obstructions.busy_s": ("s", _T),
    "tower.self_s": ("s", _T),
    "deligne.descent.busy_s": ("s", _D),
    "deligne.validate.calls": ("count", _D),
    "deligne.curvature.busy_s": ("s", _D),
    "deligne.holonomy.busy_s": ("s", _D),
    "deligne.self_s": ("s", _D),
    "io.load.calls": ("count", _IO),
    "io.load.busy_s": ("s", _IO),
    "io.load.bytes": ("B", _IO),
    "io.dump.calls": ("count", _IO),
    "io.dump.busy_s": ("s", _IO),
    "io.dump.bytes": ("B", _IO),
    "cli.main.calls": ("count", _IO),
    "cli.self_s": ("s", _IO),
    "trace.overhead_frac": ("fraction", "none: traced wall_s / untraced wall_s - 1"),
}


def benchmark_json():
    """The content of BENCHMARK.json, keys in their documented order."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": unit, "better": better, "bound": bound}
            for n, (unit, better, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": unit, "better": "lower"}
            for n, (unit, _) in PER_LAYER.items()
        ],
    }


def write_benchmark_json(root):
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
    return path


if __name__ == "__main__":
    print(write_benchmark_json(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
