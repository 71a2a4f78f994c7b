"""One measuring process: import the checked-out library, build, run passes.

Started fresh and single-threaded by ``run.py`` for every measurement,
with the repository root as working directory.  ``--mode setup`` stops
after building the workload and reports only the set-up time;
``--mode run`` then runs passes of the job list, untraced until the time
budget is spent (``--trace 0``), or one untraced and one traced pass
(``--trace 1``), each with fresh job state.  Times are converted to
reference seconds with the speed meter of ``speed.py``, which samples
the machine's speed in and around every timed span; the raw seconds and
the conversion factors are reported too.  The result is one JSON object
on stdout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ("abelian", "cochains", "complexes", "deligne", "fixtures", "io", "kernels", "tower", "cli")
MIN_PASSES = 3
WORKLOAD_MODULES = {
    "cohomology-ladder": "ladder",
    "lift-descent": "liftdescent",
    "cli-batch": "clibatch",
}


def import_library():
    """Import cechlift from this checkout's src/, on the pure-Python kernel."""
    sys.path.insert(0, SRC)
    sys.modules["cechlift._snf_cy"] = None  # an import of it now fails
    lib = SimpleNamespace(**{m: importlib.import_module(f"cechlift.{m}") for m in MODULES})
    root = os.path.realpath(SRC) + os.sep
    for mod in vars(lib).values():
        if not os.path.realpath(mod.__file__).startswith(root):
            raise SystemExit(f"{mod.__name__} imported from {mod.__file__}, not from {SRC}")
    if lib.kernels.BACKEND != "python":
        raise SystemExit(f"expected the pure-Python kernel, got {lib.kernels.BACKEND}")
    return lib


def run_pass(jobs, state, tracer=None, meter=None):
    """Run the jobs once.

    Returns (spans, failures): each job's perf_counter at its start and
    end, and its own seconds (the meter's bursts taken out).  ``state``
    carries results between jobs and passes of one run.  Each job starts
    from a collected heap, so that the garbage collections inside it fall
    at the same allocations in every pass; the collection is not timed.
    """
    spans = []
    failures = []
    for index, job in enumerate(jobs):
        try:
            args = job.prepare(state)
        except Exception as exc:  # an earlier job's result is missing or wrong
            failures.append((job.name, f"prepare: {exc!r}"))
            spans.append((0.0, 0.0, 0.0))
            continue
        gc.collect()
        if tracer is not None:
            tracer.begin_job(index)
        stolen = meter.stolen if meter else 0.0
        t0 = perf_counter()
        try:
            result, error = job.call(args), None
        except Exception as exc:  # the library raised where no error is expected
            error = exc
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_job()
        spans.append((t0, t1, t1 - t0 - (meter.stolen - stolen if meter else 0.0)))
        if error is not None:
            failures.append((job.name, f"raised {error!r}"))
            continue
        try:
            job.check(state, args, result)
        except Exception as exc:  # oracle.Mismatch, or a malformed result
            failures.append((job.name, str(exc) or repr(exc)))
    return spans, failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    os.makedirs(args.workdir)
    os.chdir(args.workdir)
    meter = speed.Meter()
    try:
        meter.sample(speed.NEAREST)
        meter.start()
        t0 = perf_counter()
        lib = import_library()
        workload = importlib.import_module(WORKLOAD_MODULES[args.workload])
        jobs = workload.build(lib, args.seed, small=args.small, corrupt=args.corrupt)
        t1 = perf_counter()
        setup_raw = t1 - t0 - meter.stolen
        if args.mode == "run":
            out = measure(lib, jobs, args, meter)
        else:
            meter.stop()
            meter.sample(speed.NEAREST)
            out = {}
        out.update({"setup_s": setup_raw * meter.factor(t0, t1), "setup_raw_s": setup_raw,
                    "jobs": len(jobs), "backend": lib.kernels.BACKEND})
    finally:
        meter.stop()
        os.chdir(ROOT)
        shutil.rmtree(args.workdir, ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


def measure(lib, jobs, args, meter):
    """Untraced passes until the time budget is spent (one when tracing).

    The pass loop stops when the next pass, predicted to last as long
    as the previous one, would end past ``--seconds``, but not before
    ``MIN_PASSES`` passes, so that every job's time is a median of at
    least three.  Each latency is converted with the meter's factor
    around that job.
    """
    state = {}
    samples = [[] for _ in jobs]
    raw = [[] for _ in jobs]
    factors = []
    failures = []
    passes = 0
    started = perf_counter()
    while True:
        t0 = perf_counter()
        spans, failed = run_pass(jobs, state, meter=meter)
        passes += 1
        failures += failed
        for per_job, per_job_raw, (start, end, own) in zip(samples, raw, spans):
            per_job.append(own * meter.factor(start, end))
            per_job_raw.append(own)
        factors.append(meter.factor(spans[0][0], spans[-1][1]))
        now = perf_counter()
        if args.trace or (passes >= MIN_PASSES and now - started + (now - t0) > args.seconds):
            break
    meter.stop()
    out = {
        "passes": passes,
        "job_medians": [statistics.median(s) for s in samples],
        "raw_job_medians": [statistics.median(s) for s in raw],
        "speed_factors": factors,
        "attempted": passes * len(jobs),
        "failed": len(failures),
        "failures": failures[:20],
    }
    if args.trace:
        out.update(traced_pass(lib, jobs, sum(s[0] for s in raw), args))
    return out


def traced_pass(lib, jobs, untraced_wall, args):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(vars(lib))
    try:
        spans, failures = run_pass(jobs, {}, tracer=tracer)
    finally:
        tracer.remove()
    layers = tracer.layer_metrics()
    wall = sum(own for _, _, own in spans)
    layers["trace.overhead_frac"] = wall / untraced_wall - 1
    spans = os.path.join(os.path.dirname(args.workdir), f"spans-{args.workload}-seed{args.seed}.json")
    tracer.write(spans)
    return {
        "layers": layers,
        "untraced_wall": untraced_wall,
        "traced_wall": wall,
        "traced_failed": len(failures),
        "traced_failures": failures[:20],
        "spans": len(tracer.start),
        "spans_file": spans,
        "snf_shapes": [[r, c, n] for (r, c), n in tracer.shapes.most_common(12)],
    }


if __name__ == "__main__":
    main()
