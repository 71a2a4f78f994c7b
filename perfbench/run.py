#!/usr/bin/env python3
"""Layered benchmark of cechlift: one workload, one seed, one run.

    python3 perfbench/run.py --workload cohomology-ladder --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and measures the library in its
``src/`` on the pure-Python kernel.  Each measurement happens in a fresh
single-threaded child process (``child.py``): a few children only set
up (import plus input construction) so that ``setup_s`` is a median,
then one child runs passes of the workload's jobs, one job at a time
(a closed loop with one client), for about ``--seconds``.  Every job's
answer is checked by an oracle that shares no code with the library.
Times are in reference seconds (see ``speed.py``): measured seconds
scaled by how fast a frozen reference computation runs in the same
process at the same time, so that the shared host's drift cancels; the
raw seconds are printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics.  Human
lines (run stamp, metrics with units, failures) come first; the last
line of stdout is the JSON result.  The exit code is nonzero, with no
result line, when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402  (sibling module)

SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def commit():
    """The checked-out commit, from .git when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with the weights a
    Beta((n+1)q, (n+1)(1-q)) distribution puts on each rank.  Unlike
    one order statistic, it moves smoothly where the sorted job times
    have gaps, so one job moving past another shifts it little.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint-rule steps per rank
    total = 0.0
    for i, x in enumerate(xs):
        for k in range(steps):
            u = (i + (k + 0.5) / steps) / n
            total += x * math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
    return total / (n * steps)


def run_child(args, mode, index, deadline):
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}-{mode}-{index}")
    argv = [sys.executable, "-s", os.path.join(HERE, "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--mode", mode, "--workdir", workdir]
    argv += ["--small"] * args.small + ["--corrupt"] * args.corrupt
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=timeout, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{mode} child did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"{mode} child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{mode} child printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest inputs (self-test only; not comparable)")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one expected value (self-test of the oracle)")
    args = parser.parse_args()
    if args.workload not in spec.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(spec.WORKLOADS)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "cechlift", "__init__.py")):
        fail(f"no cechlift sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    stamp = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "default and hold-out seeds": f"{spec.DEFAULT_SEED}, {spec.HOLDOUT_SEED}",
    }
    children = [run_child(args, "setup", i, deadline) for i in range(SETUP_CHILDREN)]
    res = run_child(args, "run", 0, deadline)
    children.append(res)
    setups = [c["setup_s"] for c in children]
    stamp["backend"] = res["backend"]

    for key, value in stamp.items():
        print(f"# {key}: {value}")
    print(f"# jobs per pass: {res['jobs']}; passes: {res['passes']}; "
          f"jobs attempted: {res['attempted']}; failed: {res['failed']}; "
          f"error_rate: {res['failed'] / res['attempted']:.4f}")
    for name, why in res["failures"] + res.get("traced_failures", []):
        print(f"# FAILED {name}: {why}")

    if args.trace:
        metrics = {name: (res["layers"][name], unit) for name, (unit, _) in spec.PER_LAYER.items()}
        print(f"# traced pass: {res['spans']} spans, written to {os.path.relpath(res['spans_file'], ROOT)}")
        print(f"# untraced wall {res['untraced_wall']:.4f} s, traced wall {res['traced_wall']:.4f} s")
        print("# kernel shapes (rows x cols: calls): " +
              ", ".join(f"{r}x{c}: {n}" for r, c, n in res["snf_shapes"]))
        failed = res["failed"] + res["traced_failed"]
        attempted = res["attempted"] + res["jobs"]
    else:
        medians, raw = res["job_medians"], res["raw_job_medians"]
        print("# speed factors (reference seconds per second) of the passes: " +
              ", ".join(f"{f:.3f}" for f in res["speed_factors"]))
        print(f"# raw seconds: wall {sum(raw):.4f}, job p50 {quantile(raw, 0.5):.6f}, "
              f"job p90 {quantile(raw, 0.9):.6f}, "
              f"setup {statistics.median(c['setup_raw_s'] for c in children):.4f}")
        metrics = {
            "wall_s": (sum(medians), "s"),
            "job_s.p50": (quantile(medians, 0.5), "s"),
            "job_s.p90": (quantile(medians, 0.9), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        }
        failed, attempted = res["failed"], res["attempted"]
    notes = {name: entry[-1] for name, entry in {**spec.END_TO_END, **spec.PER_LAYER}.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}  [{notes[name]}]")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
