#!/usr/bin/env python3
"""Self-test of the benchmark itself, on the smallest inputs at seed 0.

    python3 perfbench/selftest.py

For every workload: an untraced and a traced run must pass every check
and emit exactly the metric names that BENCHMARK.json declares, and a
run with one deliberately corrupted expected value must count it as a
failure (which proves the oracle is live).  BENCHMARK.json must match
what ``spec.py`` generates.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402  (sibling module)


def run(workload, trace, *extra):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace), "--small", *extra]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(argv[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(ok, what):
    if not ok:
        raise AssertionError(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    check(declared == spec.benchmark_json(), "BENCHMARK.json differs from spec.py; run spec.py")
    names = {
        0: [m["name"] for m in declared["end_to_end"]],
        1: [m["name"] for m in declared["per_layer"]],
    }
    try:
        for w in declared["workloads"]:
            workload = w["name"]
            for trace in (0, 1):
                res = run(workload, trace)
                check(res["correct"] and res["failed"] == 0, f"{workload} trace {trace}: {res['failed']} failed")
                check(sorted(res["metrics"]) == sorted(names[trace]),
                      f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
            res = run(workload, 0, "--corrupt")
            check(not res["correct"] and res["failed"] >= 1,
                  f"{workload}: a corrupted expectation was not counted as a failure")
            print(f"ok {workload}: metric names match; corrupted expectation counted "
                  f"({res['failed']} of {res['attempted']} jobs)")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
