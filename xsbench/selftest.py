#!/usr/bin/env python3
"""Self-tests of the benchmark, at tiny size.

    python3 xsbench/selftest.py

Runs every workload through xsbench/run.py with --tiny and asserts:
  1. every metric BENCHMARK.json names is printed, with its unit, in the
     mode that declares it (end-to-end untraced, per-layer traced);
  2. a corrupted oracle entry (--corrupt-oracle) is caught: the run
     reports failures and exits non-zero;
  3. one seed gives identical values for the deterministic metrics
     (rel_error, plan_cost_ratio, sketch_kb, exec.logical_rows).
Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["estimate", "serve", "optimize", "build"]
DETERMINISTIC = {0: ["rel_error", "plan_cost_ratio", "sketch_kb"],
                 1: ["exec.logical_rows"]}


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


def check(condition, message, output=""):
    if not condition:
        print("FAIL: " + message)
        if output:
            print(output[-3000:])
        sys.exit(1)
    print("ok: " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    first = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, output = run(workload, 5, trace)
            check(code == 0 and result is not None and result["correct"],
                  "%s --trace %d runs correct" % (workload, trace), output)
            metrics = result["metrics"]
            check(set(metrics) == set(declared[trace]),
                  "%s --trace %d prints exactly the declared metrics"
                  % (workload, trace), output)
            for name, unit in declared[trace].items():
                check(metrics[name]["unit"] == unit and
                      isinstance(metrics[name]["value"], (int, float)),
                      "%s --trace %d: %s has unit %s"
                      % (workload, trace, name, unit), output)
            first[(workload, trace)] = metrics

    for workload in WORKLOADS:
        code, result, output = run(workload, 5, 0, "--corrupt-oracle")
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0,
              "%s catches a corrupted oracle entry" % workload, output)

    for workload in ("estimate", "optimize", "build"):
        for trace, names in DETERMINISTIC.items():
            code, result, output = run(workload, 5, trace)
            check(code == 0, "%s --trace %d reruns" % (workload, trace),
                  output)
            for name in names:
                a = first[(workload, trace)][name]["value"]
                b = result["metrics"][name]["value"]
                check(a == b, "%s --trace %d: %s repeats exactly (%r)"
                      % (workload, trace, name, a), output)
    print("selftest passed")


if __name__ == "__main__":
    main()
