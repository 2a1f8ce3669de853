#!/usr/bin/env python3
"""Records the repository benchmark into a tracked BENCH_<n>.json, and
compares two records.

    python3 scripts/bench_record.py [--out N] [--build DIR]
    python3 scripts/bench_record.py --compare OLD.json NEW.json

Record: runs `python3 xsbench/run.py --trace 0` for every workload that
BENCHMARK.json declares, for its run_seconds, once per seed in SEEDS,
interleaved seed by seed (estimate, optimize, build, then the next seed),
so slow drift on the host spreads over every workload alike. For every
end-to-end metric it writes each run's value and their median, min and
max, next to xsbench's host line. It writes nothing when a run fails or
when the runs' host lines differ. The paper's Figure 9(a)/(b) error
tables come from the fig9a_branching and fig9b_values binaries of the
CMake build tree DIR (default build/), at XS_BENCH_SCALE=0.1. The record
goes to BENCH_<n>.json in the repository root, where <n> is the first
unused index unless --out is given.

Compare: exits 1, naming the field, when the two records come from hosts
that differ in nproc, CPU model, compiler or build type. Otherwise it
prints per workload and metric both medians, their ratio oriented so
that above 1.00 is better (old/new when lower is better, new/old when
higher is), and the BENCHMARK.json bound. A metric whose median moved
the worse way by more than its bound is `worse` when the two runs'
min-max ranges do not overlap and `unresolved` when they do.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Seed 7919 is xsbench's held-out seed; records never use it.
SEEDS = (1, 2, 3, 4, 5)
# Host-line fields that describe the run, not the host.
RUN_FIELDS = ("workload", "seed", "seconds", "trace")
# Host facts two records must share to be compared.
HOST_FIELDS = ("nproc", "cpu", "compiler", "build_type")
PAPER_SCALE = "0.1"
PAPER_BENCHES = ("fig9a_branching", "fig9b_values")


def fail(message):
    print("bench_record: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_xsbench(workload, seed, seconds):
    """One xsbench run: (host line minus the run fields, result object)."""
    cmd = [sys.executable, os.path.join("xsbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    print("recording %s seed %d ..." % (workload, seed), file=sys.stderr)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("'%s' exited %d" % (" ".join(cmd), proc.returncode))
    host = next((json.loads(l[len("host "):]) for l in lines
                 if l.startswith("host ")), None)
    if host is None:
        fail("'%s' printed no host line" % " ".join(cmd))
    for field in RUN_FIELDS:
        host.pop(field, None)
    return host, json.loads(lines[-1])


def paper_table(build_dir, name):
    """A figure bench's output as {"title", doc: {"label", "points"}}."""
    binary = os.path.join(build_dir, "bench", name)
    if not os.access(binary, os.X_OK):
        fail("missing %s: build first (cmake --build %s)" % (binary, build_dir))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("XS_BENCH_")}
    env["XS_BENCH_SCALE"] = PAPER_SCALE
    print("recording %s ..." % name, file=sys.stderr)
    out = subprocess.run([binary], env=env, stdout=subprocess.PIPE,
                         text=True, check=True).stdout.splitlines()
    table = {"title": out[0]}
    doc = None
    # Rows are "<size KB> <error>%" under a "<Doc> (<n> elements, ...)"
    # label and a column header.
    for line in out[1:]:
        fields = line.split()
        if len(fields) == 2 and fields[1].endswith("%"):
            table[doc]["points"].append(
                {"size_kb": float(fields[0]),
                 "rel_error_pct": float(fields[1][:-1])})
        elif line and not line[0].isspace():
            doc = fields[0]
            table[doc] = {"label": line, "points": []}
    return table


def record(out_index, build_dir):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    runs = {w: [] for w in workloads}
    host = None
    for seed in SEEDS:
        for workload in workloads:
            run_host, result = run_xsbench(workload, seed, seconds)
            if host is None:
                host = run_host
            elif run_host != host:
                diff = sorted(k for k in set(host) | set(run_host)
                              if host.get(k) != run_host.get(k))
                fail("host lines differ between runs in %s; nothing written"
                     % ", ".join(diff))
            runs[workload].append((seed, result))

    out = {
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "command": "python3 xsbench/run.py --trace 0",
        "seeds": list(SEEDS),
        "seconds": seconds,
        "host": host,
        "workloads": {},
        "paper": {"XS_BENCH_SCALE": PAPER_SCALE},
    }
    for workload in workloads:
        entry = {"runs": [{"seed": seed, "attempted": r["attempted"],
                           "failed": r["failed"], "correct": r["correct"]}
                          for seed, r in runs[workload]],
                 "metrics": {}}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for _, r in runs[workload]]
            entry["metrics"][name] = {
                "unit": metric["unit"], "better": metric["better"],
                "values": values, "median": statistics.median(values),
                "min": min(values), "max": max(values)}
        out["workloads"][workload] = entry
    for name in PAPER_BENCHES:
        out["paper"][name] = paper_table(build_dir, name)

    if out_index is None:
        out_index = 0
        while os.path.exists(os.path.join(ROOT, "BENCH_%d.json" % out_index)):
            out_index += 1
    path = os.path.join(ROOT, "BENCH_%d.json" % out_index)
    with open(path, "w") as f:
        json.dump(dict(index=out_index, **out), f, indent=2)
        f.write("\n")
    print("wrote " + path, file=sys.stderr)


def oriented_ratio(better, old, new):
    """Above 1.0 when `new` is better than `old`."""
    num, den = (old, new) if better == "lower" else (new, old)
    if num == den:
        return 1.0
    return float("inf") if den == 0 else num / den


def beyond_bound(better, bound, old, new):
    """True when `new` moved the worse way by more than `bound` of `old`."""
    if better == "lower":
        return new > old * (1 + bound)
    return new < old * (1 - bound)


def compare(old_path, new_path):
    old, new = load_json(old_path), load_json(new_path)
    for field in HOST_FIELDS:
        a = old.get("host", {}).get(field, "missing")
        b = new.get("host", {}).get(field, "missing")
        if a != b:
            print("bench_record --compare: host %s differs: %r vs %r"
                  % (field, a, b), file=sys.stderr)
            return 1
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    print("%-9s %-15s %14s %14s %7s %6s" %
          ("workload", "metric", "old median", "new median", "ratio",
           "bound"))
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            name, better = metric["name"], metric["better"]
            a = old["workloads"][workload]["metrics"][name]
            b = new["workloads"][workload]["metrics"][name]
            verdict = ""
            if beyond_bound(better, metric["bound"], a["median"], b["median"]):
                overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
                verdict = "unresolved" if overlap else "worse"
            print("%-9s %-15s %14.6g %14.6g %7.2f %6.2f  %s" %
                  (workload, name, a["median"], b["median"],
                   oriented_ratio(better, a["median"], b["median"]),
                   metric["bound"], verdict))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Record xsbench into BENCH_<n>.json, or compare two "
                    "records.")
    parser.add_argument("--out", type=int, help="record index n")
    parser.add_argument("--build", default=os.path.join(ROOT, "build"),
                        help="CMake build tree with the figure benches")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    record(args.out, os.path.abspath(args.build))
    return 0


if __name__ == "__main__":
    sys.exit(main())
