#!/usr/bin/env python3
"""Builds the xsbench benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 xsbench/run.py --workload estimate --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/xsbench (default .bench_build/xsbench)
and is incremental. Build output goes to stderr; the benchmark's standard
output passes through unchanged, so its last line is the result object.
The exit code is the benchmark's (non-zero on any oracle mismatch), or
non-zero when the library sources are missing or the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "xsbench")


def source_id():
    """The git commit when the checkout is a repository, and always a
    digest of the sources the benchmark builds."""
    digest = hashlib.sha256()
    for top in ("src", "xsbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
            if sha:
                ident = "git:" + sha + " " + ident
        except (OSError, subprocess.SubprocessError):
            pass
    return ident


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("xsbench: library sources not found under " +
              os.path.join(ROOT, "src"), file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "xsbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("xsbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    bdir = build_dir()
    if not build(bdir):
        return 2
    cmd = [os.path.join(bdir, "xsbench")] + sys.argv[1:] + [
        "--out-dir", os.path.join(bdir, "out"), "--source-id", source_id()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print("xsbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
