#!/usr/bin/env python3
"""Build the Kona library and the benchmark from source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv-spill --seed 7 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR when set (a path inside the
checkout), else to .bench_build. Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result. With --trace 1 the
traced run's spans are written to <build dir>/spans/<workload>.<client>.csv.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")


def build(build_dir):
    """Configure (once) and build; returns the benchmark binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(proc.returncode or 1)
    return os.path.join(build_dir, "perfbench")


def workload_of(args):
    for i, arg in enumerate(args[:-1]):
        if arg == "--workload":
            return args[i + 1]
    return None


def main(args):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    cmd = [binary] + args
    workload = workload_of(args)
    if workload is not None and "--trace" in args:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, workload)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
