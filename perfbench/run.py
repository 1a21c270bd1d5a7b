#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the perfbench program (the hcvliw library plus
perfbench/src) from source into .bench_build/perfbench, then runs one
workload and passes its report through. The last line of standard
output is the program's JSON result.

Usage (from the repository root):
    python3 perfbench/run.py --workload specfp_frontier --seed 1 \
        --seconds 20 --trace 0

Workloads: specfp_frontier, specfp_warm, bigloop (perfbench/README.md).
Build output goes to standard error; a failed build exits non-zero
without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("specfp_frontier", "specfp_warm", "bigloop")
# A hung perfbench is killed well before a run reaches 180 s.
PROGRAM_TIMEOUT_S = 170


def build():
    """Configures (once) and builds perfbench; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(PROGRAM)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("error: building perfbench failed", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected_digests.txt"),
           "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: perfbench exceeded %d s" % PROGRAM_TIMEOUT_S,
              file=sys.stderr)
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
