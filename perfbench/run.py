#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
ELSA libraries and the benchmark program (Release) under .bench_build/;
later calls rebuild incrementally. The program's stdout is passed
through, so the last line is the result object. With --trace 1 the
recorded spans are also written to
.bench_build/traces/<workload>-seed<n>.json.

Build failures (for example a checkout without src/) exit non-zero
without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "elsa_perfbench")
WORKLOADS = ("paper_figures", "long_context", "serve_overload")
# A run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def _step(cmd, timeout):
    """Run a build step; its output goes to stderr only on failure."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        print(f"perfbench: failed: {' '.join(cmd)}", file=sys.stderr)
        return False
    return True


def build():
    """Configure (once) and build the benchmark program; True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not _step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"], 300):
            return False
    return _step(["cmake", "--build", BUILD_DIR, "--target",
                  "elsa_perfbench", "-j", "4"], 840)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
