#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it checks that

  * untraced and traced runs pass every output check;
  * the modelled and accuracy metrics are identical across two runs
    and under ELSA_SIMD=scalar, and the traced run reproduces them;
  * the traced run reports every per-layer metric, with layer spans
    covering the traced wall time;
  * a run with a deliberately corrupted output reports it as failed.

It also checks that run.py fails without printing a result in a copy
of the benchmark that has no sources to build. Exits 0 when all pass.
"""

import json
import os
import shutil
import subprocess
import sys

import run as bench


def _run(workload, trace, extra=(), env=None):
    cmd = [bench.BINARY, "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=env, timeout=bench.RUN_TIMEOUT_S,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    context = json.loads(lines[-2].split(" ", 1)[1])
    return context, json.loads(lines[-1])


def _deterministic(metrics):
    """Per-layer values that are not host timings."""
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] not in ("s", "ns") and not k.startswith("trace.")}


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    if not bench.build():
        return 1
    scalar = dict(os.environ, ELSA_SIMD="scalar")
    for w in bench.WORKLOADS:
        ctx_a, res_a = _run(w, 0)
        ctx_b, res_b = _run(w, 0)
        ctx_s, res_s = _run(w, 0, env=scalar)
        for name, res in (("run 1", res_a), ("run 2", res_b),
                          ("scalar", res_s)):
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] > 0, f"{w}: {name} checks pass")
        expect(set(res_a["metrics"]) == end_to_end,
               f"{w}: reports every end-to-end metric")
        expect(all(m["value"] > 0 for m in res_a["metrics"].values()),
               f"{w}: end-to-end metrics are non-zero")
        expect(ctx_a["modelled"] == ctx_b["modelled"],
               f"{w}: modelled metrics identical across two runs")
        expect(ctx_a["modelled"] == ctx_s["modelled"]
               and ctx_s["simd"] == "scalar",
               f"{w}: modelled metrics identical under ELSA_SIMD=scalar")

        _, tr_a = _run(w, 1)
        _, tr_s = _run(w, 1, env=scalar)
        expect(tr_a["correct"] and tr_s["correct"],
               f"{w}: traced runs pass every check")
        expect(set(tr_a["metrics"]) == per_layer,
               f"{w}: traced run reports every per-layer metric")
        expect(_deterministic(tr_a["metrics"])
               == _deterministic(tr_s["metrics"]),
               f"{w}: per-layer counts identical under ELSA_SIMD=scalar")
        expect(all(tr_a["metrics"][k]["value"] == v["value"]
                   for k, v in ctx_a["modelled"].items()),
               f"{w}: traced run reproduces the modelled metrics")

        _, bad = _run(w, 0, extra=("--corrupt",))
        expect(not bad["correct"] and bad["failed"] >= 1,
               f"{w}: corrupted output reported as failed")

    # Without the sources, run.py must fail and print no result.
    bare = os.path.join(bench.BUILD_ROOT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_context",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=bench.RUN_TIMEOUT_S, check=False)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py fails without a result when src/ is missing")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
