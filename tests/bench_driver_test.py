#!/usr/bin/env python3
"""End-to-end checks of the elsa_bench driver's output contract.

  bench_driver_test.py threads ELSA_BENCH WORKDIR
      Runs every deterministic entry (all but kernel_throughput) with
      --quick at --threads 1 and --threads 4. BENCH_RESULTS metrics
      must be identical apart from wall_seconds, and stdout identical
      apart from the `threads:` header, the mode-evaluation wall-time
      line and the wall_seconds / threads / hardware_concurrency
      fields. Each entry's config must describe what it ran: the
      entries that read the mode-evaluation phase record its
      sim_inputs, and table1_area_power and ext_fault_sweep do not.

  bench_driver_test.py fault-log ELSA_BENCH WORKDIR
      Runs the full ext_fault_sweep entry, whose table is longer than
      any fixed line buffer, and requires its last grid row whole and
      the entry's BENCH_JSON line starting at column 0.

  bench_driver_test.py list ELSA_BENCH DESIGN_MD
      Every experiment row (`| EXP-...`) of DESIGN.md's experiment
      index names an `elsa_bench --bench <id>` that `elsa_bench
      --list` prints, and every listed id but kernel_throughput has a
      row.

Exit status 0 on success, 1 on a failed check.
"""

import json
import os
import re
import subprocess
import sys

# Entries whose metrics are host timings, not simulated results.
TIMED_ENTRIES = {"kernel_throughput"}

# Entries that read the mode-evaluation phase, and two that do not.
MODE_READERS = {"fig10_accuracy_vs_p", "fig11a_throughput",
                "fig11b_latency", "fig13a_energy_efficiency",
                "fig13b_energy_breakdown", "disc_a3_comparison",
                "disc_tpu_comparison", "bottleneck_attribution"}
NO_MODE_CONFIG = {"table1_area_power", "ext_fault_sweep"}

INDEX_ROW = re.compile(r"^\| EXP-")
INDEX_TARGET = re.compile(r"`elsa_bench --bench ([a-z0-9_]+)`")

# Per-run fields of the BENCH_JSON lines: host time and environment.
RUN_FIELD = re.compile(
    r'"(wall_seconds|threads|hardware_concurrency)":[0-9.eE+-]+')
RUN_LINE = re.compile(r"^(threads: |mode evaluation: )")


def run(cmd, cwd):
    os.makedirs(cwd, exist_ok=True)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited "
                         f"{proc.returncode}")
    return proc.stdout


def normalized_stdout(text):
    lines = [RUN_FIELD.sub(r'"\1":_', line)
             for line in text.splitlines()
             if not RUN_LINE.match(line)]
    return "\n".join(lines)


def metrics_without_wall(results_path):
    with open(results_path) as f:
        benches = json.load(f)["benches"]
    out = {}
    for name, manifest in benches.items():
        metrics = dict(manifest["metrics"])
        metrics.pop("wall_seconds", None)
        out[name] = metrics
    return out


def listed_entries(elsa_bench, workdir):
    listing = run([elsa_bench, "--list"], workdir)
    return [line.split()[0] for line in listing.splitlines()
            if line.strip()]


def config_failures(results_path):
    with open(results_path) as f:
        benches = json.load(f)["benches"]
    failures = []
    for name in sorted(MODE_READERS | NO_MODE_CONFIG):
        has = "sim_inputs" in benches[name]["config"]
        if has != (name in MODE_READERS):
            failures.append(f"FAIL: config of {name} "
                            f"{'records' if has else 'lacks'} "
                            f"sim_inputs")
    return failures


def check_threads(elsa_bench, workdir):
    entries = listed_entries(elsa_bench, workdir)
    selected = ",".join(e for e in entries if e not in TIMED_ENTRIES)
    runs = {}
    for threads in ("1", "4"):
        cwd = os.path.join(workdir, "threads" + threads)
        stdout = run([elsa_bench, "--quick", "--threads", threads,
                      "--bench", selected,
                      "--out", "BENCH_RESULTS.json"], cwd)
        runs[threads] = (
            normalized_stdout(stdout),
            metrics_without_wall(
                os.path.join(cwd, "BENCH_RESULTS.json")))
    if runs["1"][1] != runs["4"][1]:
        for name in runs["1"][1]:
            if runs["1"][1][name] != runs["4"][1].get(name):
                print(f"FAIL: metrics of {name} differ between "
                      f"--threads 1 and 4")
        return 1
    if runs["1"][0] != runs["4"][0]:
        one = runs["1"][0].splitlines()
        four = runs["4"][0].splitlines()
        for a, b in zip(one, four):
            if a != b:
                print(f"FAIL: stdout differs:\n  1: {a}\n  4: {b}")
                break
        else:
            print("FAIL: stdout line counts differ")
        return 1
    failures = config_failures(
        os.path.join(workdir, "threads1", "BENCH_RESULTS.json"))
    if failures:
        print("\n".join(failures))
        return 1
    print(f"ok: {len(runs['1'][1])} entries identical at --threads "
          f"1 and 4; configs record what each entry ran")
    return 0


def check_fault_log(elsa_bench, workdir):
    stdout = run([elsa_bench, "--bench", "ext_fault_sweep",
                  "--out", "BENCH_RESULTS.json"], workdir)
    lines = stdout.splitlines()
    row = re.compile(r"^  secded   1e-02 +( +[0-9]+){5}( +[0-9.]+){2}$")
    if not any(row.match(line) for line in lines):
        print("FAIL: no complete `secded   1e-02` row")
        return 1
    if not any(line.startswith("BENCH_JSON {") for line in lines):
        print("FAIL: no BENCH_JSON line at column 0")
        return 1
    print("ok: full fault-sweep table and BENCH_JSON line intact")
    return 0


def check_index(elsa_bench, design_md):
    listed = set(listed_entries(elsa_bench, os.getcwd()))
    with open(design_md) as f:
        rows = [line for line in f if INDEX_ROW.match(line)]
    failures = []
    indexed = set()
    for row in rows:
        targets = INDEX_TARGET.findall(row)
        if len(targets) != 1 or targets[0] not in listed:
            failures.append(f"FAIL: DESIGN.md row names no listed "
                            f"elsa_bench entry: {row.strip()}")
        indexed.update(targets)
    for name in sorted(listed - TIMED_ENTRIES - indexed):
        failures.append(f"FAIL: elsa_bench entry {name} has no "
                        f"DESIGN.md experiment row")
    if not rows:
        failures.append("FAIL: no experiment rows in DESIGN.md")
    if failures:
        print("\n".join(failures))
        return 1
    print(f"ok: {len(rows)} DESIGN.md experiment rows match "
          f"elsa_bench --list")
    return 0


CHECKS = {"threads": check_threads, "fault-log": check_fault_log,
          "list": check_index}


def main(argv):
    if len(argv) != 4 or argv[1] not in CHECKS:
        sys.stderr.write(__doc__)
        return 2
    return CHECKS[argv[1]](argv[2], argv[3])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
