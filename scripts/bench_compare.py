#!/usr/bin/env python3
"""Diff two BENCH_RESULTS.json files against per-metric tolerances.

Usage:
    bench_compare.py <baseline.json> <current.json> [--tolerance R]
                     [--list-metrics]

The files are the envelopes written by `elsa_bench --out` (see
docs/OBSERVABILITY.md for the schema).  Comparison rules:

  * every bench present in the baseline must be present in the
    current file, and every baseline metric must still exist;
  * numeric metrics are compared by relative delta against a
    direction inferred from the metric name -- higher-is-better
    metrics fail only when they drop, lower-is-better metrics fail
    only when they rise, everything else fails on drift in either
    direction beyond tolerance;
  * string / boolean metrics (e.g. the bottleneck's
    ``limiting_module``) must match exactly;
  * integer count metrics (``workloads``, ``*_bytes``) must match
    exactly;
  * wall-clock metrics (``wall_seconds`` and friends) are advisory:
    they depend on the machine, its load, and ``--threads``, so they
    are compared with a wide lower-is-better tolerance and reported,
    but can never fail the gate;
  * absolute kernel-throughput metrics (``*_gibps``,
    ``*_hashes_per_sec``, ``*_keys_per_sec`` from the
    ``kernel_throughput`` entry) are advisory like wall time: a busy
    machine moves them by -90% with no code change;
  * the kernel speedup ratios (``*_simd_speedup``: dispatched over
    scalar kernel throughput, measured interleaved in one process,
    best of N) are direction-aware (higher-is-better: only drops
    fail) and DO gate, with their own wide tolerance class -- load
    slows both sides of the ratio alike, and the gate exists to
    catch the collapse to ~1x of a broken SIMD kernel or an
    accidental scalar fallback, not a few percent of jitter;
  * serving SLO metrics from the ``serve_overload`` entry are
    direction-aware and DO gate with their own tolerance class:
    ``*_goodput_qps`` is higher-is-better (only drops fail) and
    ``*_shed_rate`` / ``*_deadline_miss_rate`` are lower-is-better
    (only rises fail).  They are deterministic cycle-domain results,
    but at quick scale one rerouted request moves the rates by a few
    percent, so the class is slightly wider than the default.

Exit status: 0 = within tolerance, 1 = regression, 2 = schema or
usage error.  Improvements are reported but never fail.
"""

import argparse
import json
import sys

SCHEMA_VERSION = 1
SUITE = "elsa_bench"

# Substrings deciding the regression direction of a numeric metric.
# These are matchers over composed metric names, not schema keys, so
# the ones that are not themselves complete metric names carry
# elsa-lint allowances below.
HIGHER_IS_BETTER = (
    "throughput",
    "speedup",
    "energy_eff",
    "recall",
)
LOWER_IS_BETTER = (
    "latency",
    "cycles",
    # elsa-lint: allow(artifact-schema-drift): substring matcher
    "energy_per_op",
    "area",
    "power",
    "stall",
)
# Metrics compared exactly regardless of tolerance.
EXACT = (
    "workloads",
    # elsa-lint: allow(artifact-schema-drift): substring matcher
    "_bytes",
)

# Wall-clock measurements (host time, not simulated cycles).  Never
# gate on them: they move with the machine, its load, and the
# --threads setting of the run that produced the file.
WALL_TIME = (
    "wall_seconds",
    # elsa-lint: allow(artifact-schema-drift): forward-compat matcher
    "wall_time",
)
WALL_TIME_TOLERANCE = 0.50

# Absolute kernel throughput (elsa_bench's kernel_throughput entry).
# Host timings like wall time: reported against the wide tolerance
# below, never gating -- on a loaded machine they swing past any
# useful bound with no code change.
KERNEL_THROUGHPUT = (
    # elsa-lint: allow(artifact-schema-drift): substring matcher
    "gibps",
    # elsa-lint: allow(artifact-schema-drift): substring matcher
    "hashes_per_sec",
    # elsa-lint: allow(artifact-schema-drift): substring matcher
    "keys_per_sec",
)
# Dispatched-over-scalar kernel speedups, measured interleaved in one
# process (best of N), so load and machine speed cancel. Higher is
# better and these DO gate: an accidental scalar fallback or a broken
# SIMD kernel collapses the Hamming ratio from ~8x to ~1x, far past
# this tolerance, while load stays well inside it.
KERNEL_SPEEDUP = (
    # elsa-lint: allow(artifact-schema-drift): substring matcher
    "simd_speedup",
)
KERNEL_THROUGHPUT_TOLERANCE = 0.70

# Serving SLO metrics (elsa_bench's serve_overload entry; see
# docs/SERVING.md).  Deterministic cycle-domain results, but at quick
# scale a single rerouted request moves the rates by a few percent,
# so the class is slightly wider than the default -- and it gates: a
# goodput collapse or a shed-rate jump is exactly the regression the
# serving engine exists to prevent.
SERVING_HIGHER = (
    "goodput_qps",
)
SERVING_LOWER = (
    "shed_rate",
    "deadline_miss_rate",
)
SERVING_TOLERANCE = 0.10

# Per-metric relative-tolerance overrides (substring match, first
# hit wins).  The default tolerance covers everything else.
TOLERANCE_OVERRIDES = {
    # Energy efficiency compounds throughput and energy noise.
    "energy_eff": 0.08,
}

DEFAULT_TOLERANCE = 0.05


# How to rebuild the file a comparison needs.  The committed quick
# baseline is the common case; a current file is rebuilt by rerunning
# the suite with --out pointed at it.
BASELINE_REFRESH_COMMAND = (
    "./build/bench/elsa_bench --quick --threads 1"
    " --out bench/baselines/BENCH_RESULTS.quick.json"
)


def fail(message):
    print(f"bench_compare: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_results(path, role):
    """Load and schema-check one envelope.

    Every failure is a single actionable line: the file, what is
    wrong with it, and the command that produces a fresh one.
    """
    if role == "baseline":
        hint = f"; refresh it: {BASELINE_REFRESH_COMMAND}"
    else:
        hint = (
            "; regenerate it: ./build/bench/elsa_bench --quick"
            f" --out {path}"
        )

    def bad(reason):
        fail(f"{path}: {role} {reason}{hint}")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        bad(f"is unreadable ({exc.strerror or exc})")
    if not text.strip():
        bad("is empty")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        bad(f"is not valid JSON (truncated or corrupt: {exc})")
    if not isinstance(doc, dict):
        bad("top level must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        bad(
            f"has schema_version {doc.get('schema_version')!r},"
            f" expected {SCHEMA_VERSION}"
        )
    if doc.get("suite") != SUITE:
        bad(f"has suite {doc.get('suite')!r}, expected {SUITE!r}")
    benches = doc.get("benches")
    if not isinstance(benches, dict) or not benches:
        bad("has no 'benches' object")
    for name, bench in benches.items():
        if not isinstance(bench, dict):
            bad(f"bench {name!r} is not an object")
        if bench.get("artifact") != name:
            bad(
                f"bench {name!r} artifact mismatch"
                f" ({bench.get('artifact')!r})"
            )
        if not isinstance(bench.get("metrics"), dict):
            bad(f"bench {name!r} has no metrics section")
    return doc


def metric_tolerance(name, default):
    for needle, tol in TOLERANCE_OVERRIDES.items():
        if needle in name:
            return tol
    return default


def is_wall_time(name):
    return any(needle in name for needle in WALL_TIME)


def is_kernel_throughput(name):
    return any(needle in name for needle in KERNEL_THROUGHPUT)


def is_kernel_speedup(name):
    return any(needle in name for needle in KERNEL_SPEEDUP)


def is_advisory(name):
    """Host timings that are reported but never gate."""
    return is_wall_time(name) or is_kernel_throughput(name)


def serving_direction(name):
    """+1 / -1 for a serving SLO metric, 0 for everything else."""
    if any(needle in name for needle in SERVING_HIGHER):
        return 1
    if any(needle in name for needle in SERVING_LOWER):
        return -1
    return 0


def direction(name):
    """-1 = lower is better, +1 = higher is better, 0 = pinned."""
    if is_wall_time(name):
        return -1
    if is_kernel_throughput(name) or is_kernel_speedup(name):
        return 1
    serving = serving_direction(name)
    if serving != 0:
        return serving
    for needle in HIGHER_IS_BETTER:
        if needle in name:
            return 1
    for needle in LOWER_IS_BETTER:
        if needle in name:
            return -1
    return 0


def compare_metric(label, base, cur, tolerance):
    """Return (status, detail, rel); status in ok/improved/regressed;
    rel is the relative delta, or None for exact/non-numeric
    comparisons."""
    if isinstance(base, (str, bool)) or isinstance(cur, (str, bool)):
        if base == cur:
            return "ok", f"{base!r}", None
        return "regressed", f"{base!r} -> {cur!r} (must match)", None

    if any(needle in label for needle in EXACT):
        if base == cur:
            return "ok", f"{base}", None
        return ("regressed", f"{base} -> {cur} (must match exactly)",
                None)

    base = float(base)
    cur = float(cur)
    if base == cur:
        return "ok", f"{base:g}", 0.0
    denom = abs(base) if base != 0.0 else 1.0
    rel = (cur - base) / denom
    detail = f"{base:g} -> {cur:g} ({rel:+.2%})"
    sign = direction(label)
    worse = (
        abs(rel) > tolerance
        if sign == 0
        else rel * sign < -tolerance
    )
    if worse:
        return ("regressed", detail + f", tolerance {tolerance:.0%}",
                rel)
    if sign != 0 and rel * sign > tolerance:
        return "improved", detail, rel
    return "ok", detail, rel


def print_summary_table(summary):
    """Per-bench delta rollup, printed on success and failure alike:
    metric count, improved/advisory/regressed tallies, and the
    largest gated relative delta with the metric it came from."""
    name_width = max([len(name) for name in summary] + [len("bench")])
    header = (
        f"{'bench':<{name_width}}  {'cmp':>4} {'imp':>4} "
        f"{'adv':>4} {'reg':>4}  {'max delta':>10}  metric"
    )
    print(header)
    print("-" * len(header))
    for name, row in sorted(summary.items()):
        if row["max_rel"] is None:
            delta = "-"
        else:
            delta = f"{row['max_rel']:+.2%}"
        print(
            f"{name:<{name_width}}  {row['compared']:>4} "
            f"{row['improved']:>4} {row['advisory']:>4} "
            f"{row['regressed']:>4}  {delta:>10}  "
            f"{row['max_metric']}"
        )


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("baseline", help="baseline BENCH_RESULTS.json")
    parser.add_argument("current", help="current BENCH_RESULTS.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="default relative tolerance (default %(default)s)",
    )
    parser.add_argument(
        "--list-metrics",
        action="store_true",
        help="print every compared metric, not just failures",
    )
    args = parser.parse_args()

    baseline = load_results(args.baseline, "baseline")
    current = load_results(args.current, "current file")

    if baseline.get("quick") != current.get("quick"):
        fail(
            "quick/full mismatch: baseline quick="
            f"{baseline.get('quick')}, current quick="
            f"{current.get('quick')} (not comparable)"
        )

    regressions = []
    improvements = []
    advisories = []
    compared = 0
    # Per-bench rollup, printed as a summary table even when every
    # metric is within tolerance (so a green run still shows how far
    # each entry drifted).
    summary = {}
    for name, base_bench in sorted(baseline["benches"].items()):
        row = summary.setdefault(
            name,
            {"compared": 0, "improved": 0, "regressed": 0,
             "advisory": 0, "max_rel": None, "max_metric": "-"},
        )
        cur_bench = current["benches"].get(name)
        if cur_bench is None:
            regressions.append((f"{name}", "bench missing from current"))
            row["regressed"] += 1
            continue
        base_metrics = base_bench["metrics"]
        cur_metrics = cur_bench["metrics"]
        for metric, base_value in base_metrics.items():
            label = f"{name}.{metric}"
            advisory = is_advisory(metric)
            if metric not in cur_metrics:
                if advisory:
                    advisories.append(
                        (label, "host-timing metric missing from current")
                    )
                    row["advisory"] += 1
                else:
                    regressions.append(
                        (label, "metric missing from current")
                    )
                    row["regressed"] += 1
                continue
            compared += 1
            row["compared"] += 1
            if is_wall_time(metric):
                tol = WALL_TIME_TOLERANCE
            elif is_kernel_throughput(metric) or is_kernel_speedup(metric):
                tol = KERNEL_THROUGHPUT_TOLERANCE
            elif serving_direction(metric) != 0:
                tol = SERVING_TOLERANCE
            else:
                tol = metric_tolerance(metric, args.tolerance)
            status, detail, rel = compare_metric(
                metric, base_value, cur_metrics[metric], tol
            )
            if advisory and status != "ok":
                # Direction-aware so the report reads right, but a
                # host-timing move is never a gate failure.
                advisories.append((label, detail))
                status = "advisory"
                row["advisory"] += 1
            elif status == "regressed":
                regressions.append((label, detail))
                row["regressed"] += 1
            elif status == "improved":
                improvements.append((label, detail))
                row["improved"] += 1
            if (rel is not None and not advisory
                    and (row["max_rel"] is None
                         or abs(rel) > abs(row["max_rel"]))):
                row["max_rel"] = rel
                row["max_metric"] = metric
            if args.list_metrics:
                print(f"  {status:>9}  {label}: {detail}")

    print_summary_table(summary)
    for label, detail in improvements:
        print(f"IMPROVED  {label}: {detail}")
    for label, detail in advisories:
        print(f"ADVISORY  {label}: {detail} (host timing; never gates)")
    for label, detail in regressions:
        print(f"REGRESSED {label}: {detail}")
    if any("latency" in label or "cycles" in label
           for label, _ in regressions):
        print(
            "hint: a latency/cycle metric regressed -- rerun the "
            "bench with --report and run "
            "`python3 scripts/explain_tail.py <report-dir>` to rank "
            "the tail's root causes"
        )
    print(
        f"bench_compare: {compared} metrics compared, "
        f"{len(improvements)} improved, "
        f"{len(advisories)} advisory, {len(regressions)} regressed"
    )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
