#!/usr/bin/env python3
"""End-to-end validation of the observability artifacts.

Runs the quickstart binary with --obs-dir (stats + tracing + host
profiling enabled) in a temporary directory and validates the six
emitted files against the schema documented in docs/OBSERVABILITY.md:

  stats.json     - metric-name grammar, per-kind field sets, and the
                   invariant active_cycles <= cycles.total per module;
  stats.csv      - header row and one row per scalar facet;
  trace.json     - Chrome trace_event JSON object form, required
                   per-event fields, metadata coverage;
  telemetry.json - binned cycle-domain time series: schema, shared
                   bin axis, and exact conservation of the stall
                   channels' bin sums against the stats.json stall
                   counters;
  spans.json     - per-query lifecycle spans: schema, exact
                   per-exemplar conservation (component sum ==
                   end-to-end cycles), whole-run reconciliation of
                   the span totals against the stats.json stall and
                   span counters, and digest monotonicity;
  manifest.json  - required sections, schema_version, and the
                   cross-check that the manifest's utilization equals
                   active_cycles / cycles.total from stats.json.

It then replays the quickstart with ELSA_SIMD=scalar and requires
trace.json, telemetry.json and spans.json to be byte-identical and
stats.json / stats.csv identical apart from the host.* profiling
entries: every SIMD dispatch level must yield the same artifacts.

The stall-attribution counters (<prefix>.stall.<module>.<cause>) are
validated structurally (only known module/cause names) and
arithmetically: per module the cause counters must sum exactly to
lane_cycles -- the same conservation invariant the simulator asserts
internally.  The fault_retry cause is optional (published only when
fault injection ran; see docs/ROBUSTNESS.md) and enters the sum when
present.  Fault counters (<prefix>.fault.*), when present, must
satisfy injected == silent + detected + corrected.

Usage:
  check_metrics.py <path-to-quickstart-binary>
  check_metrics.py --bench-results <BENCH_RESULTS.json>
  check_metrics.py --serve <quickstart-binary-or-serve-dump-dir>

The second form validates an aggregated bench-results file produced
by the elsa_bench driver (schema documented in docs/OBSERVABILITY.md)
without running any binary.

The third form validates the serving-engine artifact bundle
(docs/SERVING.md) -- serve.json, serve_stats.json, serve_stats.csv,
serve_manifest.json -- either from an existing dump directory or by
running `quickstart --serve --obs-dir <tmp>` first.  Checks include
the exact conservation invariants
  offered  == admitted  + rejected
  admitted == completed + shed + failed
  shed     == shed_queue_drop + shed_deadline,
latency/queue-wait digest counts == the completed counter (in both
serve.json and the stats registry), per-level degradation dwell
cycles summing exactly to span_cycles, and serve.json counts
matching the serve.* registry counters one for one.

Exit status 0 when every check passes; 1 with a FAIL line per
violation otherwise. Wired into CTest as the `check_metrics` and
`check_bench_schema` tests.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

DISTRIBUTION_FIELDS = {"kind", "count", "mean", "stddev", "min", "max"}
HISTOGRAM_FIELDS = {
    "kind", "count", "sum", "underflow", "overflow", "edges", "counts",
}
# Streaming quantile digests (obs/digest.h): quantile fields appear
# only once the digest has seen at least one sample.
DIGEST_QUANTILES = ["min", "p50", "p90", "p95", "p99", "max"]
DIGEST_FIELDS_EMPTY = {"kind", "count"}
DIGEST_FIELDS = DIGEST_FIELDS_EMPTY | set(DIGEST_QUANTILES)

HW_MODULES = [
    "hash_computation",
    "norm_computation",
    "candidate_selection",
    "attention_compute",
    "output_division",
    "key_hash_memory",
    "key_norm_memory",
    "key_value_memory",
    "query_output_memory",
]

# Stall-attribution schema (src/sim/stall.h). Module and cause names
# in <prefix>.stall.<module>.<field> counters must come from exactly
# these sets; anything else is a producer/validator drift bug.
STALL_MODULES = [
    "hash_computation",
    "norm_computation",
    "candidate_selection",
    "arbitration",
    "attention_compute",
    "output_division",
]
STALL_CAUSES = [
    "busy",
    "starved",
    "backpressured",
    "bank_conflict",
    "drained",
]
# Published only when fault injection ran (SimConfig::fault); a
# fault-free stats dump must stay byte-identical to one produced by a
# build without the fault subsystem, so absence is not an error.
OPTIONAL_STALL_CAUSES = [
    "fault_retry",
]
STALL_FIELDS = {f"{cause}_cycles"
                for cause in STALL_CAUSES + OPTIONAL_STALL_CAUSES}
STALL_FIELDS.add("lane_cycles")

# Fault-injection bookkeeping counters (<prefix>.fault.<name>, see
# fault/fault.h); optional as a group, all-or-nothing when present.
FAULT_COUNTERS = [
    "injected",
    "silent",
    "detected",
    "corrected",
    "retry_events",
    "retry_stall_cycles",
]

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_stats(stats):
    for name, value in stats.items():
        check(METRIC_NAME_RE.match(name),
              f"stats: invalid metric name {name!r}")
        if isinstance(value, dict):
            kind = value.get("kind")
            check(kind in ("distribution", "histogram", "digest"),
                  f"stats: {name}: unknown kind {kind!r}")
            if kind == "digest":
                expected = (DIGEST_FIELDS if value.get("count")
                            else DIGEST_FIELDS_EMPTY)
            elif kind == "distribution":
                expected = DISTRIBUTION_FIELDS
            else:
                expected = HISTOGRAM_FIELDS
            check(set(value) == expected,
                  f"stats: {name}: fields {sorted(value)} != "
                  f"{sorted(expected)}")
            if kind == "digest" and value.get("count"):
                quantiles = [value.get(q) for q in DIGEST_QUANTILES]
                check(all(isinstance(q, (int, float))
                          for q in quantiles)
                      and quantiles == sorted(quantiles),
                      f"stats: {name}: digest quantiles not "
                      f"monotone: {quantiles}")
            if kind == "histogram":
                check(len(value["edges"]) == len(value["counts"]) + 1,
                      f"stats: {name}: edges/counts length mismatch")
                total = (sum(value["counts"]) + value["underflow"]
                         + value["overflow"])
                check(total == value["count"],
                      f"stats: {name}: bucket counts do not sum to "
                      f"count")
        else:
            check(isinstance(value, (int, float)),
                  f"stats: {name}: counter is not a number")

    total = stats.get("sim.accel0.cycles.total")
    check(isinstance(total, (int, float)) and total > 0,
          "stats: missing sim.accel0.cycles.total")
    for module in HW_MODULES:
        name = f"sim.accel0.{module}.active_cycles"
        active = stats.get(name)
        check(isinstance(active, (int, float)),
              f"stats: missing {name}")
        if isinstance(active, (int, float)) and total:
            check(0 <= active,
                  f"stats: {name} is negative")
    check(any(name.startswith("host.") and name.endswith(".seconds")
              for name in stats),
          "stats: no host.<scope>.seconds profiling distributions "
          "(is ELSA_PROF set?)")
    check_stall_counters(stats, "sim.accel0")
    check_fault_counters(stats, "sim.accel0")


def check_stall_counters(stats, prefix):
    """Validate the <prefix>.stall.* counters: known names only, and
    exact per-module conservation cause-sum == lane_cycles."""
    stall_prefix = f"{prefix}.stall."
    seen_modules = set()
    for name in stats:
        if not name.startswith(stall_prefix):
            continue
        parts = name[len(stall_prefix):].split(".")
        check(len(parts) == 2,
              f"stats: malformed stall counter name {name!r}")
        if len(parts) != 2:
            continue
        module, field = parts
        check(module in STALL_MODULES,
              f"stats: {name}: unknown stall module {module!r}")
        check(field in STALL_FIELDS,
              f"stats: {name}: unknown stall field {field!r}")
        seen_modules.add(module)

    # quickstart runs with attribute_stalls on, so the counters must
    # exist -- for every attributed module, with all six fields.
    check(seen_modules == set(STALL_MODULES),
          f"stats: stall counters cover {sorted(seen_modules)}, "
          f"expected all of {sorted(STALL_MODULES)}")
    for module in STALL_MODULES:
        lane = stats.get(f"{stall_prefix}{module}.lane_cycles")
        check(isinstance(lane, (int, float)) and lane > 0,
              f"stats: missing/zero {stall_prefix}{module}"
              f".lane_cycles")
        cause_sum = 0
        for cause in STALL_CAUSES:
            value = stats.get(f"{stall_prefix}{module}"
                              f".{cause}_cycles")
            check(isinstance(value, (int, float)) and value >= 0,
                  f"stats: missing/negative {stall_prefix}{module}"
                  f".{cause}_cycles")
            if isinstance(value, (int, float)):
                cause_sum += value
        for cause in OPTIONAL_STALL_CAUSES:
            value = stats.get(f"{stall_prefix}{module}"
                              f".{cause}_cycles")
            if value is not None:
                check(isinstance(value, (int, float)) and value >= 0,
                      f"stats: negative {stall_prefix}{module}"
                      f".{cause}_cycles")
                if isinstance(value, (int, float)):
                    cause_sum += value
        if isinstance(lane, (int, float)):
            check(cause_sum == lane,
                  f"stats: {module}: cause sum {cause_sum} != "
                  f"lane_cycles {lane} (conservation violated)")


def check_fault_counters(stats, prefix):
    """Validate the optional <prefix>.fault.* counters: when fault
    injection ran, all six are published together and satisfy the
    conservation invariant injected == silent + detected +
    corrected."""
    names = {f"{prefix}.fault.{counter}": counter
             for counter in FAULT_COUNTERS}
    present = {counter: stats[name]
               for name, counter in names.items() if name in stats}
    stray = [name for name in stats
             if name.startswith(f"{prefix}.fault.")
             and name not in names]
    check(not stray, f"stats: unknown fault counters {stray}")
    if not present:
        return  # Fault injection never ran: nothing to validate.
    check(set(present) == set(FAULT_COUNTERS),
          f"stats: partial fault counter set {sorted(present)}, "
          f"expected all of {sorted(FAULT_COUNTERS)}")
    for counter, value in present.items():
        check(isinstance(value, (int, float)) and value >= 0,
              f"stats: {prefix}.fault.{counter} is not a "
              f"non-negative number")
    if set(present) == set(FAULT_COUNTERS):
        check(present["injected"] == present["silent"]
              + present["detected"] + present["corrected"],
              f"stats: fault counters violate injected == silent + "
              f"detected + corrected ({present})")


def check_telemetry(telemetry, stats):
    """Validate telemetry.json (docs/OBSERVABILITY.md): schema, one
    shared bin axis, and conservation -- every stall channel's bin
    sum must equal the matching stats.json stall counter exactly
    (both are integer tallies of the same lane cycles; the recorder's
    telescoped rounding makes the bins sum exactly)."""
    prefix = telemetry.get("prefix")
    check(telemetry.get("schema_version") == 1,
          "telemetry: schema_version != 1")
    check(prefix == "sim.accel0",
          f"telemetry: prefix {prefix!r} != 'sim.accel0'")
    bin_width = telemetry.get("bin_width_cycles")
    check(isinstance(bin_width, (int, float)) and bin_width >= 1,
          f"telemetry: bad bin_width_cycles {bin_width!r}")
    num_bins = telemetry.get("num_bins")
    check(isinstance(num_bins, int) and num_bins >= 1,
          f"telemetry: bad num_bins {num_bins!r}")
    check(telemetry.get("total_cycles")
          == stats.get(f"{prefix}.cycles.total"),
          "telemetry: total_cycles != stats cycles.total")
    check(telemetry.get("invocations")
          == stats.get(f"{prefix}.invocations"),
          "telemetry: invocations != stats invocations")

    channels = telemetry.get("channels")
    check(isinstance(channels, dict) and channels,
          "telemetry: channels missing or empty")
    if not isinstance(channels, dict):
        return
    for name, bins in sorted(channels.items()):
        check(isinstance(bins, list) and len(bins) == num_bins,
              f"telemetry: {name}: {len(bins)} bins != num_bins "
              f"{num_bins}")
        check(all(isinstance(v, (int, float)) and v >= 0
                  for v in bins),
              f"telemetry: {name}: non-numeric or negative bin")

    # Exact conservation: stall channel bin sums == stats counters,
    # in both directions (every channel has a counter, every cause
    # counter has a channel; lane_cycles is totals-only by design).
    for name, bins in sorted(channels.items()):
        if not name.startswith("stall."):
            continue
        parts = name.split(".")
        check(len(parts) == 3 and parts[1] in STALL_MODULES
              and parts[2] in STALL_FIELDS
              and parts[2] != "lane_cycles",
              f"telemetry: malformed stall channel {name!r}")
        counter = stats.get(f"{prefix}.{name}")
        check(isinstance(counter, (int, float))
              and sum(bins) == counter,
              f"telemetry: {name}: bin sum {sum(bins)} != stats "
              f"counter {counter!r} (conservation violated)")
    for stat_name in stats:
        stall_prefix = f"{prefix}.stall."
        if (not stat_name.startswith(stall_prefix)
                or stat_name.endswith(".lane_cycles")):
            continue
        channel = stat_name[len(prefix) + 1:]
        check(channel in channels,
              f"telemetry: stats counter {stat_name} has no "
              f"telemetry channel")

    # Activity channels integrate the same per-module activity the
    # active_cycles counters hold (float accumulation -> tolerance).
    for module in HW_MODULES:
        name = f"activity.{module}"
        check(name in channels, f"telemetry: missing channel {name}")
        active = stats.get(f"{prefix}.{module}.active_cycles")
        if name in channels and isinstance(active, (int, float)):
            total = sum(channels[name])
            check(abs(total - active)
                  <= 1e-6 * max(1.0, abs(active)),
                  f"telemetry: {name}: bin sum {total} != "
                  f"active_cycles {active}")
    check("queue.occupancy_cycles" in channels,
          "telemetry: missing channel queue.occupancy_cycles")
    queries = stats.get(f"{prefix}.queries")
    completed = channels.get("queries.completed")
    check(completed is not None
          and isinstance(queries, (int, float))
          and sum(completed) == queries,
          "telemetry: queries.completed bin sum != stats queries")

    energy = telemetry.get("energy", {})
    per_bin = energy.get("bin_total_uj") if isinstance(energy, dict) \
        else None
    check(isinstance(per_bin, list) and len(per_bin) == num_bins,
          "telemetry: energy.bin_total_uj missing or wrong length")
    if isinstance(per_bin, list):
        check(all(isinstance(v, (int, float)) and v >= 0
                  for v in per_bin),
              "telemetry: energy.bin_total_uj has negative entries")

    digests = telemetry.get("digests")
    check(isinstance(digests, dict)
          and f"{prefix}.latency.cycles_digest" in digests,
          "telemetry: missing latency.cycles_digest digest")
    if isinstance(digests, dict):
        for name, digest in sorted(digests.items()):
            count = digest.get("count")
            check(isinstance(count, (int, float)) and count >= 1,
                  f"telemetry: {name}: empty digest published")
            quantiles = [digest.get(q) for q in DIGEST_QUANTILES]
            check(all(isinstance(q, (int, float))
                      for q in quantiles)
                  and quantiles == sorted(quantiles),
                  f"telemetry: {name}: quantiles not monotone: "
                  f"{quantiles}")

    intervals = telemetry.get("query_intervals")
    if intervals is not None and isinstance(digests, dict):
        interval_digest = digests.get(
            f"{prefix}.query.interval_cycles_digest", {})
        if not telemetry.get("query_intervals_truncated", False):
            check(len(intervals) == interval_digest.get("count"),
                  "telemetry: query_intervals length != interval "
                  "digest count")


def check_spans(spans, stats):
    """Validate spans.json (docs/OBSERVABILITY.md): schema, exact
    per-exemplar conservation, and the whole-run reconciliation
    identities between the span component totals and the stats.json
    stall counters."""
    prefix = spans.get("prefix")
    check(spans.get("schema_version") == 1,
          "spans: schema_version != 1")
    check(prefix == "sim.accel0",
          f"spans: prefix {prefix!r} != 'sim.accel0'")
    check(spans.get("stages") == STALL_MODULES,
          f"spans: stages {spans.get('stages')!r} != the attributed "
          f"module list")
    expected_causes = [f"{c}_cycles"
                       for c in STALL_CAUSES + OPTIONAL_STALL_CAUSES]
    check(spans.get("stall_causes") == expected_causes,
          f"spans: stall_causes {spans.get('stall_causes')!r} != "
          f"{expected_causes}")
    exemplar_count = spans.get("exemplar_count")
    check(isinstance(exemplar_count, int) and exemplar_count >= 1,
          f"spans: bad exemplar_count {exemplar_count!r}")
    num_queries = spans.get("num_queries")
    check(isinstance(num_queries, int) and num_queries >= 1,
          f"spans: bad num_queries {num_queries!r}")

    # Invocation roll-ups reconcile against the run counters even for
    # invocations that kept no exemplar record.
    invocations = spans.get("invocations", [])
    check(isinstance(invocations, list) and invocations,
          "spans: invocations missing or empty")
    check(sum(inv.get("queries", 0) for inv in invocations)
          == num_queries,
          "spans: invocation query sum != num_queries")
    check(sum(inv.get("queries", 0) for inv in invocations)
          == stats.get(f"{prefix}.queries"),
          "spans: invocation query sum != stats queries counter")
    check(sum(inv.get("total_cycles", 0) for inv in invocations)
          == stats.get(f"{prefix}.cycles.total"),
          "spans: invocation cycle sum != stats cycles.total")

    # Bidirectional totals reconciliation: spans.json totals ==
    # stats.json span counters (published from the same QuerySpanSet)
    # and, where the pipeline model pins the relation, == the
    # independent stall-attribution counters:
    #   span od.service     == stall.output_division.busy_cycles
    #                          (division runs once per query);
    #   2 * span hash.service == stall.hash_computation.busy_cycles
    #                          (each hash is counted in preprocessing
    #                          AND in its overlap interval);
    #   span cs stall       <= stall.candidate_selection.
    #                          bank_conflict_cycles (wall cycles on
    #                          the critical bank vs lane cycles over
    #                          all banks).
    totals = spans.get("totals", {})
    check(list(totals) == STALL_MODULES,
          "spans: totals keys != stage list")
    for module, entry in totals.items():
        for field in ("queue_wait_cycles", "service_cycles",
                      "stall_cycles"):
            value = entry.get(field)
            check(isinstance(value, int) and value >= 0,
                  f"spans: totals.{module}.{field} not a "
                  f"non-negative integer")
            counter = stats.get(f"{prefix}.span.{module}.{field}")
            check(counter == value,
                  f"spans: totals.{module}.{field} {value} != stats "
                  f"span counter {counter!r}")
    od_service = totals.get("output_division", {}).get(
        "service_cycles")
    od_busy = stats.get(f"{prefix}.stall.output_division.busy_cycles")
    check(od_service == od_busy,
          f"spans: output_division service {od_service} != stall "
          f"busy counter {od_busy} (reconciliation violated)")
    hash_service = totals.get("hash_computation", {}).get(
        "service_cycles")
    hash_busy = stats.get(f"{prefix}.stall.hash_computation"
                          f".busy_cycles")
    check(isinstance(hash_service, int)
          and 2 * hash_service == hash_busy,
          f"spans: 2 * hash service {hash_service} != stall busy "
          f"counter {hash_busy} (reconciliation violated)")
    cs_stall = totals.get("candidate_selection", {}).get(
        "stall_cycles")
    cs_conflict = stats.get(f"{prefix}.stall.candidate_selection"
                            f".bank_conflict_cycles")
    check(isinstance(cs_stall, int)
          and isinstance(cs_conflict, (int, float))
          and cs_stall <= cs_conflict,
          f"spans: candidate_selection stall {cs_stall} > "
          f"bank_conflict counter {cs_conflict}")

    # Digests cover every query, not just the exemplars.
    digests = spans.get("digests", {})
    check(set(digests) == set(STALL_MODULES + ["query_total_cycles"]),
          "spans: digests keys != stage list + query_total_cycles")

    def check_digest(label, digest):
        check(digest.get("count") == num_queries,
              f"spans: {label}: digest count {digest.get('count')!r}"
              f" != num_queries {num_queries}")
        if digest.get("count"):
            quantiles = [digest.get(q) for q in DIGEST_QUANTILES]
            check(all(isinstance(q, (int, float)) for q in quantiles)
                  and quantiles == sorted(quantiles),
                  f"spans: {label}: quantiles not monotone: "
                  f"{quantiles}")

    for module in STALL_MODULES:
        for component in ("queue_wait", "service", "stall"):
            check_digest(f"{module}.{component}",
                         digests.get(module, {}).get(component, {}))
    check_digest("query_total_cycles",
                 digests.get("query_total_cycles", {}))
    stats_total_digest = stats.get(
        f"{prefix}.span.query.total_cycles_digest", {})
    check(stats_total_digest.get("count") == num_queries,
          "spans: stats span.query.total_cycles_digest count != "
          "num_queries")

    # Exemplars: the slowest-K / decile-representative policy keeps
    # at least min(K, n) records, every one flagged, conserving, and
    # consistent with its entry/exit cycle stamps.
    exemplars = spans.get("exemplars", [])
    check(isinstance(exemplars, list)
          and len(exemplars) >= min(exemplar_count, num_queries),
          f"spans: only {len(exemplars)} exemplars for "
          f"exemplar_count {exemplar_count}")
    slowest = 0
    for i, ex in enumerate(exemplars):
        check(ex.get("slowest") or ex.get("decile"),
              f"spans: exemplar {i} kept without a policy flag")
        for field in ("invocation", "query", "critical_bank"):
            check(isinstance(ex.get(field), int)
                  and ex.get(field, -1) >= 0,
                  f"spans: exemplar {i} missing identity field "
                  f"{field!r}")
        slowest += 1 if ex.get("slowest") else 0
        entry = ex.get("entry_cycle")
        exit_cycle = ex.get("exit_cycle")
        end_to_end = ex.get("end_to_end_cycles")
        check(isinstance(entry, int) and isinstance(exit_cycle, int)
              and entry <= exit_cycle
              and exit_cycle - entry == end_to_end,
              f"spans: exemplar {i}: entry/exit/end_to_end "
              f"inconsistent")
        stages = ex.get("stages", {})
        check(list(stages) == STALL_MODULES,
              f"spans: exemplar {i}: stage keys != stage list")
        component_sum = 0
        for stage in stages.values():
            component_sum += stage.get("queue_wait", 0)
            component_sum += stage.get("service", 0)
            component_sum += sum(stage.get("stall", {}).values())
            for cause in stage.get("stall", {}):
                check(cause in expected_causes,
                      f"spans: exemplar {i}: unknown stall cause "
                      f"{cause!r}")
        check(component_sum == end_to_end,
              f"spans: exemplar {i} (query {ex.get('query')}): "
              f"component sum {component_sum} != end-to-end "
              f"{end_to_end} (conservation violated)")
    check(slowest == min(exemplar_count, num_queries),
          f"spans: {slowest} slowest-flagged exemplars, expected "
          f"{min(exemplar_count, num_queries)}")


def check_stats_csv(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    check(lines and lines[0] == "name,kind,field,value",
          "stats.csv: missing name,kind,field,value header")
    check(len(lines) > 1, "stats.csv: no data rows")
    for line in lines[1:]:
        check(len(line.split(",")) == 4,
              f"stats.csv: row does not have 4 fields: {line!r}")


def check_trace(trace):
    check(trace.get("displayTimeUnit") == "ns",
          "trace: displayTimeUnit != 'ns'")
    events = trace.get("traceEvents")
    check(isinstance(events, list) and events,
          "trace: traceEvents missing or empty")
    if not isinstance(events, list):
        return
    phases = set()
    for i, event in enumerate(events):
        for field in ("name", "ph", "pid", "tid"):
            check(field in event, f"trace: event {i} missing {field!r}")
        ph = event.get("ph")
        phases.add(ph)
        if ph == "X":
            check("ts" in event and "dur" in event,
                  f"trace: complete event {i} missing ts/dur")
            check(event.get("dur", 0) >= 1,
                  f"trace: complete event {i} has dur < 1")
            check(isinstance(event.get("cat"), str)
                  and event.get("cat"),
                  f"trace: complete event {i} missing cat")
        elif ph == "C":
            check("value" in event.get("args", {}),
                  f"trace: counter event {i} missing args.value")
        elif ph == "M":
            check(event.get("name") in ("process_name", "thread_name"),
                  f"trace: unexpected metadata event {i}")
            check("name" in event.get("args", {}),
                  f"trace: metadata event {i} missing args.name")
        elif ph in ("s", "t", "f"):
            check("ts" in event and "id" in event,
                  f"trace: flow event {i} missing ts/id")
            check(isinstance(event.get("cat"), str)
                  and event.get("cat"),
                  f"trace: flow event {i} missing cat")
            if ph == "f":
                # Finish arrows bind to the enclosing slice.
                check(event.get("bp") == "e",
                      f"trace: flow-finish event {i} missing "
                      f"bp == 'e'")
    check("M" in phases, "trace: no metadata (M) events")
    check("X" in phases, "trace: no complete (X) events")
    check("C" in phases, "trace: no counter (C) events")
    # Span exemplars link their stages with flow arrows; a start
    # without a finish (or vice versa) renders as a dangling arrow.
    check("s" in phases and "f" in phases,
          "trace: no span flow (s/f) events")


def check_manifest(manifest, stats):
    check(manifest.get("artifact") == "quickstart",
          "manifest: artifact != 'quickstart'")
    check(manifest.get("schema_version") == 1,
          "manifest: schema_version != 1")
    for section in ("build", "config", "metrics", "utilization",
                    "bottleneck"):
        check(isinstance(manifest.get(section), dict),
              f"manifest: missing section {section!r}")
    bottleneck = manifest.get("bottleneck", {})
    check(bottleneck.get("limiting_module") in STALL_MODULES,
          f"manifest: bottleneck.limiting_module "
          f"{bottleneck.get('limiting_module')!r} not a known module")
    busy = bottleneck.get("busy_fraction")
    headroom = bottleneck.get("headroom")
    check(isinstance(busy, (int, float)) and 0.0 <= busy <= 1.0,
          "manifest: bottleneck.busy_fraction outside [0, 1]")
    check(isinstance(headroom, (int, float))
          and isinstance(busy, (int, float))
          and abs(busy + headroom - 1.0) < 1e-9,
          "manifest: bottleneck busy_fraction + headroom != 1")
    build = manifest.get("build", {})
    for key in ("git_describe", "build_type", "compiler"):
        check(key in build, f"manifest: build missing {key!r}")

    # Cross-check: manifest utilization == active_cycles / total from
    # the stats registry (both derive from the same RunResult).
    total = stats.get("sim.accel0.cycles.total", 0)
    utilization = manifest.get("utilization", {})
    check(set(utilization) == set(HW_MODULES),
          "manifest: utilization keys != hardware module list")
    metrics = manifest.get("metrics", {})
    check(metrics.get("total_cycles") == total,
          "manifest: metrics.total_cycles != stats cycles.total")
    for key in ("preprocess_cycles", "execute_cycles",
                "candidate_fraction", "fallbacks"):
        check(key in metrics, f"manifest: metrics missing {key!r}")
    check(metrics.get("preprocess_cycles", -1)
          + metrics.get("execute_cycles", -1) == total,
          "manifest: preprocess_cycles + execute_cycles != "
          "total_cycles")
    # The per-module busy-fraction sweep behind the limiting-module
    # call: every attributed module reported, in range, and the
    # headline busy_fraction equal to the limiting module's entry.
    limiting = bottleneck.get("limiting_module")
    for module in STALL_MODULES:
        value = bottleneck.get(f"busy_fraction_{module}")
        check(isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
              f"manifest: bottleneck.busy_fraction_{module} "
              f"{value!r} outside [0, 1]")
    check(bottleneck.get(f"busy_fraction_{limiting}") == busy,
          "manifest: busy_fraction != the limiting module's "
          "busy_fraction_<module> entry")
    for module in HW_MODULES:
        active = stats.get(f"sim.accel0.{module}.active_cycles")
        if total and isinstance(active, (int, float)):
            expected = min(1.0, active / total)
            got = utilization.get(module)
            check(isinstance(got, (int, float))
                  and abs(got - expected) < 1e-9,
                  f"manifest: utilization.{module} = {got!r}, "
                  f"expected {expected!r}")


def check_bench_results(path):
    """Validate an aggregated BENCH_RESULTS.json file from the
    elsa_bench driver (see docs/OBSERVABILITY.md)."""
    try:
        results = load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        check(False, f"bench-results: cannot load {path}: {exc}")
        return
    check(results.get("schema_version") == 1,
          "bench-results: schema_version != 1")
    check(results.get("suite") == "elsa_bench",
          f"bench-results: suite {results.get('suite')!r} != "
          f"'elsa_bench'")
    check(isinstance(results.get("quick"), bool),
          "bench-results: missing boolean 'quick'")
    build = results.get("build")
    check(isinstance(build, dict), "bench-results: missing 'build'")
    if isinstance(build, dict):
        for key in ("git_describe", "build_type", "compiler"):
            check(key in build,
                  f"bench-results: build missing {key!r}")
    benches = results.get("benches")
    check(isinstance(benches, dict) and benches,
          "bench-results: 'benches' missing or empty")
    if not isinstance(benches, dict):
        return
    for name, bench in sorted(benches.items()):
        check(isinstance(bench, dict),
              f"bench-results: {name}: entry is not an object")
        if not isinstance(bench, dict):
            continue
        check(bench.get("artifact") == name,
              f"bench-results: {name}: artifact "
              f"{bench.get('artifact')!r} != bench name")
        check(bench.get("schema_version") == 1,
              f"bench-results: {name}: schema_version != 1")
        metrics = bench.get("metrics")
        check(isinstance(metrics, dict) and metrics,
              f"bench-results: {name}: metrics missing or empty")
        if isinstance(metrics, dict):
            for metric, value in metrics.items():
                check(isinstance(value, (int, float, str, bool)),
                      f"bench-results: {name}.{metric}: value is "
                      f"not a scalar")
            # Fault-sweep entries carry the classification invariant
            # in their metric names: for every grid point,
            # fault_injected_<label> == fault_silent_<label> +
            # fault_detected_<label> + fault_corrected_<label>.
            for metric, value in metrics.items():
                if not metric.startswith("fault_injected_"):
                    continue
                label = metric[len("fault_injected_"):]
                parts = {kind: metrics.get(f"fault_{kind}_{label}")
                         for kind in ("silent", "detected",
                                      "corrected")}
                check(all(isinstance(p, (int, float))
                          for p in parts.values()),
                      f"bench-results: {name}: {metric} lacks "
                      f"matching silent/detected/corrected metrics")
                if all(isinstance(p, (int, float))
                       for p in parts.values()):
                    check(value == sum(parts.values()),
                          f"bench-results: {name}: fault counters "
                          f"for {label!r} violate injected == "
                          f"silent + detected + corrected")


SERVE_COUNTS = [
    "offered", "admitted", "rejected", "completed", "shed",
    "shed_queue_drop", "shed_deadline", "failed", "slo_violations",
    "retry_attempts", "retry_backoff_cycles", "faulty_attempts",
]

# serve.json's config-echo section (docs/SERVING.md): the engine
# restates the knobs that shaped the run so an artifact is
# self-describing without the invoking command line.
SERVE_CONFIG_KEYS = [
    "admission", "num_accelerators", "num_requests",
    "queue_capacity", "deadline_cycles", "base_p",
    "mean_interarrival_cycles", "fault_enabled", "max_attempts",
    "degradation_enabled", "ladder", "classes",
]

# serve.json count name -> serve.* registry counter name. Dotted
# breakdown counters keep their serve.json aliases here so the two
# artifacts can be diffed mechanically.
SERVE_COUNTERS = {
    "offered": "serve.offered",
    "admitted": "serve.admitted",
    "rejected": "serve.rejected",
    "completed": "serve.completed",
    "shed": "serve.shed",
    "shed_queue_drop": "serve.shed.queue_drop",
    "shed_deadline": "serve.shed.deadline",
    "failed": "serve.failed",
    "slo_violations": "serve.slo_violations",
    "retry_attempts": "serve.retry.attempts",
    "retry_backoff_cycles": "serve.retry.backoff_cycles",
    "faulty_attempts": "serve.faulty_attempts",
}


def check_serve_json(serve):
    """Validate serve.json (docs/SERVING.md): counts present, both
    conservation invariants exact, shed breakdown exact, digest
    counts == completed, and level dwells summing to the span."""
    config = serve.get("config", {})
    for name in SERVE_CONFIG_KEYS:
        check(name in config, f"serve.json: config missing {name!r}")
    check(isinstance(config.get("ladder"), list),
          "serve.json: config.ladder not a list")
    classes = config.get("classes")
    check(isinstance(classes, list) and classes,
          "serve.json: config.classes missing or empty")
    for i, cls in enumerate(classes if isinstance(classes, list)
                            else []):
        for name in ("model", "sequence_length", "weight"):
            check(name in cls,
                  f"serve.json: config.classes[{i}] missing {name!r}")

    counts = serve.get("counts", {})
    for name in SERVE_COUNTS:
        check(isinstance(counts.get(name), int)
              and counts.get(name, -1) >= 0,
              f"serve.json: counts.{name} missing or not a "
              f"non-negative integer")
    if any(not isinstance(counts.get(n), int) for n in SERVE_COUNTS):
        return

    check(counts["offered"]
          == counts["admitted"] + counts["rejected"],
          f"serve.json: offered {counts['offered']} != admitted "
          f"{counts['admitted']} + rejected {counts['rejected']} "
          f"(conservation violated)")
    check(counts["admitted"] == counts["completed"] + counts["shed"]
          + counts["failed"],
          f"serve.json: admitted {counts['admitted']} != completed "
          f"{counts['completed']} + shed {counts['shed']} + failed "
          f"{counts['failed']} (conservation violated)")
    check(counts["shed"]
          == counts["shed_queue_drop"] + counts["shed_deadline"],
          f"serve.json: shed {counts['shed']} != queue_drop "
          f"{counts['shed_queue_drop']} + deadline "
          f"{counts['shed_deadline']}")
    check(counts["slo_violations"] <= counts["completed"],
          "serve.json: slo_violations > completed")
    conservation = serve.get("conservation", {})
    check(conservation.get("offered_eq_admitted_plus_rejected")
          is True
          and conservation.get(
              "admitted_eq_completed_plus_shed_plus_failed") is True,
          "serve.json: conservation flags not both true")

    for digest_name in ("latency_cycles", "queue_wait_cycles"):
        digest = serve.get(digest_name, {})
        check(digest.get("count") == counts["completed"],
              f"serve.json: {digest_name} count "
              f"{digest.get('count')!r} != completed "
              f"{counts['completed']}")
        if digest.get("count"):
            quantiles = [digest.get(q)
                         for q in ("min", "p50", "p90", "p95",
                                   "p99", "max")]
            check(all(isinstance(q, (int, float)) for q in quantiles)
                  and quantiles == sorted(quantiles),
                  f"serve.json: {digest_name} quantiles not "
                  f"monotone: {quantiles}")

    span = serve.get("span_cycles")
    check(isinstance(span, int) and span >= 0,
          f"serve.json: bad span_cycles {span!r}")
    degradation = serve.get("degradation", {})
    transitions = degradation.get("transitions")
    check(isinstance(transitions, int) and transitions >= 0,
          f"serve.json: degradation.transitions {transitions!r} not "
          f"a non-negative integer")
    levels = degradation.get("levels", [])
    check(isinstance(levels, list) and levels,
          "serve.json: degradation.levels missing or empty")
    for i, level in enumerate(levels if isinstance(levels, list)
                              else []):
        for name in ("p", "dwell_cycles", "entries", "dispatched"):
            check(name in level,
                  f"serve.json: degradation.levels[{i}] missing "
                  f"{name!r}")
    if isinstance(levels, list) and isinstance(span, int):
        dwell_sum = sum(level.get("dwell_cycles", 0)
                        for level in levels)
        check(dwell_sum == span,
              f"serve.json: level dwell sum {dwell_sum} != "
              f"span_cycles {span} (conservation violated)")
        dispatched = sum(level.get("dispatched", 0)
                         for level in levels)
        attempts = (counts["completed"] + counts["failed"]
                    + counts["retry_attempts"])
        check(dispatched == attempts,
              f"serve.json: level dispatched sum {dispatched} != "
              f"completed + failed + retry_attempts {attempts}")

    slo = serve.get("slo", {})
    for rate in ("shed_rate", "deadline_miss_rate"):
        value = slo.get(rate)
        check(isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
              f"serve.json: slo.{rate} {value!r} outside [0, 1]")
    check(isinstance(slo.get("goodput_qps"), (int, float))
          and slo.get("goodput_qps", -1) >= 0,
          "serve.json: slo.goodput_qps missing or negative")
    return counts


def check_serve_stats(stats, serve):
    """Validate serve_stats.json against serve.json: every count has
    a matching serve.* counter, and the request digests saw exactly
    one sample per completed request."""
    for name in stats:
        check(METRIC_NAME_RE.match(name),
              f"serve_stats: invalid metric name {name!r}")
        check(name.startswith("serve."),
              f"serve_stats: metric {name!r} outside the serve. "
              f"namespace")
    counts = serve.get("counts", {})
    for count_name, metric in SERVE_COUNTERS.items():
        check(stats.get(metric) == counts.get(count_name),
              f"serve_stats: {metric} {stats.get(metric)!r} != "
              f"serve.json counts.{count_name} "
              f"{counts.get(count_name)!r}")
    check(stats.get("serve.span_cycles")
          == serve.get("span_cycles"),
          "serve_stats: serve.span_cycles != serve.json span_cycles")

    completed = counts.get("completed")
    for metric in ("serve.latency.request_cycles_digest",
                   "serve.queue_wait.request_cycles_digest"):
        digest = stats.get(metric)
        check(isinstance(digest, dict)
              and digest.get("kind") == "digest",
              f"serve_stats: missing digest {metric}")
        if isinstance(digest, dict):
            check(digest.get("count") == completed,
                  f"serve_stats: {metric} count "
                  f"{digest.get('count')!r} != completed "
                  f"{completed!r}")

    levels = serve.get("degradation", {}).get("levels", [])
    for i, level in enumerate(levels):
        for field in ("dwell_cycles", "dispatched"):
            metric = f"serve.degradation.level{i}.{field}"
            check(stats.get(metric) == level.get(field),
                  f"serve_stats: {metric} {stats.get(metric)!r} != "
                  f"serve.json level value {level.get(field)!r}")

    slo = serve.get("slo", {})
    for rate in ("goodput_qps", "shed_rate", "deadline_miss_rate"):
        value = stats.get(f"serve.{rate}")
        check(isinstance(value, (int, float))
              and value == slo.get(rate),
              f"serve_stats: serve.{rate} {value!r} != serve.json "
              f"slo value {slo.get(rate)!r}")


def check_serve_manifest(manifest, serve):
    check(manifest.get("artifact") == "quickstart_serve",
          "serve_manifest: artifact != 'quickstart_serve'")
    check(manifest.get("schema_version") == 1,
          "serve_manifest: schema_version != 1")
    for section in ("build", "config", "metrics"):
        check(isinstance(manifest.get(section), dict),
              f"serve_manifest: missing section {section!r}")
    metrics = manifest.get("metrics", {})
    check(metrics.get("completed")
          == serve.get("counts", {}).get("completed"),
          "serve_manifest: metrics.completed != serve.json "
          "counts.completed")
    slo = serve.get("slo", {})
    for rate in ("goodput_qps", "shed_rate", "deadline_miss_rate"):
        check(metrics.get(rate) == slo.get(rate),
              f"serve_manifest: metrics.{rate} "
              f"{metrics.get(rate)!r} != serve.json slo value "
              f"{slo.get(rate)!r}")


def check_serve_dir(obs_dir):
    for name in ("serve.json", "serve_stats.json", "serve_stats.csv",
                 "serve_manifest.json"):
        check(os.path.exists(os.path.join(obs_dir, name)),
              f"missing serve artifact {name}")
    if failures:
        return
    serve = load_json(os.path.join(obs_dir, "serve.json"))
    check_serve_json(serve)
    check_serve_stats(load_json(os.path.join(obs_dir,
                                             "serve_stats.json")),
                      serve)
    check_stats_csv(os.path.join(obs_dir, "serve_stats.csv"))
    check_serve_manifest(load_json(os.path.join(
        obs_dir, "serve_manifest.json")), serve)


def run_serve_check(target):
    """--serve entry point: validate an existing dump directory, or
    run the quickstart binary with --serve into a tempdir first."""
    if os.path.isdir(target):
        check_serve_dir(target)
        return
    with tempfile.TemporaryDirectory(prefix="elsa_serve_") as tmp:
        obs_dir = os.path.join(tmp, "serve")
        result = subprocess.run(
            [target, "--serve", "--obs-dir", obs_dir],
            capture_output=True, text=True, timeout=600)
        check(result.returncode == 0,
              f"quickstart --serve exited {result.returncode}:\n"
              f"{result.stderr[-2000:]}")
        if result.returncode != 0:
            return
        check_serve_dir(obs_dir)


def check_simd_identity(obs_dir, scalar_dir):
    """The bundle of a forced-scalar run must equal the dispatched
    run's: trace/telemetry/spans byte for byte, and stats.json /
    stats.csv apart from the host.* wall-clock profiling entries."""
    for name in ("trace.json", "telemetry.json", "spans.json"):
        with open(os.path.join(obs_dir, name), "rb") as f:
            dispatched = f.read()
        with open(os.path.join(scalar_dir, name), "rb") as f:
            scalar = f.read()
        check(dispatched == scalar,
              f"{name} differs under ELSA_SIMD=scalar")

    def sim_stats(d):
        return {k: v
                for k, v in load_json(os.path.join(d, "stats.json"))
                .items() if not k.startswith("host.")}

    check(sim_stats(obs_dir) == sim_stats(scalar_dir),
          "stats.json differs under ELSA_SIMD=scalar "
          "(host.* entries excluded)")

    def sim_rows(d):
        with open(os.path.join(d, "stats.csv")) as f:
            return [line for line in f if not line.startswith("host.")]

    check(sim_rows(obs_dir) == sim_rows(scalar_dir),
          "stats.csv differs under ELSA_SIMD=scalar "
          "(host.* rows excluded)")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--serve":
        run_serve_check(sys.argv[2])
        if failures:
            print(f"{len(failures)} check(s) failed")
            return 1
        print("check_metrics: serve artifacts valid")
        return 0
    if len(sys.argv) == 3 and sys.argv[1] == "--bench-results":
        check_bench_results(sys.argv[2])
        if failures:
            print(f"{len(failures)} check(s) failed")
            return 1
        print("check_metrics: bench results file valid")
        return 0
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <quickstart-binary> | "
              f"--bench-results <BENCH_RESULTS.json> | "
              f"--serve <quickstart-binary-or-dir>")
        return 1
    quickstart = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="elsa_obs_") as tmp:
        obs_dir = os.path.join(tmp, "obs")
        env = dict(os.environ, ELSA_PROF="1")
        result = subprocess.run(
            [quickstart, "--obs-dir", obs_dir],
            env=env, capture_output=True, text=True, timeout=600)
        check(result.returncode == 0,
              f"quickstart exited {result.returncode}:\n"
              f"{result.stderr[-2000:]}")
        if result.returncode != 0:
            return 1

        for name in ("stats.json", "stats.csv", "trace.json",
                     "telemetry.json", "spans.json",
                     "manifest.json"):
            check(os.path.exists(os.path.join(obs_dir, name)),
                  f"missing artifact {name}")
        if failures:
            return 1

        stats = load_json(os.path.join(obs_dir, "stats.json"))
        check_stats(stats)
        check_stats_csv(os.path.join(obs_dir, "stats.csv"))
        check_trace(load_json(os.path.join(obs_dir, "trace.json")))
        check_telemetry(load_json(os.path.join(obs_dir,
                                               "telemetry.json")),
                        stats)
        check_spans(load_json(os.path.join(obs_dir, "spans.json")),
                    stats)
        check_manifest(load_json(os.path.join(obs_dir,
                                              "manifest.json")),
                       stats)

        # The simulator promises byte-identical artifacts at every
        # SIMD dispatch level (common/simd/simd.h): replay the run
        # with dispatch pinned to the scalar table and compare.
        scalar_dir = os.path.join(tmp, "obs_scalar")
        result = subprocess.run(
            [quickstart, "--obs-dir", scalar_dir],
            env=dict(env, ELSA_SIMD="scalar"), capture_output=True,
            text=True, timeout=600)
        check(result.returncode == 0,
              f"ELSA_SIMD=scalar quickstart exited "
              f"{result.returncode}:\n{result.stderr[-2000:]}")
        if result.returncode == 0:
            check_simd_identity(obs_dir, scalar_dir)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("check_metrics: all observability artifacts valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
