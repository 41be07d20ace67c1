#include "sim/report.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/logging.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/span.h"

namespace elsa {

namespace {

std::string
moduleCounterName(const std::string& prefix, HwModule module)
{
    return prefix + "." + hwModuleMetricName(module)
           + ".active_cycles";
}

std::string
stallCounterName(const std::string& prefix, AttributedModule module,
                 const char* field)
{
    std::string name = prefix;
    name += ".stall.";
    name += attributedModuleMetricName(module);
    name += '.';
    name += field;
    return name;
}

/** Emit {count, min, max, p50, p90, p95, p99} for one digest. */
void
writeDigestObject(obs::JsonWriter& w, const obs::QuantileDigest& d)
{
    w.beginObject();
    w.kv("count", d.count());
    if (d.count() > 0) {
        w.kv("min", d.min());
        w.kv("max", d.max());
        w.kv("p50", d.quantile(0.50));
        w.kv("p90", d.quantile(0.90));
        w.kv("p95", d.quantile(0.95));
        w.kv("p99", d.quantile(0.99));
    }
    w.endObject();
}

} // namespace

std::string
spanMetricName(const std::string& prefix, AttributedModule module,
               const char* field)
{
    std::string name = prefix;
    name += ".span.";
    name += attributedModuleMetricName(module);
    name += '.';
    name += field;
    return name;
}

void
publishRunStats(const RunResult& result, obs::StatsRegistry& registry,
                const std::string& prefix)
{
    registry.counter(prefix + ".invocations").increment();
    registry.counter(prefix + ".cycles.preprocess")
        .add(static_cast<double>(result.preprocess_cycles));
    registry.counter(prefix + ".cycles.execute")
        .add(static_cast<double>(result.execute_cycles));
    registry.counter(prefix + ".cycles.total")
        .add(static_cast<double>(result.totalCycles()));

    for (const HwModule module : allHwModules()) {
        registry.counter(moduleCounterName(prefix, module))
            .add(result.activity.get(module));
    }

    registry.counter(prefix + ".candidate.stalls")
        .add(static_cast<double>(result.stall_cycles));
    registry.counter(prefix + ".candidate.fallbacks")
        .add(static_cast<double>(result.empty_selections));
    double selected = 0.0;
    for (const std::size_t c : result.candidates_per_query) {
        selected += static_cast<double>(c);
    }
    registry.counter(prefix + ".candidate.selected").add(selected);
    registry.counter(prefix + ".queries")
        .add(static_cast<double>(result.candidates_per_query.size()));

    if (!result.stall_breakdown.empty()) {
        for (const AttributedModule module : allAttributedModules()) {
            for (const StallCause cause : allStallCauses()) {
                // fault_retry exists only when fault injection ran:
                // with SimConfig::fault disabled the dump stays
                // byte-identical to a build without the fault layer
                // (check_metrics.py treats the counter as optional).
                if (cause == StallCause::kFaultRetry
                    && !result.fault.enabled) {
                    continue;
                }
                registry
                    .counter(stallCounterName(
                        prefix, module, stallCauseMetricName(cause)))
                    .add(static_cast<double>(
                        result.stall_breakdown.get(module, cause)));
            }
            registry
                .counter(
                    stallCounterName(prefix, module, "lane_cycles"))
                .add(static_cast<double>(
                    result.stall_breakdown.laneCycles(module)));
        }
    }

    // Fault and saturation counters are published only when their
    // features ran, so default-config dumps carry no trace of them.
    if (result.fault.enabled) {
        const FaultCounts& counts = result.fault.counts;
        registry.counter(prefix + ".fault.injected")
            .add(static_cast<double>(counts.injected));
        registry.counter(prefix + ".fault.silent")
            .add(static_cast<double>(counts.silent));
        registry.counter(prefix + ".fault.detected")
            .add(static_cast<double>(counts.detected));
        registry.counter(prefix + ".fault.corrected")
            .add(static_cast<double>(counts.corrected));
        registry.counter(prefix + ".fault.retry_events")
            .add(static_cast<double>(counts.retry_events));
        registry.counter(prefix + ".fault.retry_stall_cycles")
            .add(static_cast<double>(result.fault.retry_stall_cycles));
    }
    if (result.saturations_counted) {
        registry.counter(prefix + ".fixed.saturations")
            .add(static_cast<double>(result.fixed_saturations));
        registry.counter(prefix + ".cfloat.saturations")
            .add(static_cast<double>(result.cfloat_saturations));
    }

    if (!result.query_trace.empty()) {
        obs::Distribution& interval =
            registry.distribution(prefix + ".query.interval_cycles");
        // Candidate fraction lives in [0, 1]; stable edges make the
        // histogram comparable across runs of any sequence length.
        obs::Histogram& fraction = registry.histogram(
            prefix + ".query.candidate_fraction",
            obs::Histogram::linear(0.0, 1.0, 10));
        const double n =
            static_cast<double>(result.candidates_per_query.size());
        for (const QueryTraceRecord& r : result.query_trace) {
            interval.add(static_cast<double>(r.interval_cycles));
            fraction.add(static_cast<double>(r.candidates)
                         / std::max(1.0, n));
        }
    }

    // Latency digests ride the telemetry gate: like the fault and
    // saturation families, they appear only when the feature ran so
    // default-config dumps stay byte-identical.
    if (result.telemetry != nullptr) {
        registry.digest(prefix + ".latency.cycles_digest")
            .add(static_cast<double>(result.totalCycles()));
        if (!result.query_trace.empty()) {
            obs::QuantileDigest& interval_digest = registry.digest(
                prefix + ".query.interval_cycles_digest");
            for (const QueryTraceRecord& r : result.query_trace) {
                interval_digest.add(
                    static_cast<double>(r.interval_cycles));
            }
        }
    }

    // Span counters/digests ride the query_spans gate the same way:
    // spans-off dumps stay byte-identical. Totals are exact wall
    // cycles over EVERY query (not just the retained exemplars), so
    // they are what reconciles against the stall.* counters above.
    if (result.spans != nullptr) {
        const obs::QuerySpanSet& spans = *result.spans;
        for (const AttributedModule module : allAttributedModules()) {
            const std::size_t s = static_cast<std::size_t>(module);
            registry
                .counter(
                    spanMetricName(prefix, module, "queue_wait_cycles"))
                .add(static_cast<double>(spans.stageQueueWaitTotal(s)));
            registry
                .counter(
                    spanMetricName(prefix, module, "service_cycles"))
                .add(static_cast<double>(spans.stageServiceTotal(s)));
            registry
                .counter(spanMetricName(prefix, module, "stall_cycles"))
                .add(static_cast<double>(spans.stageStallTotal(s)));
            registry
                .digest(
                    spanMetricName(prefix, module, "queue_wait_digest"))
                .merge(spans.stageQueueWaitDigest(s));
            registry
                .digest(spanMetricName(prefix, module, "service_digest"))
                .merge(spans.stageServiceDigest(s));
            registry
                .digest(spanMetricName(prefix, module, "stall_digest"))
                .merge(spans.stageStallDigest(s));
        }
        registry.digest(prefix + ".span.query.total_cycles_digest")
            .merge(spans.totalDigest());
    }
}

void
writeTelemetryJson(std::ostream& os, const obs::TimeSeries& series,
                   const obs::StatsRegistry& registry,
                   const std::string& prefix,
                   const SimConfig& config,
                   const std::vector<QueryTraceRecord>* query_trace)
{
    const std::size_t num_bins = series.numBins();
    obs::JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.kv("schema_version", static_cast<std::size_t>(1));
    w.kv("prefix", prefix);
    w.kv("bin_width_cycles",
         static_cast<double>(series.binWidth()));
    w.kv("num_bins", num_bins);
    w.kv("total_cycles",
         registry.counterValue(prefix + ".cycles.total"));
    w.kv("invocations",
         registry.counterValue(prefix + ".invocations"));

    // Channel arrays, padded to num_bins so every series plots on
    // one shared time axis.
    w.key("channels").beginObject();
    for (const std::string& name : series.channelNames()) {
        const std::vector<double>& bins = series.channelBins(name);
        w.key(name).beginArray();
        for (std::size_t b = 0; b < num_bins; ++b) {
            w.value(b < bins.size() ? bins[b] : 0.0);
        }
        w.endArray();
    }
    w.endObject();

    // Elapsed cycles per bin: the output division module has exactly
    // one lane, so the sum of its stall-cause channels in a bin is
    // the (invocation-overlaid) cycle coverage of that bin.
    std::vector<double> bin_cycles(num_bins, 0.0);
    for (const std::string& name : series.channelNames()) {
        if (name.rfind("stall.output_division.", 0) != 0) {
            continue;
        }
        const std::vector<double>& bins = series.channelBins(name);
        for (std::size_t b = 0; b < bins.size(); ++b) {
            bin_cycles[b] += bins[b];
        }
    }

    // Per-bin energy through the same model ElsaSystem reports with
    // (unscaled Table I powers at the configured clock).
    const EnergyModel model(config.frequency_ghz);
    w.key("energy").beginObject();
    w.key("bin_total_uj").beginArray();
    for (std::size_t b = 0; b < num_bins; ++b) {
        ActivityCounters bin_activity;
        for (const HwModule module : allHwModules()) {
            std::string ch = "activity.";
            ch += hwModuleMetricName(module);
            if (!series.hasChannel(ch)) {
                continue;
            }
            const std::vector<double>& bins =
                series.channelBins(ch);
            if (b < bins.size()) {
                bin_activity.add(module, bins[b]);
            }
        }
        w.value(model.compute(bin_activity, bin_cycles[b])
                    .totalUj());
    }
    w.endArray();
    w.endObject();

    // Latency digests published under the prefix (report tooling
    // overlays the percentiles on the latency histogram).
    w.key("digests").beginObject();
    for (const std::string& name : registry.names()) {
        if (name.rfind(prefix + ".", 0) != 0
            || registry.kind(name) != obs::MetricKind::kDigest) {
            continue;
        }
        w.key(name);
        writeDigestObject(w, registry.digestValue(name));
    }
    w.endObject();

    if (query_trace != nullptr && !query_trace->empty()) {
        // Raw intervals for the report's latency histogram; capped
        // so the document stays bounded on long runs.
        constexpr std::size_t kMaxIntervals = 8192;
        const std::size_t count =
            std::min(query_trace->size(), kMaxIntervals);
        w.key("query_intervals").beginArray();
        for (std::size_t i = 0; i < count; ++i) {
            w.value(static_cast<double>(
                (*query_trace)[i].interval_cycles));
        }
        w.endArray();
        w.kv("query_intervals_truncated",
             query_trace->size() > kMaxIntervals);
    }
    w.endObject();
    os << '\n';
}

void
writeSpansJson(std::ostream& os, const obs::QuerySpanSet& spans,
               const std::string& prefix, const SimConfig& config)
{
    ELSA_CHECK(spans.finalized(),
               "writeSpansJson needs a finalized span set");
    obs::JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.kv("schema_version", static_cast<std::size_t>(1));
    w.kv("prefix", prefix);
    w.kv("exemplar_count", config.query_spans.exemplar_count);
    w.kv("num_queries", spans.numQueries());

    w.key("stages").beginArray();
    for (const std::string& name : spans.stageNames()) {
        w.value(name);
    }
    w.endArray();
    w.key("stall_causes").beginArray();
    for (const std::string& name : spans.causeNames()) {
        w.value(name);
    }
    w.endArray();

    // Per-invocation roll-ups: sum(queries) and sum(total_cycles)
    // reconcile against the <prefix>.queries / <prefix>.cycles.total
    // counters of stats.json even when no exemplar survived from an
    // invocation.
    w.key("invocations").beginArray();
    for (const obs::QuerySpanSet::InvocationSummary& inv :
         spans.invocations()) {
        w.beginObject();
        w.kv("invocation", static_cast<std::size_t>(inv.invocation));
        w.kv("queries", static_cast<std::size_t>(inv.queries));
        w.kv("total_cycles",
             static_cast<std::size_t>(inv.total_cycles));
        w.endObject();
    }
    w.endArray();

    // Exact component totals over EVERY query (wall cycles); the
    // reconciliation targets of scripts/check_metrics.py.
    w.key("totals").beginObject();
    for (std::size_t s = 0; s < spans.numStages(); ++s) {
        w.key(spans.stageNames()[s]).beginObject();
        w.kv("queue_wait_cycles",
             static_cast<std::size_t>(spans.stageQueueWaitTotal(s)));
        w.kv("service_cycles",
             static_cast<std::size_t>(spans.stageServiceTotal(s)));
        w.kv("stall_cycles",
             static_cast<std::size_t>(spans.stageStallTotal(s)));
        w.endObject();
    }
    w.endObject();

    w.key("digests").beginObject();
    for (std::size_t s = 0; s < spans.numStages(); ++s) {
        w.key(spans.stageNames()[s]).beginObject();
        w.key("queue_wait");
        writeDigestObject(w, spans.stageQueueWaitDigest(s));
        w.key("service");
        writeDigestObject(w, spans.stageServiceDigest(s));
        w.key("stall");
        writeDigestObject(w, spans.stageStallDigest(s));
        w.endObject();
    }
    w.key("query_total_cycles");
    writeDigestObject(w, spans.totalDigest());
    w.endObject();

    // Retained exemplar records: the K slowest plus one per latency
    // decile, with the full decomposition. Zero stall causes are
    // elided per stage; the component-sum invariant still holds.
    w.key("exemplars").beginArray();
    for (const obs::QuerySpanRecord& r : spans.records()) {
        w.beginObject();
        w.kv("invocation", static_cast<std::size_t>(r.invocation));
        w.kv("query", static_cast<std::size_t>(r.query));
        w.kv("entry_cycle", static_cast<std::size_t>(r.entry_cycle));
        w.kv("exit_cycle", static_cast<std::size_t>(r.exit_cycle));
        w.kv("end_to_end_cycles",
             static_cast<std::size_t>(r.endToEnd()));
        w.kv("critical_bank", static_cast<std::size_t>(r.tag));
        w.kv("slowest", r.slowest_exemplar);
        w.kv("decile", r.decile_exemplar);
        w.key("stages").beginObject();
        for (std::size_t s = 0; s < spans.numStages(); ++s) {
            const obs::StageSpan& stage = r.stages[s];
            w.key(spans.stageNames()[s]).beginObject();
            w.kv("queue_wait",
                 static_cast<std::size_t>(stage.queue_wait));
            w.kv("service", static_cast<std::size_t>(stage.service));
            w.key("stall").beginObject();
            for (std::size_t c = 0; c < spans.numCauses(); ++c) {
                if (stage.stall[c] != 0) {
                    w.kv(spans.causeNames()[c],
                         static_cast<std::size_t>(stage.stall[c]));
                }
            }
            w.endObject();
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

BottleneckReport
writeObsBundle(const std::string& dir,
               const obs::StatsRegistry& registry,
               const RunResult& result, const SimConfig& config,
               obs::RunManifest& manifest, const std::string& prefix)
{
    namespace fs = std::filesystem;
    fs::create_directories(dir);

    {
        std::ofstream stats_json(dir + "/stats.json");
        registry.dumpJson(stats_json);
        std::ofstream stats_csv(dir + "/stats.csv");
        registry.dumpCsv(stats_csv);
    }
    if (result.telemetry != nullptr) {
        std::ofstream telemetry_json(dir + "/telemetry.json");
        writeTelemetryJson(telemetry_json, *result.telemetry,
                           registry, prefix, config,
                           &result.query_trace);
    }
    if (result.spans != nullptr) {
        std::ofstream spans_json(dir + "/spans.json");
        writeSpansJson(spans_json, *result.spans, prefix, config);
    }

    manifest.set("metrics", "total_cycles", result.totalCycles());
    manifest.set("metrics", "preprocess_cycles",
                 result.preprocess_cycles);
    manifest.set("metrics", "execute_cycles", result.execute_cycles);
    manifest.set("metrics", "candidate_fraction",
                 result.candidateFraction());
    manifest.set("metrics", "fallbacks", result.empty_selections);
    const UtilizationReport util = computeUtilization(result);
    for (const HwModule module : allHwModules()) {
        manifest.set("utilization", hwModuleMetricName(module),
                     util.get(module));
    }
    const BottleneckReport bottleneck = computeBottleneck(result);
    manifest.set("bottleneck", "limiting_module",
                 attributedModuleMetricName(bottleneck.limiting));
    manifest.set("bottleneck", "busy_fraction",
                 bottleneck.busy_fraction);
    manifest.set("bottleneck", "headroom", bottleneck.headroom);
    for (const AttributedModule module : allAttributedModules()) {
        manifest.set("bottleneck",
                     std::string("busy_fraction_")
                         + attributedModuleMetricName(module),
                     bottleneck.module_busy_fraction[static_cast<
                         std::size_t>(module)]);
    }
    manifest.writeFile(dir + "/manifest.json");
    return bottleneck;
}

UtilizationReport
computeUtilization(const RunResult& result)
{
    obs::StatsRegistry scratch;
    publishRunStats(result, scratch, "run");
    return utilizationFromRegistry(scratch, "run");
}

UtilizationReport
utilizationFromRegistry(const obs::StatsRegistry& registry,
                        const std::string& prefix)
{
    UtilizationReport report;
    const double total =
        registry.counterValue(prefix + ".cycles.total");
    if (total <= 0.0) {
        return report;
    }
    std::size_t i = 0;
    for (const HwModule module : allHwModules()) {
        const double active =
            registry.counterValue(moduleCounterName(prefix, module));
        report.utilization[i++] = std::min(1.0, active / total);
    }
    return report;
}

std::string
formatUtilization(const UtilizationReport& report)
{
    std::ostringstream oss;
    for (const HwModule module : allHwModules()) {
        oss << "  " << moduleAreaPower(module).name << ": ";
        const double pct = 100.0 * report.get(module);
        oss << pct << "%\n";
    }
    return oss.str();
}

BottleneckReport
computeBottleneck(const StallBreakdown& breakdown)
{
    BottleneckReport report;
    if (breakdown.empty()) {
        return report;
    }
    report.valid = true;
    double best = -1.0;
    for (const AttributedModule module : allAttributedModules()) {
        const std::size_t m = static_cast<std::size_t>(module);
        const double busy = breakdown.busyFraction(module);
        report.module_busy_fraction[m] = busy;
        if (busy > best) {
            best = busy;
            report.limiting = module;
        }
        std::uint64_t worst_idle = 0;
        StallCause dominant = StallCause::kStarved;
        for (const StallCause cause : allStallCauses()) {
            if (cause == StallCause::kBusy) {
                continue;
            }
            const std::uint64_t idle = breakdown.get(module, cause);
            if (idle > worst_idle) {
                worst_idle = idle;
                dominant = cause;
            }
        }
        report.dominant_idle_cause[m] = dominant;
    }
    report.busy_fraction = best;
    report.headroom = 1.0 - best;
    return report;
}

BottleneckReport
computeBottleneck(const RunResult& result)
{
    return computeBottleneck(result.stall_breakdown);
}

std::string
formatBottleneckReport(const BottleneckReport& report)
{
    std::ostringstream oss;
    if (!report.valid) {
        oss << "no stall attribution data (enable "
               "SimConfig::attribute_stalls)\n";
        return oss.str();
    }
    oss << "limiting module: "
        << attributedModuleName(report.limiting) << " ("
        << 100.0 * report.busy_fraction << "% busy, "
        << 100.0 * report.headroom << "% headroom)\n";
    for (const AttributedModule module : allAttributedModules()) {
        const std::size_t m = static_cast<std::size_t>(module);
        oss << "  " << attributedModuleName(module) << ": "
            << 100.0 * report.module_busy_fraction[m]
            << "% busy, idles mostly "
            << stallCauseName(report.dominant_idle_cause[m]) << "\n";
    }
    return oss.str();
}

void
writeQueryTraceCsv(std::ostream& os,
                   const std::vector<QueryTraceRecord>& records)
{
    os << "query,interval_cycles,max_bank_cycles,candidates,"
          "stall_cycles,used_fallback\n";
    for (const auto& r : records) {
        os << r.query_id << ',' << r.interval_cycles << ','
           << r.max_bank_cycles << ',' << r.candidates << ','
           << r.stall_cycles << ',' << (r.used_fallback ? 1 : 0)
           << '\n';
    }
}

QueryTraceSummary
summarizeQueryTrace(const std::vector<QueryTraceRecord>& records)
{
    QueryTraceSummary summary;
    if (records.empty()) {
        return summary;
    }
    double interval_sum = 0.0;
    double candidate_sum = 0.0;
    for (const auto& r : records) {
        interval_sum += static_cast<double>(r.interval_cycles);
        candidate_sum += static_cast<double>(r.candidates);
        summary.max_interval =
            std::max(summary.max_interval, r.interval_cycles);
        summary.total_stalls += r.stall_cycles;
        summary.fallbacks += r.used_fallback ? 1 : 0;
    }
    const double count = static_cast<double>(records.size());
    summary.mean_interval = interval_sum / count;
    summary.mean_candidates = candidate_sum / count;
    return summary;
}

} // namespace elsa
