#include "sim/sinks.h"

#include <array>
#include <string>

#include "common/bits.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/accelerator.h"
#include "sim/pipeline_model.h"

namespace elsa {

namespace {

/** Trace thread ids: fixed module lanes, then one lane per bank. */
constexpr std::uint32_t kTidHash = 0;
constexpr std::uint32_t kTidNorm = 1;
constexpr std::uint32_t kTidDivision = 2;
constexpr std::uint32_t kTidBank0 = 3;

template <typename Enum>
constexpr std::size_t
at(Enum e)
{
    return static_cast<std::size_t>(e);
}

/** "q<i> <suffix>" without operator+ chains (GCC 12 -Wrestrict). */
std::string
queryEventName(std::size_t query, const char* suffix)
{
    std::string name = "q";
    name += std::to_string(query);
    name += ' ';
    name += suffix;
    return name;
}

/** "stall.<module>.<cause>": telemetry channel and trace track. */
std::string
stallTrackName(AttributedModule module, StallCause cause)
{
    std::string name = "stall.";
    name += attributedModuleMetricName(module);
    name += '.';
    name += stallCauseMetricName(cause);
    return name;
}

/** StallBreakdown view (SimConfig::attribute_stalls). */
class StallSink final : public RunSink
{
  public:
    explicit StallSink(StallBreakdown& breakdown) : breakdown_(breakdown)
    {
    }
    void onStall(const StallRecord& r) override
    {
        breakdown_.add(r.module, r.cause, r.lane_cycles);
    }

  private:
    StallBreakdown& breakdown_;
};

/**
 * TimeSeries view (SimConfig::telemetry): stall and activity records
 * spread over cycle bins, plus the queue depth integral and one
 * completion mark per query. Spreads conserve exactly, so the bins
 * sum to the StallBreakdown and ActivityCounters totals.
 */
class TelemetrySink final : public RunSink
{
  public:
    TelemetrySink(obs::TimeSeries& ts, const SimConfig& config) : ts_(ts)
    {
        for (const AttributedModule module : allAttributedModules()) {
            for (const StallCause cause : allStallCauses()) {
                // Mirror the stats gating: fault_retry channels only
                // exist when fault injection can make them nonzero.
                if (cause != StallCause::kFaultRetry
                    || config.fault.enabled) {
                    stall_ch_[at(module)][at(cause)] =
                        ts_.channel(stallTrackName(module, cause));
                }
            }
        }
        for (const HwModule module : allHwModules()) {
            std::string name = "activity.";
            name += hwModuleMetricName(module);
            activity_ch_[at(module)] = ts_.channel(name);
        }
        queue_ch_ = ts_.channel("queue.occupancy_cycles");
        queries_ch_ = ts_.channel("queries.completed");
    }

    void onStall(const StallRecord& r) override
    {
        ts_.addSpread(stall_ch_[at(r.module)][at(r.cause)], r.begin, r.end,
                      r.lane_cycles);
    }

    void onActivity(const ActivityRecord& r) override
    {
        ts_.addSpreadReal(activity_ch_[at(r.module)], r.begin, r.end,
                          r.cycles);
    }

    void onQuery(const QueryTraceRecord& q,
                 std::span<const BankQueryTrace>) override
    {
        const std::uint64_t end = q.begin + q.interval_cycles;
        ts_.addSpread(queue_ch_, q.begin, end, q.queue_occupancy);
        ts_.addAt(queries_ch_, q.interval_cycles > 0 ? end - 1 : q.begin, 1.0);
    }

  private:
    obs::TimeSeries& ts_;
    std::array<std::array<std::size_t, kNumStallCauses>,
               kNumAttributedModules>
        stall_ch_{};
    std::array<std::size_t, 9> activity_ch_{};
    std::size_t queue_ch_ = 0;
    std::size_t queries_ch_ = 0;
};

/**
 * QuerySpanSet view (SimConfig::query_spans): the exact telescoping
 * decomposition of each query's lifecycle [entry, exit). Its hash
 * overlaps the previous interval (entry = that interval's start;
 * query 0 hashes at the end of preprocessing), the critical bank's
 * scan splits into minimum scan time plus backpressure delay plus
 * arbiter drain-out, attention adds its hand-off latency, and the
 * division lands in the next interval. Each component is the gap
 * between two pipeline timestamps, so the integer sum equals
 * exit - entry exactly (asserted in obs/span.h).
 */
class SpanSink final : public RunSink
{
  public:
    SpanSink(obs::QuerySpanSet& spans, const SimConfig& config,
             std::uint64_t preprocess_cycles)
        : spans_(spans),
          config_(config),
          preprocess_cycles_(preprocess_cycles),
          hash_per_vec_(hashCyclesPerVector(config)),
          division_cycles_(divisionCyclesPerQuery(config))
    {
    }

    void onQuery(const QueryTraceRecord& q,
                 std::span<const BankQueryTrace> banks) override
    {
        using enum AttributedModule;
        const std::size_t latency = config_.attention_pipeline_latency;
        // Every key is scanned exactly once, so the critical bank's
        // scan_cycles is its key count.
        const std::size_t base_scan =
            ceilDiv(banks[q.critical_bank].scan_cycles, config_.pc);
        obs::QuerySpanRecord record;
        record.query = q.query_id;
        record.entry_cycle = q.query_id == 0
                                 ? preprocess_cycles_ - hash_per_vec_
                                 : q.begin - prev_interval_;
        record.exit_cycle = q.begin + q.interval_cycles + division_cycles_;
        record.tag = q.critical_bank;
        record.stages.resize(kNumAttributedModules);
        for (obs::StageSpan& stage : record.stages) {
            stage.stall.assign(kNumStallCauses, 0);
        }
        record.stages[at(kHash)].service = hash_per_vec_;
        obs::StageSpan& select = record.stages[at(kCandidateSelection)];
        select.queue_wait =
            q.query_id == 0 ? 0 : prev_interval_ - hash_per_vec_;
        select.service = base_scan;
        select.stall[at(StallCause::kBankConflict)] =
            q.critical_scan_done - base_scan;
        record.stages[at(kArbitration)].service =
            q.max_bank_cycles - q.critical_scan_done;
        record.stages[at(kAttention)].service = latency;
        obs::StageSpan& division = record.stages[at(kOutputDivision)];
        division.queue_wait =
            q.interval_cycles - (q.max_bank_cycles + latency);
        division.service = division_cycles_;
        spans_.addRecord(std::move(record));
        prev_interval_ = q.interval_cycles;
    }

    void onRunEnd(const RunResult& result) override
    {
        // The global retry bubble extends the last query's lifetime;
        // charge it where the run-level counters charge it too.
        const std::uint64_t bubble = result.fault.retry_stall_cycles;
        if (bubble > 0 && !spans_.records().empty()) {
            spans_.addStallToLast(at(AttributedModule::kOutputDivision),
                                  at(StallCause::kFaultRetry), bubble);
        }
        spans_.finalize(config_.query_spans.exemplar_count,
                        result.totalCycles());
    }

  private:
    obs::QuerySpanSet& spans_;
    const SimConfig& config_;
    std::uint64_t preprocess_cycles_;
    std::size_t hash_per_vec_;
    std::size_t division_cycles_;
    std::size_t prev_interval_ = 0;
};

/**
 * TraceWriter view (an enabled writer is attached): complete events
 * per module lane, per-query counters, cumulative stall-cause
 * counters (emitted on change only, to bound the event count), and
 * flow arrows across the lanes of each exemplar query span.
 */
class TraceSink final : public RunSink
{
  public:
    TraceSink(obs::TraceWriter& trace, std::uint32_t pid,
              const SimConfig& config, std::size_t n,
              const RunResult& result)
        : trace_(trace),
          pid_(pid),
          n_(n),
          hash_per_vec_(hashCyclesPerVector(config)),
          division_cycles_(divisionCyclesPerQuery(config)),
          causes_(result.stall_breakdown)
    {
        trace_.completeEvent("preprocess: hash keys+q0", "preprocess",
                             pid_, kTidHash, 0, result.preprocess_cycles);
        trace_.completeEvent("preprocess: key norms", "preprocess",
                             pid_, kTidNorm, 0, ceilDiv(n, config.pa));
    }

    void onQuery(const QueryTraceRecord& q,
                 std::span<const BankQueryTrace> banks) override
    {
        const std::size_t i = q.query_id;
        for (std::size_t b = 0; b < banks.size(); ++b) {
            // A bank with keys scans for at least one cycle.
            if (banks[b].cycles > 0) {
                trace_.completeEvent(
                    queryEventName(i, "scan"), "execute", pid_,
                    kTidBank0 + static_cast<std::uint32_t>(b), q.begin,
                    banks[b].cycles);
            }
        }
        if (q.used_fallback) {
            trace_.instantEvent("fallback", pid_,
                                kTidBank0 + q.fallback_bank, q.begin);
        }
        if (i + 1 < n_) {
            // The next query's hash overlaps this interval.
            trace_.completeEvent(queryEventName(i + 1, "hash"),
                                 "execute", pid_, kTidHash, q.begin,
                                 hash_per_vec_);
        }
        // This query's output division drains during the next
        // interval (or the tail after the last query).
        const std::uint64_t end = q.begin + q.interval_cycles;
        trace_.completeEvent(queryEventName(i, "divide"), "execute",
                             pid_, kTidDivision, end, division_cycles_);
        trace_.counterEvent("candidates", pid_, q.begin,
                            static_cast<double>(q.candidates));
        trace_.counterEvent("stall cycles", pid_, q.begin,
                            static_cast<double>(q.stall_cycles));
        for (const AttributedModule module : allAttributedModules()) {
            for (const StallCause cause : allStallCauses()) {
                const std::uint64_t now = causes_.get(module, cause);
                if (now != traced_.get(module, cause)) {
                    trace_.counterEvent(stallTrackName(module, cause),
                                        pid_, end,
                                        static_cast<double>(now));
                }
            }
        }
        traced_ = causes_;
    }

    void onRunEnd(const RunResult& result) override
    {
        if (result.spans == nullptr) {
            return;
        }
        // Flow arrows link each exemplar query's stages across the
        // lanes: hash -> critical-bank scan -> division. The span
        // record holds every timestamp: the hash starts at entry,
        // the scan after the hash and the queue wait, the division
        // where its service and (tail) stall end the record. The id
        // is unique per (accelerator, query) so arrays sharing one
        // writer never cross-link.
        using enum AttributedModule;
        for (const obs::QuerySpanRecord& r : result.spans->records()) {
            const obs::StageSpan& division = r.stages[at(kOutputDivision)];
            const std::uint64_t id =
                (static_cast<std::uint64_t>(pid_) << 32) | r.query;
            trace_.flowEvent("query span", "span", pid_, kTidHash,
                             r.entry_cycle, id, 's');
            trace_.flowEvent("query span", "span", pid_,
                             kTidBank0 + static_cast<std::uint32_t>(r.tag),
                             r.entry_cycle + r.stages[at(kHash)].service
                                 + r.stages[at(kCandidateSelection)]
                                       .queue_wait,
                             id, 't');
            trace_.flowEvent("query span", "span", pid_, kTidDivision,
                             r.exit_cycle - division.service
                                 - division.stallTotal(),
                             id, 'f');
        }
    }

  private:
    obs::TraceWriter& trace_;
    std::uint32_t pid_;
    std::size_t n_;
    std::size_t hash_per_vec_;
    std::size_t division_cycles_;
    /** The run's breakdown so far (fed by the StallSink), and as
     *  last emitted. */
    const StallBreakdown& causes_;
    StallBreakdown traced_;
};

} // namespace

RecordStream::RecordStream(const SimConfig& config, std::size_t n,
                           RunResult& result, obs::TraceWriter* trace,
                           std::uint32_t pid)
    : activity_(result.activity)
{
    if (config.attribute_stalls) {
        views_.push_back(
            std::make_unique<StallSink>(result.stall_breakdown));
    }
    if (config.telemetry.enabled) {
        result.telemetry = std::make_shared<obs::TimeSeries>(
            config.telemetry.bin_width_cycles);
        views_.push_back(
            std::make_unique<TelemetrySink>(*result.telemetry, config));
    }
    if (config.query_spans.enabled) {
        std::vector<std::string> stage_names;
        std::vector<std::string> cause_names;
        for (const AttributedModule module : allAttributedModules()) {
            stage_names.emplace_back(attributedModuleMetricName(module));
        }
        for (const StallCause cause : allStallCauses()) {
            cause_names.emplace_back(stallCauseMetricName(cause));
        }
        result.spans = std::make_shared<obs::QuerySpanSet>(
            std::move(stage_names), std::move(cause_names));
        views_.push_back(std::make_unique<SpanSink>(
            *result.spans, config, result.preprocess_cycles));
    }
    if (trace != nullptr && trace->enabled()) {
        views_.push_back(
            std::make_unique<TraceSink>(*trace, pid, config, n, result));
    }
}

void
nameTraceLanes(obs::TraceWriter& trace, std::uint32_t pid, std::size_t pa)
{
    std::string process = "elsa.accel";
    process += std::to_string(pid);
    trace.processName(pid, process);
    trace.threadName(pid, kTidHash, "hash computation");
    trace.threadName(pid, kTidNorm, "norm computation");
    trace.threadName(pid, kTidDivision, "output division");
    for (std::size_t b = 0; b < pa; ++b) {
        std::string lane = "bank ";
        lane += std::to_string(b);
        lane += " (candidate scan + attention)";
        trace.threadName(pid, kTidBank0 + static_cast<std::uint32_t>(b),
                         lane);
    }
}

} // namespace elsa
