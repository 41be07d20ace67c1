#include "sim/accelerator.h"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>

#include "common/bits.h"
#include "fault/fault.h"
#include "fixed/saturation.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/candidate_stage.h"
#include "sim/pipeline_model.h"
#include "sim/report.h"

namespace elsa {

namespace {

/** Trace thread ids: fixed module lanes, then one lane per bank. */
constexpr std::uint32_t kTidHash = 0;
constexpr std::uint32_t kTidNorm = 1;
constexpr std::uint32_t kTidDivision = 2;
constexpr std::uint32_t kTidBank0 = 3;

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

/** "stall.<module>.<cause>" counter-track name. */
std::string
stallTrackName(AttributedModule module, StallCause cause)
{
    std::string name = "stall.";
    name += attributedModuleMetricName(module);
    name += '.';
    name += stallCauseMetricName(cause);
    return name;
}

/**
 * Trace timestamps of one query's span flow events (hash start, the
 * critical bank's scan start, division start). Buffered during the
 * query loop so only the exemplar queries chosen at finalize() emit
 * flow arrows into the trace.
 */
struct SpanFlowPoint
{
    std::uint64_t hash_ts = 0;
    std::uint64_t scan_ts = 0;
    std::uint64_t div_ts = 0;
    std::uint32_t bank = 0;
};

/** Per-bank inputs to the stall attribution of one query. */
struct BankAttribution
{
    bool active = false;
    std::uint64_t cycles = 0;
    std::uint64_t grants = 0;
    std::uint64_t scan = 0;
    std::uint64_t conflict = 0;
    std::uint64_t drained = 0;
};

/**
 * Apply a plan's silent faults to the preprocessed state. Detected
 * words are repaired by the modeled re-fetch (their cost is charged
 * as fault_retry stall cycles) and corrected words are repaired in
 * line, so only silent faults perturb values. LUT faults corrupt
 * per-run copies of the units; the model's pristine units are never
 * touched (Accelerator::run is const and shared across threads).
 */
void
applySilentFaults(const FaultPlan& plan, FunctionalContext& ctx,
                  const FunctionalModel& functional)
{
    const std::size_t n = ctx.input.n();
    const std::size_t d = ctx.input.d();
    std::shared_ptr<ExpUnit> exp_copy;
    std::shared_ptr<ReciprocalUnit> recip_copy;
    for (const WordFault& fault : plan.faults()) {
        if (fault.outcome != FaultOutcome::kSilent) {
            continue;
        }
        switch (fault.target) {
        case FaultTarget::kKeyHashMemory: {
            ELSA_ASSERT(fault.word < n, "hash fault word out of range");
            for (const std::uint8_t bit : fault.bits) {
                ctx.key_hashes.flipBit(fault.word, bit);
            }
            break;
        }
        case FaultTarget::kKeyNormMemory: {
            ELSA_ASSERT(fault.word < n, "norm fault word out of range");
            double norm = ctx.key_norms[fault.word];
            for (const std::uint8_t bit : fault.bits) {
                norm = flipFixedPointBit(norm, 4, 3, bit);
            }
            // max_norm stays pristine: the hardware computes it into a
            // register as norms stream in, before SRAM faults strike.
            ctx.key_norms[fault.word] = norm;
            break;
        }
        case FaultTarget::kKeyValueMemory: {
            // Words [0, n*d) are the key matrix, [n*d, 2*n*d) the
            // value matrix, row-major, one S5.3 element per word.
            ELSA_ASSERT(fault.word < 2 * n * d,
                        "key/value fault word out of range");
            const std::size_t element = fault.word % (n * d);
            Matrix& m = fault.word < n * d ? ctx.input.key
                                           : ctx.input.value;
            float* row = m.row(element / d);
            double value = static_cast<double>(row[element % d]);
            for (const std::uint8_t bit : fault.bits) {
                value = flipFixedPointBit(value, 5, 3, bit);
            }
            row[element % d] = static_cast<float>(value);
            break;
        }
        case FaultTarget::kLutTables: {
            // Words [0, 32) are the exp LUT, [32, 64) the reciprocal
            // LUT; corrupt a lazily-made copy of the affected unit.
            const int word = static_cast<int>(fault.word);
            if (word < ExpUnit::kLutSize) {
                if (!exp_copy) {
                    exp_copy = std::make_shared<ExpUnit>(
                        functional.expUnit());
                }
                double entry = exp_copy->lutEntry(word);
                for (const std::uint8_t bit : fault.bits) {
                    entry = flipLutFractionBit(entry, bit);
                }
                exp_copy->corruptEntry(word, entry);
            } else {
                const int index = word - ExpUnit::kLutSize;
                if (!recip_copy) {
                    recip_copy = std::make_shared<ReciprocalUnit>(
                        functional.reciprocalUnit());
                }
                double entry = recip_copy->lutEntry(index);
                for (const std::uint8_t bit : fault.bits) {
                    entry = flipLutFractionBit(entry, bit);
                }
                recip_copy->corruptEntry(index, entry);
            }
            break;
        }
        }
    }
    ctx.faulted_exp = std::move(exp_copy);
    ctx.faulted_recip = std::move(recip_copy);
}

} // namespace

double
RunResult::candidateFraction() const
{
    if (candidates_per_query.empty()) {
        return 0.0;
    }
    std::size_t total = 0;
    for (const auto c : candidates_per_query) {
        total += c;
    }
    const double n = static_cast<double>(candidates_per_query.size());
    return static_cast<double>(total) / (n * n);
}

Accelerator::Accelerator(SimConfig config,
                         std::shared_ptr<const SrpHasher> hasher,
                         double theta_bias)
    : config_(config),
      functional_(config, std::move(hasher), theta_bias)
{
    config_.validate();
}

void
Accelerator::attachStats(obs::StatsRegistry* registry,
                         std::string prefix)
{
    stats_ = registry;
    stats_prefix_ = std::move(prefix);
}

void
Accelerator::attachTrace(obs::TraceWriter* trace, std::uint32_t pid)
{
    trace_ = trace;
    trace_pid_ = pid;
    if (trace_ == nullptr || !trace_->enabled()) {
        return;
    }
    std::string process = "elsa.accel";
    process += std::to_string(trace_pid_);
    trace_->processName(trace_pid_, process);
    trace_->threadName(trace_pid_, kTidHash, "hash computation");
    trace_->threadName(trace_pid_, kTidNorm, "norm computation");
    trace_->threadName(trace_pid_, kTidDivision, "output division");
    for (std::size_t b = 0; b < config_.pa; ++b) {
        std::string lane = "bank ";
        lane += std::to_string(b);
        lane += " (candidate scan + attention)";
        trace_->threadName(trace_pid_,
                           kTidBank0 + static_cast<std::uint32_t>(b),
                           lane);
    }
}

RunResult
Accelerator::run(const AttentionInput& input, double threshold) const
{
    input.validate();
    const std::size_t n = input.n();
    const std::size_t d = config_.d;
    const std::size_t pa = config_.pa;
    const std::size_t keys_per_bank = ceilDiv(n, pa);

    RunResult result;
    result.output = Matrix(n, d);
    result.candidates_per_query.resize(n);
    if (config_.collect_query_trace) {
        result.query_candidates.resize(n);
    }

    // Pipeline tracing is opt-in twice over (config flag + attached
    // writer) and, when off, costs exactly this branch per run.
    const bool tracing =
        config_.emit_trace && trace_ != nullptr && trace_->enabled();

    // Datapath saturation counting (fixed/saturation.h): a counter
    // struct is attached to this thread for the run's duration; with
    // the flag off the hook stays detached and counts nothing.
    SaturationCounters saturation;
    std::optional<SaturationScope> saturation_scope;
    if (config_.count_saturations) {
        saturation_scope.emplace(&saturation);
    }

    // ---- Preprocessing phase (Section IV-C (2)) ----
    FunctionalContext ctx = functional_.preprocess(input);

    // ---- Fault injection (fault/fault.h, docs/ROBUSTNESS.md) ----
    // The plan depends only on (config, geometry), never on execution
    // order, so faulted runs are bit-reproducible at any thread
    // count. Faults strike the SRAMs after preprocessing fills them.
    if (config_.fault.enabled && config_.fault.bit_error_rate > 0.0) {
        FaultGeometry geometry;
        geometry.n = n;
        geometry.k = config_.k;
        geometry.d = config_.d;
        geometry.lut_words =
            ExpUnit::kLutSize + ReciprocalUnit::kLutSize;
        const FaultPlan plan =
            FaultPlan::build(config_.fault, geometry);
        applySilentFaults(plan, ctx, functional_);
        result.fault.enabled = true;
        result.fault.counts = plan.counts();
        result.fault.retry_stall_cycles =
            plan.retryStallCycles(config_.fault);
    }
    const std::size_t hash_per_vec = hashCyclesPerVector(config_);
    result.preprocess_cycles = preprocessingCycles(config_, n);

    // ---- Telemetry time series (obs/timeseries.h) ----
    // Opt-in binned recording of the same quantities attribution and
    // the energy model already compute, spread over cycle bins. The
    // helpers below are the single source of the arithmetic, so the
    // bins conserve against the totals exactly; when telemetry is
    // off (the default), ts stays null and they reduce to the plain
    // accumulators.
    obs::TimeSeries* ts = nullptr;
    std::array<std::array<std::size_t, kNumStallCauses>,
               kNumAttributedModules>
        stall_ch{};
    std::array<std::size_t, 9> activity_ch{};
    std::size_t queue_ch = 0;
    std::size_t queries_ch = 0;
    if (config_.telemetry.enabled) {
        result.telemetry = std::make_shared<obs::TimeSeries>(
            config_.telemetry.bin_width_cycles);
        ts = result.telemetry.get();
        for (const AttributedModule module : allAttributedModules()) {
            for (const StallCause cause : allStallCauses()) {
                // Mirror the stats gating: fault_retry channels only
                // exist when fault injection can make them nonzero.
                if (cause == StallCause::kFaultRetry
                    && !config_.fault.enabled) {
                    continue;
                }
                stall_ch[static_cast<std::size_t>(module)]
                        [static_cast<std::size_t>(cause)] =
                    ts->channel(stallTrackName(module, cause));
            }
        }
        for (const HwModule module : allHwModules()) {
            std::string name = "activity.";
            name += hwModuleMetricName(module);
            activity_ch[static_cast<std::size_t>(module)] =
                ts->channel(name);
        }
        queue_ch = ts->channel("queue.occupancy_cycles");
        queries_ch = ts->channel("queries.completed");
    }

    // ---- Per-query lifecycle spans (obs/span.h) ----
    // Opt-in exact decomposition of every query's end-to-end cycles
    // into per-stage queue-wait / service / stall components; like
    // attribution and telemetry it is post-hoc arithmetic that never
    // perturbs the simulated timing, and when off (the default) the
    // pointer stays null and nothing is allocated or published.
    obs::QuerySpanSet* spans = nullptr;
    if (config_.query_spans.enabled) {
        std::vector<std::string> stage_names;
        std::vector<std::string> cause_names;
        for (const AttributedModule module : allAttributedModules()) {
            stage_names.emplace_back(
                attributedModuleMetricName(module));
        }
        for (const StallCause cause : allStallCauses()) {
            cause_names.emplace_back(stallCauseMetricName(cause));
        }
        result.spans = std::make_shared<obs::QuerySpanSet>(
            std::move(stage_names), std::move(cause_names));
        spans = result.spans.get();
    }
    std::vector<SpanFlowPoint> span_flow;

    const auto attributeSpan =
        [&result, ts, &stall_ch](AttributedModule module,
                                 StallCause cause,
                                 std::uint64_t lane_cycles,
                                 std::uint64_t begin,
                                 std::uint64_t end) {
            result.stall_breakdown.add(module, cause, lane_cycles);
            if (ts != nullptr) {
                ts->addSpread(
                    stall_ch[static_cast<std::size_t>(module)]
                            [static_cast<std::size_t>(cause)],
                    begin, end, lane_cycles);
            }
        };
    const auto addActivity =
        [&result, ts, &activity_ch](HwModule module, double cycles,
                                    std::uint64_t begin,
                                    std::uint64_t end) {
            result.activity.add(module, cycles);
            if (ts != nullptr) {
                ts->addSpreadReal(
                    activity_ch[static_cast<std::size_t>(module)],
                    begin, end, cycles);
            }
        };
    const std::uint64_t pre_end = result.preprocess_cycles;

    // Hash module: n key hashes + the first query hash.
    addActivity(HwModule::kHashComputation,
                static_cast<double>(hash_per_vec * (n + 1)), 0,
                pre_end);
    // Norm module and the attention multipliers it borrows: one key
    // dot product per attention module per cycle.
    const double norm_cycles =
        static_cast<double>(ceilDiv(n, pa));
    addActivity(HwModule::kNormComputation, static_cast<double>(n),
                0, pre_end);
    addActivity(HwModule::kAttentionCompute, norm_cycles, 0, pre_end);
    // SRAM traffic of the preprocessing phase: key/value reads for
    // hashing and norms, key hash/norm writes.
    addActivity(HwModule::kKeyValueMemory, norm_cycles, 0, pre_end);
    addActivity(HwModule::kKeyHashMemory,
                static_cast<double>(n) / (pa * config_.pc), 0,
                pre_end);
    addActivity(HwModule::kKeyNormMemory,
                static_cast<double>(n) / (pa * config_.pc), 0,
                pre_end);

    if (tracing) {
        trace_->completeEvent("preprocess: hash keys+q0", "preprocess",
                              trace_pid_, kTidHash, 0,
                              result.preprocess_cycles);
        trace_->completeEvent("preprocess: key norms", "preprocess",
                              trace_pid_, kTidNorm, 0,
                              static_cast<std::uint64_t>(norm_cycles));
    }

    // ---- Stall attribution of the preprocessing phase ----
    // Attribution is post-hoc arithmetic over already-simulated
    // quantities (see sim/stall.h); with the flag off this whole
    // layer costs one branch per run plus one per query.
    const bool attribute = config_.attribute_stalls;
    StallBreakdown& causes = result.stall_breakdown;
    if (attribute) {
        const std::uint64_t pre = result.preprocess_cycles;
        // Hash module: n key hashes + the first query hash; any
        // remainder of the phase it sits on a finished hash waiting
        // for execution to start draining its buffer.
        const std::uint64_t hash_busy =
            static_cast<std::uint64_t>(hash_per_vec) * (n + 1);
        attributeSpan(AttributedModule::kHash, StallCause::kBusy,
                      hash_busy, 0, pre);
        attributeSpan(AttributedModule::kHash,
                      StallCause::kBackpressured, pre - hash_busy, 0,
                      pre);
        // Norm module: occupied until its pipeline drains, then done
        // for the whole run.
        const std::uint64_t norm_busy =
            static_cast<std::uint64_t>(ceilDiv(n, pa))
            + config_.attention_pipeline_latency;
        attributeSpan(AttributedModule::kNorm, StallCause::kBusy,
                      norm_busy, 0, pre);
        attributeSpan(AttributedModule::kNorm, StallCause::kDrained,
                      pre - norm_busy, 0, pre);
        // The attention multipliers compute one key dot product per
        // key for the norms; otherwise the execution-phase modules
        // wait for the first query.
        attributeSpan(AttributedModule::kAttention, StallCause::kBusy,
                      n, 0, pre);
        attributeSpan(AttributedModule::kAttention,
                      StallCause::kStarved,
                      static_cast<std::uint64_t>(pa) * pre - n, 0,
                      pre);
        attributeSpan(AttributedModule::kCandidateSelection,
                      StallCause::kStarved,
                      static_cast<std::uint64_t>(pa * config_.pc)
                          * pre,
                      0, pre);
        attributeSpan(AttributedModule::kArbitration,
                      StallCause::kStarved,
                      static_cast<std::uint64_t>(pa) * pre, 0, pre);
        attributeSpan(AttributedModule::kOutputDivision,
                      StallCause::kStarved, pre, 0, pre);
    }
    // Per-bank attribution inputs, reused across queries; cumulative
    // counters already emitted to the trace (for delta detection).
    std::vector<BankAttribution> bank_attr(attribute ? pa : 0);
    StallBreakdown traced_causes;

    // ---- Execution phase ----
    const std::size_t division_cycles = divisionCyclesPerQuery(config_);
    std::size_t exec_cycles = 0;
    // Pipeline-time cursor: start of the current query's interval
    // (feeds both trace timestamps and telemetry spans).
    std::uint64_t cursor = result.preprocess_cycles;

    std::vector<std::vector<std::uint32_t>> bank_grants(pa);
    // Per-run working state of the bank scans and the functional
    // output, reused by every query.
    std::vector<bool> hits;
    BankScanScratch scan_scratch;
    BankQueryTrace trace;
    QueryOutputScratch output_scratch;
    // The previous query's interval bounds this query's span
    // queue-wait (its hash overlapped that interval).
    std::size_t prev_interval = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const HashView query_hash = ctx.query_hashes[i];

        std::size_t total_candidates = 0;
        std::size_t max_bank_cycles = 0;
        std::size_t query_stalls = 0;
        std::size_t query_occupancy = 0;
        double scanned_keys = 0.0;
        // Critical bank of the span decomposition: the bank holding
        // max_bank_cycles open (ties -> lowest index).
        std::size_t crit_bank = 0;
        std::size_t crit_keys = 0;
        std::size_t crit_scan_done = 0;
        for (std::size_t b = 0; b < pa; ++b) {
            const std::size_t begin = b * keys_per_bank;
            const std::size_t end =
                std::min(n, begin + keys_per_bank);
            bank_grants[b].clear();
            if (attribute) {
                bank_attr[b] = BankAttribution{};
            }
            if (begin >= end) {
                continue;
            }
            functional_.bankHits(ctx, query_hash, begin, end,
                                 threshold, hits);
            simulateBankQuery(hits, config_, scan_scratch, trace);
            for (const auto local : trace.grant_order) {
                bank_grants[b].push_back(
                    static_cast<std::uint32_t>(begin + local));
            }
            total_candidates += trace.grant_order.size();
            result.stall_cycles += trace.stall_cycles;
            query_stalls += trace.stall_cycles;
            query_occupancy += trace.queue_occupancy_cycles;
            scanned_keys += static_cast<double>(trace.scan_cycles);
            if (spans != nullptr && trace.cycles > max_bank_cycles) {
                crit_bank = b;
                crit_keys = end - begin;
                crit_scan_done = trace.scan_done_cycle;
            }
            max_bank_cycles = std::max(max_bank_cycles, trace.cycles);
            if (attribute) {
                bank_attr[b] = {true, trace.cycles,
                                trace.grant_order.size(),
                                trace.scan_cycles, trace.stall_cycles,
                                trace.drained_module_cycles};
            }
            if (tracing) {
                trace_->completeEvent(
                    queryEventName(i, "scan"), "execute", trace_pid_,
                    kTidBank0 + static_cast<std::uint32_t>(b), cursor,
                    trace.cycles);
            }
        }

        bool used_fallback = false;
        std::uint32_t fallback_bank = 0;
        if (total_candidates == 0) {
            // Fallback: use the key with the highest approximate
            // similarity so the output row stays defined.
            ++result.empty_selections;
            used_fallback = true;
            const std::uint32_t best = functional_.bestKey(ctx,
                                                           query_hash);
            fallback_bank =
                static_cast<std::uint32_t>(best / keys_per_bank);
            bank_grants[fallback_bank].push_back(best);
            total_candidates = 1;
        }
        result.candidates_per_query[i] = total_candidates;
        if (config_.collect_query_trace) {
            std::vector<std::uint32_t>& ids = result.query_candidates[i];
            for (std::size_t b = 0; b < pa; ++b) {
                ids.insert(ids.end(), bank_grants[b].begin(),
                           bank_grants[b].end());
            }
        }

        // Pipeline interval of this query (Fig. 9): the banked scan
        // plus attention drain, the (overlapped) hash of the next
        // query, and the (overlapped) division of the previous one.
        const std::size_t bank_time =
            max_bank_cycles + config_.attention_pipeline_latency;
        const std::size_t interval =
            std::max({bank_time, hash_per_vec, division_cycles});
        exec_cycles += interval;

        // ---- Per-query span record ----
        // Exact telescoping decomposition of the query's lifecycle
        // [entry, exit): its hash overlaps the previous interval
        // (entry = that interval's start; query 0 hashes at the end
        // of preprocessing), the critical bank's scan splits into
        // minimum scan time plus backpressure delay plus arbiter
        // drain-out, attention adds its hand-off latency, and the
        // division lands in the next interval. Each component is the
        // gap between two pipeline timestamps, so the integer sum
        // equals exit - entry exactly (asserted in obs/span.h).
        if (spans != nullptr) {
            const std::size_t base_scan =
                ceilDiv(crit_keys, config_.pc);
            obs::QuerySpanRecord record;
            record.query = i;
            record.entry_cycle =
                i == 0 ? static_cast<std::uint64_t>(
                             result.preprocess_cycles - hash_per_vec)
                       : cursor - prev_interval;
            record.exit_cycle = cursor + interval + division_cycles;
            record.tag = crit_bank;
            record.stages.resize(kNumAttributedModules);
            for (obs::StageSpan& stage : record.stages) {
                stage.stall.assign(kNumStallCauses, 0);
            }
            record.stages[static_cast<std::size_t>(
                              AttributedModule::kHash)]
                .service = hash_per_vec;
            obs::StageSpan& select =
                record.stages[static_cast<std::size_t>(
                    AttributedModule::kCandidateSelection)];
            select.queue_wait =
                i == 0 ? 0 : prev_interval - hash_per_vec;
            select.service = base_scan;
            select.stall[static_cast<std::size_t>(
                StallCause::kBankConflict)] =
                crit_scan_done - base_scan;
            record.stages[static_cast<std::size_t>(
                              AttributedModule::kArbitration)]
                .service = max_bank_cycles - crit_scan_done;
            record.stages[static_cast<std::size_t>(
                              AttributedModule::kAttention)]
                .service = config_.attention_pipeline_latency;
            obs::StageSpan& division =
                record.stages[static_cast<std::size_t>(
                    AttributedModule::kOutputDivision)];
            division.queue_wait = interval - bank_time;
            division.service = division_cycles;
            if (tracing) {
                span_flow.push_back(
                    {record.entry_cycle, cursor, cursor + interval,
                     static_cast<std::uint32_t>(crit_bank)});
            }
            spans->addRecord(std::move(record));
        }

        if (attribute) {
            const std::uint64_t iv = interval;
            const std::uint64_t iv_end = cursor + iv;
            const std::uint64_t latency =
                config_.attention_pipeline_latency;
            // Hash module: overlaps the next query's hash, then waits
            // for the slower stage holding the interval open; after
            // the last query there is nothing left to hash.
            if (i + 1 < n) {
                attributeSpan(AttributedModule::kHash,
                              StallCause::kBusy, hash_per_vec,
                              cursor, iv_end);
                attributeSpan(AttributedModule::kHash,
                              StallCause::kBackpressured,
                              iv - hash_per_vec, cursor, iv_end);
            } else {
                attributeSpan(AttributedModule::kHash,
                              StallCause::kDrained, iv, cursor,
                              iv_end);
            }
            // Norm module: all of its work happened in preprocessing.
            attributeSpan(AttributedModule::kNorm,
                          StallCause::kDrained, iv, cursor, iv_end);
            for (std::size_t b = 0; b < pa; ++b) {
                const BankAttribution& bank = bank_attr[b];
                if (!bank.active) {
                    attributeSpan(AttributedModule::kCandidateSelection,
                                  StallCause::kStarved,
                                  config_.pc * iv, cursor, iv_end);
                    attributeSpan(AttributedModule::kArbitration,
                                  StallCause::kStarved, iv, cursor,
                                  iv_end);
                    attributeSpan(AttributedModule::kAttention,
                                  StallCause::kStarved, iv, cursor,
                                  iv_end);
                    continue;
                }
                // Candidate modules: scanning is work, a full queue
                // is a bank conflict (P_c modules vs one grant port),
                // done-scanning-while-queues-drain is drain-out, and
                // after the bank finishes it waits for the next query
                // gated by the slowest bank.
                attributeSpan(AttributedModule::kCandidateSelection,
                              StallCause::kBusy, bank.scan, cursor,
                              iv_end);
                attributeSpan(AttributedModule::kCandidateSelection,
                              StallCause::kBankConflict,
                              bank.conflict, cursor, iv_end);
                attributeSpan(AttributedModule::kCandidateSelection,
                              StallCause::kDrained, bank.drained,
                              cursor, iv_end);
                attributeSpan(AttributedModule::kCandidateSelection,
                              StallCause::kStarved,
                              config_.pc * (iv - bank.cycles),
                              cursor, iv_end);
                // Arbiter: one grant per cycle when any queue holds a
                // candidate; otherwise it waits on the scanners.
                attributeSpan(AttributedModule::kArbitration,
                              StallCause::kBusy, bank.grants, cursor,
                              iv_end);
                attributeSpan(AttributedModule::kArbitration,
                              StallCause::kStarved, iv - bank.grants,
                              cursor, iv_end);
                // Attention module: one granted candidate per cycle
                // plus the pipeline drain hand-off.
                const std::uint64_t attention_busy =
                    bank.grants > 0 ? bank.grants + latency
                                    : bank.grants;
                attributeSpan(AttributedModule::kAttention,
                              StallCause::kBusy, attention_busy,
                              cursor, iv_end);
                attributeSpan(AttributedModule::kAttention,
                              StallCause::kStarved,
                              iv - attention_busy, cursor, iv_end);
            }
            // Output division: works on the previous query's row; the
            // first interval has nothing to divide yet.
            if (i == 0) {
                attributeSpan(AttributedModule::kOutputDivision,
                              StallCause::kStarved, iv, cursor,
                              iv_end);
            } else {
                attributeSpan(AttributedModule::kOutputDivision,
                              StallCause::kBusy, division_cycles,
                              cursor, iv_end);
                attributeSpan(AttributedModule::kOutputDivision,
                              StallCause::kStarved,
                              iv - division_cycles, cursor, iv_end);
            }
        }

        // Telemetry-only channels: queue depth integral over the
        // interval and a completion mark in the interval's last bin.
        if (ts != nullptr) {
            ts->addSpread(queue_ch, cursor, cursor + interval,
                          query_occupancy);
            const std::uint64_t last =
                interval > 0 ? cursor + interval - 1 : cursor;
            ts->addAt(queries_ch, last, 1.0);
        }

        if (tracing) {
            if (used_fallback) {
                trace_->instantEvent("fallback", trace_pid_,
                                     kTidBank0 + fallback_bank,
                                     cursor);
            }
            if (i + 1 < n) {
                // The next query's hash overlaps this interval.
                trace_->completeEvent(queryEventName(i + 1, "hash"),
                                      "execute", trace_pid_, kTidHash,
                                      cursor, hash_per_vec);
            }
            // This query's output division drains during the next
            // interval (or the tail after the last query).
            trace_->completeEvent(queryEventName(i, "divide"),
                                  "execute", trace_pid_, kTidDivision,
                                  cursor + interval, division_cycles);
            trace_->counterEvent("candidates", trace_pid_, cursor,
                                 static_cast<double>(total_candidates));
            trace_->counterEvent("stall cycles", trace_pid_, cursor,
                                 static_cast<double>(query_stalls));
            // Cumulative per-lane cause counters, one Perfetto track
            // per (module, cause); emitted only on change to bound
            // the event count.
            if (attribute) {
                for (const AttributedModule module :
                     allAttributedModules()) {
                    for (const StallCause cause : allStallCauses()) {
                        const std::uint64_t now =
                            causes.get(module, cause);
                        if (now == traced_causes.get(module, cause)) {
                            continue;
                        }
                        trace_->counterEvent(
                            stallTrackName(module, cause), trace_pid_,
                            cursor + interval,
                            static_cast<double>(now));
                    }
                }
                traced_causes = causes;
            }
        }

        if (config_.collect_query_trace) {
            result.query_trace.push_back(
                {i, interval, max_bank_cycles, total_candidates,
                 query_stalls, used_fallback});
        }

        // Activity: candidate modules and the hash/norm SRAMs they
        // read run for the scanned keys; the attention modules and
        // the key/value SRAM run one cycle per granted candidate.
        const std::uint64_t iv_end = cursor + interval;
        const double group_scan = scanned_keys
                                  / static_cast<double>(pa * config_.pc);
        addActivity(HwModule::kCandidateSelection, group_scan, cursor,
                    iv_end);
        addActivity(HwModule::kKeyHashMemory, group_scan, cursor,
                    iv_end);
        addActivity(HwModule::kKeyNormMemory, group_scan, cursor,
                    iv_end);
        const double attention_cycles =
            static_cast<double>(total_candidates)
            / static_cast<double>(pa);
        addActivity(HwModule::kAttentionCompute, attention_cycles,
                    cursor, iv_end);
        addActivity(HwModule::kKeyValueMemory, attention_cycles,
                    cursor, iv_end);
        addActivity(HwModule::kOutputDivision,
                    static_cast<double>(division_cycles), cursor,
                    iv_end);
        // Query read + output write traffic.
        addActivity(HwModule::kQueryOutputMemory,
                    1.0 + static_cast<double>(division_cycles),
                    cursor, iv_end);
        // The hash module computes the next query's hash during this
        // interval.
        if (i + 1 < n) {
            addActivity(HwModule::kHashComputation,
                        static_cast<double>(hash_per_vec), cursor,
                        iv_end);
        }

        // ---- Functional output ----
        functional_.computeQueryOutput(ctx, i, bank_grants,
                                       output_scratch,
                                       result.output.row(i));

        cursor += interval;
        prev_interval = interval;
    }

    // Tail: the last query's output division drains after the loop.
    result.execute_cycles = exec_cycles + division_cycles;

    // Detected faults freeze the whole pipeline while their words are
    // re-fetched: one global bubble of retry_events x retry_cycles,
    // conservatively serialized (no overlap with useful work), and
    // charged to every module as fault_retry lane cycles below. Zero
    // whenever SimConfig::fault is disabled.
    const std::uint64_t retry_bubble = result.fault.retry_stall_cycles;
    result.execute_cycles += static_cast<std::size_t>(retry_bubble);

    if (attribute) {
        // Everything but the divider has finished when the tail
        // starts (the cursor sits at the end of the last interval).
        const std::uint64_t tail = division_cycles;
        const std::uint64_t tail_end = cursor + tail;
        attributeSpan(AttributedModule::kOutputDivision,
                      StallCause::kBusy, tail, cursor, tail_end);
        attributeSpan(AttributedModule::kHash, StallCause::kDrained,
                      tail, cursor, tail_end);
        attributeSpan(AttributedModule::kNorm, StallCause::kDrained,
                      tail, cursor, tail_end);
        attributeSpan(AttributedModule::kCandidateSelection,
                      StallCause::kDrained,
                      static_cast<std::uint64_t>(pa * config_.pc)
                          * tail,
                      cursor, tail_end);
        attributeSpan(AttributedModule::kArbitration,
                      StallCause::kDrained,
                      static_cast<std::uint64_t>(pa) * tail, cursor,
                      tail_end);
        attributeSpan(AttributedModule::kAttention,
                      StallCause::kDrained,
                      static_cast<std::uint64_t>(pa) * tail, cursor,
                      tail_end);
        if (retry_bubble > 0) {
            for (const AttributedModule module :
                 allAttributedModules()) {
                attributeSpan(module, StallCause::kFaultRetry,
                              attributedModuleLanes(module, config_)
                                  * retry_bubble,
                              tail_end, tail_end + retry_bubble);
            }
        }
        // The hard conservation invariant of sim/stall.h; also
        // enforced (in every build type) by the attribution tests.
        ELSA_DASSERT(causes.conserves(result.totalCycles(), config_),
                     "stall-cause lane cycles do not sum to "
                         << result.totalCycles() << " total cycles");
    }

    if (spans != nullptr) {
        // The global retry bubble extends the last query's lifetime;
        // charge it where the run-level counters charge it too.
        if (retry_bubble > 0 && n > 0) {
            spans->addStallToLast(
                static_cast<std::size_t>(
                    AttributedModule::kOutputDivision),
                static_cast<std::size_t>(StallCause::kFaultRetry),
                retry_bubble);
        }
        spans->finalize(config_.query_spans.exemplar_count,
                        result.totalCycles());
        if (tracing) {
            // Flow arrows link each exemplar query's stages across
            // the trace lanes: hash -> critical-bank scan ->
            // division. The id is unique per (accelerator, query) so
            // arrays sharing one writer never cross-link.
            for (const obs::QuerySpanRecord& record :
                 spans->records()) {
                const SpanFlowPoint& fp = span_flow[record.query];
                const std::uint64_t id =
                    (static_cast<std::uint64_t>(trace_pid_) << 32)
                    | record.query;
                trace_->flowEvent("query span", "span", trace_pid_,
                                  kTidHash, fp.hash_ts, id, 's');
                trace_->flowEvent("query span", "span", trace_pid_,
                                  kTidBank0 + fp.bank, fp.scan_ts, id,
                                  't');
                trace_->flowEvent("query span", "span", trace_pid_,
                                  kTidDivision, fp.div_ts, id, 'f');
            }
        }
    }

    if (config_.count_saturations) {
        result.saturations_counted = true;
        result.fixed_saturations = saturation.fixed;
        result.cfloat_saturations = saturation.cfloat;
    }

    // Publish to the attached registry after the timing is final, so
    // instrumentation can never perturb the simulated cycle counts.
    if (stats_ != nullptr) {
        publishRunStats(result, *stats_, stats_prefix_);
    }
    return result;
}

} // namespace elsa
