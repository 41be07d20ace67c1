#include "sim/accelerator.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/bits.h"
#include "fault/fault.h"
#include "fixed/saturation.h"
#include "obs/trace.h"
#include "sim/candidate_stage.h"
#include "sim/pipeline_model.h"
#include "sim/report.h"
#include "sim/sinks.h"

namespace elsa {

namespace {

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
    if (trace_ != nullptr && trace_->enabled()) {
        nameTraceLanes(*trace_, trace_pid_, config_.pa);
    }
}

RunResult
Accelerator::run(const AttentionInput& input, double threshold) const
{
    input.validate();
    const std::size_t n = input.n();
    const std::size_t pa = config_.pa;
    const std::size_t pc = config_.pc;
    const std::size_t keys_per_bank = ceilDiv(n, pa);

    RunResult result;
    result.output = Matrix(n, config_.d);
    result.candidates_per_query.resize(n);
    if (config_.collect_query_trace) {
        result.query_candidates.resize(n);
    }

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
    const std::uint64_t pre = result.preprocess_cycles;

    // ---- Record stream (sim/sinks.h) ----
    // Every timing fact below is emitted once, as a record; activity
    // counters, stall attribution, telemetry, spans and the trace are
    // all sinks of the same records, so they agree by construction
    // and never perturb the timing.
    RecordStream out(config_, n, result, trace_, trace_pid_);
    out.window(0, pre);

    // Hash module: n key hashes + the first query hash.
    const std::uint64_t hash_busy =
        static_cast<std::uint64_t>(hash_per_vec) * (n + 1);
    out.activity(HwModule::kHashComputation,
                 static_cast<double>(hash_busy));
    // Norm module and the attention multipliers it borrows: one key
    // dot product per attention module per cycle.
    const double norm_cycles = static_cast<double>(keys_per_bank);
    out.activity(HwModule::kNormComputation, static_cast<double>(n));
    out.activity(HwModule::kAttentionCompute, norm_cycles);
    // SRAM traffic of the preprocessing phase: key/value reads for
    // hashing and norms, key hash/norm writes.
    out.activity(HwModule::kKeyValueMemory, norm_cycles);
    out.activity(HwModule::kKeyHashMemory,
                 static_cast<double>(n) / (pa * pc));
    out.activity(HwModule::kKeyNormMemory,
                 static_cast<double>(n) / (pa * pc));

    // ---- Stall attribution (sim/stall.h) ----
    // Post-hoc arithmetic over already-simulated quantities; with the
    // flag off it costs one branch per run plus one per query.
    const bool attribute = config_.attribute_stalls;
    const std::uint64_t latency = config_.attention_pipeline_latency;
    if (attribute) {
        using enum AttributedModule;
        using enum StallCause;
        // Hash module: any remainder of the phase it sits on a
        // finished hash waiting for execution to drain its buffer.
        out.stall(kHash, kBusy, hash_busy);
        out.stall(kHash, kBackpressured, pre - hash_busy);
        // Norm module: occupied until its pipeline drains, then done
        // for the whole run.
        const std::uint64_t norm_busy = keys_per_bank + latency;
        out.stall(kNorm, kBusy, norm_busy);
        out.stall(kNorm, kDrained, pre - norm_busy);
        // The attention multipliers compute one key dot product per
        // key for the norms; otherwise the execution-phase modules
        // wait for the first query.
        out.stall(kAttention, kBusy, n);
        out.stall(kAttention, kStarved, pa * pre - n);
        out.stall(kCandidateSelection, kStarved, pa * pc * pre);
        out.stall(kArbitration, kStarved, pa * pre);
        out.stall(kOutputDivision, kStarved, pre);
    }

    // ---- Execution phase ----
    const std::size_t division_cycles = divisionCyclesPerQuery(config_);
    // Pipeline-time cursor: start of the current query's interval.
    std::uint64_t cursor = pre;

    std::vector<std::vector<std::uint32_t>> bank_grants(pa);
    // Per-run working state of the bank scans and the functional
    // output, reused by every query. A bank that holds no keys keeps
    // its all-zero scan record.
    std::vector<BankQueryTrace> banks(pa);
    std::vector<bool> hits;
    BankScanScratch scan_scratch;
    QueryOutputScratch output_scratch;
    for (std::size_t i = 0; i < n; ++i) {
        const HashView query_hash = ctx.query_hashes[i];
        QueryTraceRecord q;
        q.query_id = i;
        q.begin = cursor;
        double scanned_keys = 0.0;
        for (std::size_t b = 0; b < pa; ++b) {
            const std::size_t begin = b * keys_per_bank;
            const std::size_t end =
                std::min(n, begin + keys_per_bank);
            bank_grants[b].clear();
            if (begin >= end) {
                continue;
            }
            BankQueryTrace& bank = banks[b];
            functional_.bankHits(ctx, query_hash, begin, end,
                                 threshold, hits);
            simulateBankQuery(hits, config_, scan_scratch, bank);
            for (const auto local : bank.grant_order) {
                bank_grants[b].push_back(
                    static_cast<std::uint32_t>(begin + local));
            }
            q.candidates += bank.grant_order.size();
            q.stall_cycles += bank.stall_cycles;
            q.queue_occupancy += bank.queue_occupancy_cycles;
            scanned_keys += static_cast<double>(bank.scan_cycles);
            if (bank.cycles > q.max_bank_cycles) {
                q.critical_bank = b;
                q.max_bank_cycles = bank.cycles;
                q.critical_scan_done = bank.scan_done_cycle;
            }
        }
        result.stall_cycles += q.stall_cycles;

        if (q.candidates == 0) {
            // Fallback: use the key with the highest approximate
            // similarity so the output row stays defined.
            ++result.empty_selections;
            q.used_fallback = true;
            const std::uint32_t best = functional_.bestKey(ctx,
                                                           query_hash);
            q.fallback_bank =
                static_cast<std::uint32_t>(best / keys_per_bank);
            bank_grants[q.fallback_bank].push_back(best);
            q.candidates = 1;
        }
        result.candidates_per_query[i] = q.candidates;
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
        q.interval_cycles = std::max(
            {q.max_bank_cycles + config_.attention_pipeline_latency,
             hash_per_vec, division_cycles});
        const std::uint64_t iv = q.interval_cycles;
        out.window(cursor, cursor + iv);

        if (attribute) {
            using enum AttributedModule;
            using enum StallCause;
            // Hash module: overlaps the next query's hash, then waits
            // for the slower stage holding the interval open; after
            // the last query there is nothing left to hash.
            if (i + 1 < n) {
                out.stall(kHash, kBusy, hash_per_vec);
                out.stall(kHash, kBackpressured, iv - hash_per_vec);
            } else {
                out.stall(kHash, kDrained, iv);
            }
            // Norm module: all of its work happened in preprocessing.
            out.stall(kNorm, kDrained, iv);
            for (const BankQueryTrace& bank : banks) {
                // Candidate modules: scanning is work, a full queue
                // is a bank conflict (P_c modules vs one grant port),
                // done-scanning-while-queues-drain is drain-out, and
                // after the bank finishes it waits for the next query
                // gated by the slowest bank. An empty bank's record
                // is all zero: starved for the whole interval.
                out.stall(kCandidateSelection, kBusy, bank.scan_cycles);
                out.stall(kCandidateSelection, kBankConflict,
                          bank.stall_cycles);
                out.stall(kCandidateSelection, kDrained,
                          bank.drained_module_cycles);
                out.stall(kCandidateSelection, kStarved,
                          pc * (iv - bank.cycles));
                // Arbiter: one grant per cycle when any queue holds a
                // candidate; otherwise it waits on the scanners.
                const std::uint64_t grants = bank.grant_order.size();
                out.stall(kArbitration, kBusy, grants);
                out.stall(kArbitration, kStarved, iv - grants);
                // Attention module: one granted candidate per cycle
                // plus the pipeline drain hand-off.
                const std::uint64_t attention_busy =
                    grants > 0 ? grants + latency : 0;
                out.stall(kAttention, kBusy, attention_busy);
                out.stall(kAttention, kStarved, iv - attention_busy);
            }
            // Output division: works on the previous query's row; the
            // first interval has nothing to divide yet.
            if (i == 0) {
                out.stall(kOutputDivision, kStarved, iv);
            } else {
                out.stall(kOutputDivision, kBusy, division_cycles);
                out.stall(kOutputDivision, kStarved,
                          iv - division_cycles);
            }
        }
        out.query(q, banks);
        if (config_.collect_query_trace) {
            result.query_trace.push_back(q);
        }

        // Activity: candidate modules and the hash/norm SRAMs they
        // read run for the scanned keys; the attention modules and
        // the key/value SRAM run one cycle per granted candidate.
        const double group_scan = scanned_keys
                                  / static_cast<double>(pa * pc);
        out.activity(HwModule::kCandidateSelection, group_scan);
        out.activity(HwModule::kKeyHashMemory, group_scan);
        out.activity(HwModule::kKeyNormMemory, group_scan);
        const double attention_cycles =
            static_cast<double>(q.candidates) / static_cast<double>(pa);
        out.activity(HwModule::kAttentionCompute, attention_cycles);
        out.activity(HwModule::kKeyValueMemory, attention_cycles);
        out.activity(HwModule::kOutputDivision,
                     static_cast<double>(division_cycles));
        // Query read + output write traffic.
        out.activity(HwModule::kQueryOutputMemory,
                     1.0 + static_cast<double>(division_cycles));
        // The hash module computes the next query's hash during this
        // interval.
        if (i + 1 < n) {
            out.activity(HwModule::kHashComputation,
                         static_cast<double>(hash_per_vec));
        }

        // ---- Functional output ----
        functional_.computeQueryOutput(ctx, i, bank_grants,
                                       output_scratch,
                                       result.output.row(i));
        cursor += iv;
    }

    // Tail: the last query's output division drains after the loop.
    result.execute_cycles = cursor - pre + division_cycles;

    // Detected faults freeze the whole pipeline while their words are
    // re-fetched: one global bubble of retry_events x retry_cycles,
    // conservatively serialized (no overlap with useful work), and
    // charged to every module as fault_retry lane cycles below. Zero
    // whenever SimConfig::fault is disabled.
    const std::uint64_t retry_bubble = result.fault.retry_stall_cycles;
    result.execute_cycles += static_cast<std::size_t>(retry_bubble);

    if (attribute) {
        using enum AttributedModule;
        using enum StallCause;
        // Everything but the divider has finished when the tail
        // starts (the cursor sits at the end of the last interval).
        const std::uint64_t tail = division_cycles;
        const std::uint64_t tail_end = cursor + tail;
        out.window(cursor, tail_end);
        out.stall(kOutputDivision, kBusy, tail);
        out.stall(kHash, kDrained, tail);
        out.stall(kNorm, kDrained, tail);
        out.stall(kCandidateSelection, kDrained, pa * pc * tail);
        out.stall(kArbitration, kDrained, pa * tail);
        out.stall(kAttention, kDrained, pa * tail);
        if (retry_bubble > 0) {
            out.window(tail_end, tail_end + retry_bubble);
            for (const AttributedModule module :
                 allAttributedModules()) {
                out.stall(module, kFaultRetry,
                          attributedModuleLanes(module, config_)
                              * retry_bubble);
            }
        }
    }
    out.finish(result);
    // The hard conservation invariant of sim/stall.h; also enforced
    // (in every build type) by the attribution tests.
    ELSA_DASSERT(!attribute
                     || result.stall_breakdown.conserves(
                         result.totalCycles(), config_),
                 "stall-cause lane cycles do not sum to "
                     << result.totalCycles() << " total cycles");

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
