#ifndef ELSA_SIM_ACCELERATOR_H_
#define ELSA_SIM_ACCELERATOR_H_

/**
 * @file
 * Cycle-level simulator of one ELSA accelerator (Section IV).
 *
 * The simulator is split functional/timing: the FunctionalModel
 * computes the values flowing through the datapath (with the hardware
 * number formats) while this class assembles the pipeline timing:
 *
 *   preprocessing:  hash every key + the first query
 *                   (3 d^(4/3) (n+1) / m_h cycles), norms overlapped;
 *   execution:      per query, the banked candidate-selection scan is
 *                   simulated cycle by cycle (queues, backpressure,
 *                   longest-queue-first arbiter); the query's pipeline
 *                   interval is the maximum of the bank times, the
 *                   next query's hash time, and the previous query's
 *                   output division time (Fig. 9).
 *
 * run() is that timing core: it emits each fact once, as a record,
 * and every view of the run -- the activity counters the energy
 * model reads (Fig. 13), stall attribution, telemetry, spans and the
 * trace -- is a sink of the one record stream (sim/sinks.h).
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attention/exact.h"
#include "energy/energy_model.h"
#include "sim/config.h"
#include "sim/functional.h"
#include "sim/stall.h"

namespace elsa::obs {
class QuerySpanSet;
class StatsRegistry;
class TimeSeries;
class TraceWriter;
} // namespace elsa::obs

namespace elsa {

/**
 * One query's pipeline interval [begin, begin + interval_cycles):
 * the per-query record of the record stream (sim/sinks.h), kept in
 * RunResult::query_trace when SimConfig::collect_query_trace is set.
 */
struct QueryTraceRecord
{
    std::size_t query_id = 0;
    /** Pipeline interval charged to this query. */
    std::size_t interval_cycles = 0;
    /** Slowest bank's scan+drain time. */
    std::size_t max_bank_cycles = 0;
    /** Candidates selected (after fallback). */
    std::size_t candidates = 0;
    /** Candidate-module stall cycles across banks. */
    std::size_t stall_cycles = 0;
    /** True when the no-candidate fallback fired, in fallback_bank. */
    bool used_fallback = false;
    std::uint32_t fallback_bank = 0;
    std::uint64_t begin = 0;
    /** The slowest bank (ties -> lowest index) and the cycle its
     *  modules finished scanning. */
    std::size_t critical_bank = 0;
    std::size_t critical_scan_done = 0;
    /** Output-queue occupancy integral across banks. */
    std::size_t queue_occupancy = 0;
};

/** Timing and value results of one self-attention run. */
struct RunResult
{
    std::size_t preprocess_cycles = 0;
    std::size_t execute_cycles = 0;

    /** Total elapsed cycles. */
    std::size_t totalCycles() const
    {
        return preprocess_cycles + execute_cycles;
    }

    /** The computed n x d output matrix. */
    Matrix output;

    /** Selected candidate count per query (after the fallback). */
    std::vector<std::size_t> candidates_per_query;

    /** Per-module active cycles for the energy model. */
    ActivityCounters activity;

    /** Total candidate-module stall cycles (queue backpressure). */
    std::size_t stall_cycles = 0;

    /**
     * Per-module lane-cycle breakdown by cause (busy / starved /
     * backpressured / bank_conflict / drained); all-zero unless
     * SimConfig::attribute_stalls is set. See sim/stall.h for the
     * attribution model and the conservation invariant.
     */
    StallBreakdown stall_breakdown;

    /** Queries that needed the no-candidate fallback. */
    std::size_t empty_selections = 0;

    /** Per-query records; empty unless collect_query_trace is set. */
    std::vector<QueryTraceRecord> query_trace;

    /**
     * Per-query granted candidate key ids (all banks, grant order
     * within each bank); empty unless collect_query_trace is set.
     * Feeds measureFidelity() in resilience/accuracy experiments.
     */
    std::vector<std::vector<std::uint32_t>> query_candidates;

    /**
     * Fault-injection summary of this run; enabled == false (and all
     * counts zero) unless SimConfig::fault actually injected. See
     * fault/fault.h.
     */
    FaultReport fault;

    /**
     * Binned cycle-domain telemetry of this run (stall causes,
     * module activity, queue occupancy per time bin); non-null only
     * when SimConfig::telemetry.enabled. Shared so AcceleratorArray
     * can merge invocation shards without copying; see
     * obs/timeseries.h and docs/OBSERVABILITY.md for the channels.
     */
    std::shared_ptr<obs::TimeSeries> telemetry;

    /**
     * Per-query lifecycle spans of this run (finalized: exemplar
     * records plus per-stage digests/totals over every query);
     * non-null only when SimConfig::query_spans.enabled. Shared so
     * AcceleratorArray can merge invocation shards without copying;
     * see obs/span.h and docs/OBSERVABILITY.md for the schema.
     */
    std::shared_ptr<obs::QuerySpanSet> spans;

    /** True when SimConfig::count_saturations filled the two counts
     *  below. */
    bool saturations_counted = false;

    /** FixedPoint range clamps during this run. */
    std::uint64_t fixed_saturations = 0;

    /** CustomFloat magnitude saturations during this run. */
    std::uint64_t cfloat_saturations = 0;

    /** Mean candidates per query / n. */
    double candidateFraction() const;
};

/** One simulated ELSA accelerator. */
class Accelerator
{
  public:
    /**
     * @param config     Pipeline configuration.
     * @param hasher     SRP hasher (the pre-defined hash matrices).
     * @param theta_bias Angle correction bias.
     */
    Accelerator(SimConfig config,
                std::shared_ptr<const SrpHasher> hasher,
                double theta_bias);

    const SimConfig& config() const { return config_; }
    const FunctionalModel& functional() const { return functional_; }

    /**
     * Publish every future run's counters into `registry` under
     * `prefix` (see publishRunStats in sim/report.h). Pass nullptr
     * to detach. The registry is not owned and must outlive the
     * accelerator. Publishing happens after the timing simulation
     * and never changes simulated cycle counts.
     */
    void attachStats(obs::StatsRegistry* registry,
                     std::string prefix = "sim.accel0");

    /**
     * Emit pipeline events of future runs to `trace` (Chrome
     * trace_event JSON; open in chrome://tracing or Perfetto):
     * tracing is on exactly while an enabled writer is attached.
     * `pid` labels this accelerator in the trace; module timelines
     * become threads of that process. Thread-name metadata is
     * emitted immediately. Pass nullptr to detach. Not owned; must
     * outlive the accelerator.
     */
    void attachTrace(obs::TraceWriter* trace, std::uint32_t pid = 0);

    /** The pid label of the currently attached trace (last attach). */
    std::uint32_t tracePid() const { return trace_pid_; }

    /**
     * Run one self-attention operation.
     *
     * @param input     Q/K/V (n rows of real tokens; no padding).
     * @param threshold Learned candidate-selection threshold t; pass
     *                  -infinity (or ThresholdLearner's p = 0 value)
     *                  for the ELSA-base exact mode.
     */
    RunResult run(const AttentionInput& input, double threshold) const;

  private:
    SimConfig config_;
    FunctionalModel functional_;

    /** Observability sinks (non-owning; see attachStats/attachTrace). */
    obs::StatsRegistry* stats_ = nullptr;
    std::string stats_prefix_ = "sim.accel0";
    obs::TraceWriter* trace_ = nullptr;
    std::uint32_t trace_pid_ = 0;
};

} // namespace elsa

#endif // ELSA_SIM_ACCELERATOR_H_
