#ifndef ELSA_SIM_CONFIG_H_
#define ELSA_SIM_CONFIG_H_

/**
 * @file
 * Configuration of the simulated ELSA accelerator (Section IV).
 *
 * The evaluation configuration of the paper is the default:
 * d = k = 64, P_a = 4 attention computation modules (banks),
 * P_c = 8 candidate selection modules per bank, m_h = 256 hash
 * multipliers, m_o = 16 output-division multipliers, 1 GHz clock,
 * and twelve accelerators for batch-level parallelism.
 */

#include <cstddef>
#include <cstdint>

#include "fault/fault.h"

namespace elsa {

/**
 * Cycle-domain time-series telemetry (obs/timeseries.h). With
 * `enabled` the simulator spreads stall-attribution lane-cycles,
 * module activity, and queue occupancy over fixed-width cycle bins
 * and returns the recorder in RunResult::telemetry; per-invocation
 * latency digests are published to the stats registry alongside.
 * Off by default, and when off the simulator allocates nothing and
 * every existing output stays byte-identical.
 */
struct TelemetryConfig
{
    /** Master switch; requires SimConfig::attribute_stalls. */
    bool enabled = false;

    /**
     * Cycles per time-series bin. Smaller bins resolve warm-up /
     * drain transients at proportionally more memory per channel;
     * docs/OBSERVABILITY.md has sizing guidance.
     */
    std::uint64_t bin_width_cycles = 256;
};

/**
 * Per-query lifecycle span recording (obs/span.h). With `enabled`
 * the simulator stamps every query's entry/exit cycle at each
 * pipeline stage and returns a QuerySpanSet in RunResult::spans
 * whose per-query queue-wait / service / stall components sum to the
 * query's end-to-end cycles exactly; run-level totals reconcile
 * against the stall counters (docs/OBSERVABILITY.md). Off by
 * default, and when off the simulator allocates nothing and every
 * existing output stays byte-identical.
 */
struct QuerySpanConfig
{
    /** Master switch; requires SimConfig::attribute_stalls. */
    bool enabled = false;

    /**
     * Slowest queries kept as full exemplar records per invocation
     * (one representative per latency decile is kept additionally);
     * every other query folds into the per-stage digests only.
     */
    std::size_t exemplar_count = 8;
};

/** Parameters of one simulated ELSA accelerator. */
struct SimConfig
{
    /** Embedding dimension d of queries/keys/values. */
    std::size_t d = 64;

    /** Hash width k in bits (k = d in the evaluated design). */
    std::size_t k = 64;

    /** Number of attention computation modules / memory banks (P_a). */
    std::size_t pa = 4;

    /** Candidate selection modules per bank (P_c). */
    std::size_t pc = 8;

    /** Multipliers in the hash computation module (m_h). */
    std::size_t mh = 256;

    /** Multipliers in the output division module (m_o). */
    std::size_t mo = 16;

    /** Kronecker factors of the hash projection (Section III-C). */
    std::size_t num_hash_factors = 3;

    /** Depth of each candidate selection module's output queue. */
    std::size_t queue_depth = 4;

    /**
     * Cycles between the last arbiter grant of a query and the
     * hand-off of its accumulated row to the output division module.
     * The attention module's adder tree / exponent / MAC stages are
     * deeper than this, but double-buffered accumulators let the
     * drain overlap the next query's candidate scan, leaving only a
     * short hand-off bubble.
     */
    std::size_t attention_pipeline_latency = 2;

    /** Accelerator clock frequency. */
    double frequency_ghz = 1.0;

    /** Record a per-query QueryTraceRecord in the RunResult. */
    bool collect_query_trace = false;

    /**
     * Classify every idle lane cycle of every pipeline module into a
     * cause (starved / backpressured / bank_conflict / drained) and
     * accumulate the breakdown in RunResult::stall_breakdown; see
     * sim/stall.h. Attribution is post-hoc arithmetic over
     * already-simulated quantities -- it never changes simulated
     * cycle counts -- and with the flag off it costs nothing.
     */
    bool attribute_stalls = false;

    /**
     * When true, the functional model applies the hardware number
     * formats (S5.3 inputs, 8-bit key norms, LUT exponent/reciprocal/
     * sqrt, custom-float accumulation). When false, the functional
     * path uses double precision, which must match the software
     * algorithm bit-for-bit (used by the equivalence tests).
     */
    bool model_quantization = true;

    /**
     * Count saturating quantizations (FixedPoint clamps and
     * CustomFloat overflow) of the functional model into
     * RunResult::fixed_saturations / cfloat_saturations and the
     * `fixed.saturations` / `cfloat.saturations` stats counters.
     * The hook behind it (fixed/saturation.h) costs one thread-local
     * pointer test per quantization when disabled.
     */
    bool count_saturations = false;

    /**
     * Deterministic fault injection into the simulated memories and
     * LUT tables; see fault/fault.h and docs/ROBUSTNESS.md. Disabled
     * by default, and with it disabled results are byte-identical to
     * a build without the fault subsystem.
     */
    FaultConfig fault;

    /**
     * Binned time-series telemetry; see TelemetryConfig. Requires
     * attribute_stalls (the bins are the stall attribution spread
     * over time, so they have nothing to record without it).
     */
    TelemetryConfig telemetry;

    /**
     * Per-query lifecycle spans; see QuerySpanConfig. Requires
     * attribute_stalls (the decomposition reuses the attribution
     * arithmetic, so the two must agree on every cycle).
     */
    QuerySpanConfig query_spans;

    /** Raise elsa::Error unless the configuration is consistent;
     *  every message names the offending field. */
    void validate() const;

    /** The paper's synthesis/evaluation configuration. */
    static SimConfig paperConfig();
};

} // namespace elsa

#endif // ELSA_SIM_CONFIG_H_
