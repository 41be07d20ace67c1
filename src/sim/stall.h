#ifndef ELSA_SIM_STALL_H_
#define ELSA_SIM_STALL_H_

/**
 * @file
 * Bottleneck attribution for the cycle-level simulator.
 *
 * The simulator's aggregate `stall_cycles` says *that* the pipeline
 * idled but not *why* or *where*. This layer classifies every lane
 * cycle of every pipeline module into exactly one state:
 *
 *   busy           doing work;
 *   starved        idle because no upstream work was available yet
 *                  (the arbiter facing empty queues mid-scan, every
 *                  execution module during preprocessing, a finished
 *                  bank waiting for the slowest bank to release the
 *                  next query);
 *   backpressured  finished its current item but blocked by a slower
 *                  downstream stage with more work still pending (the
 *                  hash module after hashing the next query while the
 *                  banks still chew on the current one);
 *   bank_conflict  a candidate selection module stalled on a full
 *                  output queue -- P_c modules competing for the
 *                  bank's single arbiter grant port per cycle;
 *   drained        idle with no further work in this run (the norm
 *                  module after preprocessing, everything during the
 *                  final output-division tail, a candidate module
 *                  that scanned all of its keys while the bank's
 *                  queues drain out);
 *   fault_retry    the pipeline frozen while a detected memory fault
 *                  is repaired by a modeled re-fetch (fault/fault.h);
 *                  identically zero unless SimConfig::fault is
 *                  enabled.
 *
 * Accounting is in *lane cycles*: a module class with L lanes (e.g.
 * P_a x P_c candidate selection modules) accumulates exactly
 * L x totalCycles() lane cycles per run, and the hard conservation
 * invariant
 *
 *   busy + starved + backpressured + bank_conflict + drained
 *     + fault_retry == lanes x total_cycles        (per module class)
 *
 * holds exactly (checked by ELSA_DASSERT in debug builds and by the
 * stall-attribution tests in all builds). Attribution is pure
 * post-hoc arithmetic over already-simulated quantities: enabling it
 * (SimConfig::attribute_stalls) never changes simulated cycle counts.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/config.h"

namespace elsa {

/** Per-lane-cycle state; kBusy plus the five idle causes. */
enum class StallCause
{
    kBusy = 0,
    kStarved,
    kBackpressured,
    kBankConflict,
    kDrained,
    /**
     * The pipeline frozen while a detected memory fault is repaired
     * by a modeled re-fetch (fault/fault.h, FaultOutcome::kDetected).
     * Zero whenever SimConfig::fault is disabled; the conservation
     * invariant below holds with this cause included either way.
     */
    kFaultRetry,
};

inline constexpr std::size_t kNumStallCauses = 6;

/** All states, in enum order. */
const std::array<StallCause, kNumStallCauses>& allStallCauses();

/** Human-readable state name ("busy", "bank conflict", ...), derived
 *  from stallCauseMetricName(). */
std::string stallCauseName(StallCause cause);

/**
 * Stable metric-path segment ("busy_cycles", "starved_cycles",
 * "backpressured_cycles", "bank_conflict_cycles", "drained_cycles")
 * for stats names like `sim.accel0.stall.hash_computation.
 * busy_cycles`.
 */
const char* stallCauseMetricName(StallCause cause);

/**
 * The pipeline module classes attribution distinguishes. The first
 * five mirror the compute entries of HwModule (Table I); arbitration
 * is attribution-only -- it burns no Table I power but can be the
 * structural bottleneck (one grant per bank per cycle).
 */
enum class AttributedModule
{
    kHash = 0,
    kNorm,
    kCandidateSelection,
    kArbitration,
    kAttention,
    kOutputDivision,
};

inline constexpr std::size_t kNumAttributedModules = 6;

/** All attributed modules, in enum order. */
const std::array<AttributedModule, kNumAttributedModules>&
allAttributedModules();

/** Human-readable module name ("hash computation", ...). */
const char* attributedModuleName(AttributedModule module);

/**
 * Stable metric-path segment ("hash_computation", "norm_computation",
 * "candidate_selection", "arbitration", "attention_compute",
 * "output_division"); matches hwModuleMetricName() where the two
 * enums overlap.
 */
const char* attributedModuleMetricName(AttributedModule module);

/**
 * Lanes of a module class under a pipeline configuration: 1 for
 * hash / norm / output division, P_a for arbitration and attention,
 * P_a x P_c for candidate selection.
 */
std::size_t attributedModuleLanes(AttributedModule module,
                                  const SimConfig& config);

/** Per-module-class, per-cause lane-cycle totals of one or more runs. */
class StallBreakdown
{
  public:
    /** Add lane cycles to one (module, cause) cell. */
    void add(AttributedModule module, StallCause cause,
             std::uint64_t lane_cycles);

    /** One cell's accumulated lane cycles. */
    std::uint64_t get(AttributedModule module, StallCause cause) const;

    /** Sum over all causes (busy included) of one module class. */
    std::uint64_t laneCycles(AttributedModule module) const;

    /** busy / laneCycles of a module; 0 when the module has no data. */
    double busyFraction(AttributedModule module) const;

    /** Accumulate another breakdown (batch aggregation). */
    void merge(const StallBreakdown& other);

    /** True when every cell is zero (attribution was off). */
    bool empty() const;

    /**
     * The conservation invariant: per module class, the cause sum
     * equals lanes x total_cycles.
     */
    bool conserves(std::size_t total_cycles,
                   const SimConfig& config) const;

  private:
    std::array<std::array<std::uint64_t, kNumStallCauses>,
               kNumAttributedModules>
        cells_{};
};

} // namespace elsa

#endif // ELSA_SIM_STALL_H_
