#ifndef ELSA_BENCH_FAULT_SWEEP_H_
#define ELSA_BENCH_FAULT_SWEEP_H_

/**
 * @file
 * Core of the error-resilience sweep (docs/ROBUSTNESS.md):
 * bit-error rate x protection mode on one quantized attention run,
 * reporting how attention fidelity (attention/metrics.h) degrades and
 * what the modeled recovery costs in cycles. Behind the elsa_bench
 * suite entry `ext_fault_sweep`.
 *
 * Everything here is deterministic: the workload, the hash matrices,
 * and every fault plan derive from fixed seeds, so the sweep is
 * bit-reproducible at any --threads value.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "attention/metrics.h"
#include "fault/fault.h"
#include "obs/manifest.h"

namespace elsa::bench {

/** One (protection mode, bit-error rate) grid point of the sweep. */
struct FaultSweepPoint
{
    ProtectionMode protection = ProtectionMode::kNone;
    double bit_error_rate = 0.0;

    /** Metric-name suffix, e.g. "parity_1em3". */
    std::string label;

    /** Fidelity of the faulted run vs exact attention. */
    FidelityReport fidelity;

    /** Injection/classification bookkeeping of the run's plan. */
    FaultCounts counts;

    /** Re-fetch stall cycles charged by detected faults. */
    std::uint64_t retry_stall_cycles = 0;

    /** Total cycles of the faulted run (includes the retries). */
    std::size_t total_cycles = 0;
};

/** The whole sweep: a fault-free reference plus the grid. */
struct FaultSweepResult
{
    /** Sequence length of the evaluated attention operation. */
    std::size_t n = 0;

    /** Learned candidate-selection threshold used by every run. */
    double threshold = 0.0;

    /** Fidelity of the fault-free quantized run (the approximation
     *  floor every faulted point is measured against). */
    FidelityReport baseline;

    /** Cycles of the fault-free run. */
    std::size_t baseline_cycles = 0;

    std::vector<FaultSweepPoint> points;
};

/** The swept bit-error rates ({1e-4, 1e-3} quick, wider when full). */
std::vector<double> faultSweepBers(bool quick);

/** Metric-name label of a power-of-ten BER, e.g. 1e-3 -> "1em3". */
std::string berLabel(double ber);

/**
 * Run the sweep: one fault-free reference run, then every protection
 * mode x BER combination on the same workload, threshold, and fault
 * seed. Quick mode shrinks the sequence length and the BER grid.
 */
FaultSweepResult runFaultResilienceSweep(bool quick);

/** Add the sweep's metrics to a manifest's "metrics" section. */
void addFaultSweepMetrics(obs::RunManifest& manifest,
                          const FaultSweepResult& result);

/** Human-readable table of the sweep (one string; ends with '\n'). */
std::string formatFaultSweepTable(const FaultSweepResult& result);

} // namespace elsa::bench

#endif // ELSA_BENCH_FAULT_SWEEP_H_
