#ifndef ELSA_BENCH_SERVE_OVERLOAD_H_
#define ELSA_BENCH_SERVE_OVERLOAD_H_

/**
 * @file
 * Core of the serving overload sweep (docs/SERVING.md):
 * offered load x policy (static fidelity vs. graceful degradation)
 * on the canonical overload scenario, reporting goodput, shed rate,
 * deadline-miss rate, and tail latency vs. the SLO per cell. Behind
 * the elsa_bench suite entry `serve_overload`.
 *
 * Both policies of a load point see the *identical* arrival trace
 * (same seed, same rate), so the degradation ladder's effect --
 * strictly less shedding and higher goodput under overload, with
 * p99 held under the SLO -- is read directly off the table.
 * Everything is deterministic cycle-domain accounting and
 * bit-reproducible at any --threads / ELSA_SIMD level.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "obs/manifest.h"
#include "serve/engine.h"

namespace elsa::bench {

/** One (offered load, policy) cell of the sweep. */
struct ServeOverloadCell
{
    /** Offered load relative to base-fidelity capacity. */
    double load = 0.0;

    /** Whether the degradation ladder was enabled. */
    bool degraded = false;

    /** Metric-name suffix, e.g. "load2p0_degraded". */
    std::string label;

    /** The SLO the cell ran under, in cycles. */
    std::uint64_t deadline_cycles = 0;

    /** Full engine accounting of the cell. */
    ServeResult result;
};

/** The whole sweep. */
struct ServeOverloadResult
{
    std::vector<ServeOverloadCell> cells;
};

/** The swept load multipliers ({0.6, 1.0, 2.0}). */
std::vector<double> serveOverloadLoads();

/** Metric-name label of a load multiplier, e.g. 2.0 -> "load2p0". */
std::string loadLabel(double load);

/**
 * Run the sweep: every load multiplier under the static policy and
 * under the degradation ladder, on the canonical overload scenario
 * (serve/scenario.h). Quick mode shrinks the request count.
 */
ServeOverloadResult runServeOverloadSweep(bool quick);

/** Add the sweep's metrics to a manifest's "metrics" section. */
void addServeOverloadMetrics(obs::RunManifest& manifest,
                             const ServeOverloadResult& result);

/** Human-readable table of the sweep (one string; ends with '\n'). */
std::string formatServeOverloadTable(const ServeOverloadResult& result);

} // namespace elsa::bench

#endif // ELSA_BENCH_SERVE_OVERLOAD_H_
