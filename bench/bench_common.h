#ifndef ELSA_BENCH_BENCH_COMMON_H_
#define ELSA_BENCH_BENCH_COMMON_H_

/**
 * @file
 * Shared helpers of the elsa_bench suite driver and micro_kernels.
 *
 * Every elsa_bench entry prints a self-describing table: the paper
 * artifact it regenerates, the workloads/parameters, and the
 * measured series. EXPERIMENTS.md records the paper-vs-measured
 * comparison.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "elsa/system.h"
#include "obs/manifest.h"
#include "workload/model.h"

namespace elsa::bench {

/** Print the standard bench header. */
inline void
printHeader(const char* artifact, const char* description)
{
    std::printf("================================================="
                "=============================\n");
    std::printf("ELSA reproduction | %s\n", artifact);
    std::printf("%s\n", description);
    std::printf("================================================="
                "=============================\n");
}

/** The evaluation depth of the mode-reading elsa_bench entries. */
inline SystemConfig
standardSystemConfig()
{
    SystemConfig config;
    config.eval.max_sublayers = 6;
    config.eval.num_eval_inputs = 3;
    config.eval.num_train_inputs = 3;
    config.sim_sublayers = 6;
    config.sim_inputs = 6;
    return config;
}

/**
 * Run manifest pre-filled with build provenance and the evaluation
 * configuration; the bench adds its headline numbers to the
 * "metrics" section.
 */
inline obs::RunManifest
makeBenchManifest(const char* artifact, const SystemConfig& config,
                  std::uint64_t seed = 0x5eed)
{
    obs::RunManifest manifest(artifact);
    manifest.addBuildInfo();
    manifest.set("config", "seed", static_cast<std::size_t>(seed));
    manifest.set("config", "d", config.sim.d);
    manifest.set("config", "k", config.sim.k);
    manifest.set("config", "pa", config.sim.pa);
    manifest.set("config", "pc", config.sim.pc);
    manifest.set("config", "mh", config.sim.mh);
    manifest.set("config", "mo", config.sim.mo);
    manifest.set("config", "frequency_ghz",
                 config.sim.frequency_ghz);
    manifest.set("config", "num_accelerators",
                 config.num_accelerators);
    manifest.set("config", "sim_inputs", config.sim_inputs);
    manifest.set("config", "sim_sublayers", config.sim_sublayers);
    return manifest;
}

/**
 * Emit the machine-readable run summary: one `BENCH_JSON {...}` line
 * on stdout. This is the single emission point for the format -- the
 * elsa_bench driver and scripts/bench_compare.py parse these lines,
 * so no bench may print its own variant.
 */
inline void
emitBenchSummary(const obs::RunManifest& manifest)
{
    std::printf("BENCH_JSON %s\n",
                manifest.toJson(/*pretty=*/false).c_str());
}

/** Collects per-workload values and reports the geometric mean. */
class GeomeanTracker
{
  public:
    void
    add(double value)
    {
        values_.push_back(value);
    }

    double
    geomean() const
    {
        return values_.empty() ? 0.0 : elsa::geomean(values_);
    }

  private:
    std::vector<double> values_;
};

} // namespace elsa::bench

#endif // ELSA_BENCH_BENCH_COMMON_H_
