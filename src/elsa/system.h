#ifndef ELSA_ELSA_SYSTEM_H_
#define ELSA_ELSA_SYSTEM_H_

/**
 * @file
 * ElsaSystem: the evaluation driver behind the paper's Figures
 * 11 and 13 and the Section V-E comparisons.
 *
 * For one model-dataset workload it
 *  - picks the hyperparameter p per operating mode (conservative /
 *    moderate / aggressive accuracy-loss bounds, Section V-C),
 *  - runs the cycle-level simulator over a sample of attention
 *    invocations,
 *  - and reports throughput / latency / energy, normalized against
 *    the GPU and ideal-accelerator baselines.
 */

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/gpu_model.h"
#include "baselines/ideal.h"
#include "energy/energy_model.h"
#include "sim/array.h"
#include "workload/accuracy.h"
#include "workload/workload.h"

namespace elsa {

/** Configuration of one ElsaSystem evaluation. */
struct SystemConfig
{
    /** Per-accelerator pipeline configuration. */
    SimConfig sim = SimConfig::paperConfig();

    /** Batch-parallel replication (12 in the paper). */
    std::size_t num_accelerators = 12;

    /** Fidelity-evaluation knobs (threshold learning + Fig. 10). */
    WorkloadEvalOptions eval;

    /** Inputs per sublayer fed to the cycle simulator. */
    std::size_t sim_inputs = 4;

    /** Sublayer subsample fed to the cycle simulator. */
    std::size_t sim_sublayers = 6;

    void validate() const;
};

/** Everything Fig. 11 / Fig. 13 report for one mode of one workload. */
struct ModeReport
{
    ApproxMode mode = ApproxMode::kBase;
    double p = 0.0;

    /** Mean candidate fraction the simulator observed. */
    double candidate_fraction = 1.0;

    /** Accuracy-loss proxy at this p. */
    double estimated_loss_pct = 0.0;

    /** Steady-state ELSA throughput (ops/s, all accelerators). */
    double elsa_ops_per_second = 0.0;

    /** Mean ELSA per-op latency (s), preprocessing included. */
    double elsa_latency_s = 0.0;

    /** Fraction of per-op time spent preprocessing. */
    double preprocess_fraction = 0.0;

    /** GPU throughput (ops/s) for the same workload. */
    double gpu_ops_per_second = 0.0;

    /** Fig. 11a: ELSA throughput / GPU throughput. */
    double throughput_vs_gpu = 0.0;

    /** Fig. 11b: ELSA latency / ideal-accelerator latency. */
    double latency_vs_ideal = 0.0;

    /** Mean per-op ELSA energy (uJ). */
    double elsa_energy_per_op_uj = 0.0;

    /** Fig. 13a: (ELSA perf/W) / (GPU perf/W). */
    double energy_eff_vs_gpu = 0.0;

    /** Fig. 13b: per-module-group energy breakdown (uJ per op). */
    EnergyBreakdown energy_breakdown;

    /**
     * Merged stall-cause breakdown over the simulated invocations;
     * all-zero unless SystemConfig::sim.attribute_stalls was set.
     * Feed to computeBottleneck() (sim/report.h) to name the
     * limiting pipeline module.
     */
    StallBreakdown stall_breakdown;

    /** Total simulated cycles behind stall_breakdown. */
    std::size_t simulated_cycles = 0;
};

/** Evaluation driver of one workload. */
class ElsaSystem
{
  public:
    ElsaSystem(WorkloadSpec spec, SystemConfig config,
               std::uint64_t seed = 0x5eed);

    const WorkloadRunner& runner() const { return runner_; }
    const SystemConfig& config() const { return config_; }
    std::uint64_t seed() const { return seed_; }

    /**
     * Route every simulated run's stats/trace into the given sinks
     * (non-owning; pass nullptr to detach). Counters land under
     * `<prefix>.*`; pipeline events go to `trace` when it is
     * enabled.
     */
    void attachObservability(obs::StatsRegistry* stats,
                             obs::TraceWriter* trace,
                             std::string prefix = "sim.accel0");

    /**
     * Fidelity evaluation at one p (cached: repeated calls with the
     * same p reuse the result). Used for mode selection and Fig. 10.
     * Safe to call from multiple threads: concurrent callers of the
     * same p share one evaluation, and the returned reference stays
     * valid for the system's lifetime.
     */
    const WorkloadEvaluation& fidelityAt(double p);

    /**
     * The p chosen for a mode (largest grid p within the bound).
     * The first call fills the whole standard p grid's cache cells
     * from one WorkloadRunner::evaluateGrid pass (which fans out
     * over sublayers and inputs); the chosen p and every cached
     * evaluation are identical at any thread count.
     */
    double chooseP(ApproxMode mode);

    /** Full report (simulator + baselines + energy) for one mode. */
    ModeReport evaluateMode(ApproxMode mode);

    /** Reports for base / conservative / moderate / aggressive. */
    std::vector<ModeReport> evaluateAllModes();

  private:
    /** Run the cycle simulator at hyperparameter p. */
    ModeReport simulateAtP(ApproxMode mode, double p);

    /**
     * One fidelity-cache cell. std::map nodes are address-stable, so
     * a cell can be filled through its once_flag without holding
     * fidelity_m_ (which only guards the map structure itself).
     */
    struct FidelityCell
    {
        std::once_flag once;
        WorkloadEvaluation value;
    };

    /** The cache cell of p, created empty on first use. */
    FidelityCell& fidelityCell(double p);

    WorkloadSpec spec_;
    SystemConfig config_;
    std::uint64_t seed_;
    /** Owns the thresholds memo that simulateAtP reads, so the
     *  modes learn each simulated sublayer's grid once. */
    WorkloadRunner runner_;
    std::mutex fidelity_m_;
    std::map<double, FidelityCell> fidelity_cache_;
    /** Guards the one evaluateGrid pass of chooseP. */
    std::once_flag grid_once_;

    /** Observability sinks (non-owning; see attachObservability). */
    obs::StatsRegistry* stats_ = nullptr;
    obs::TraceWriter* trace_ = nullptr;
    std::string stats_prefix_ = "sim.accel0";
};

} // namespace elsa

#endif // ELSA_ELSA_SYSTEM_H_
