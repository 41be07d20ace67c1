#include "elsa/system.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stats.h"
#include "sim/pipeline_model.h"

namespace elsa {

void
SystemConfig::validate() const
{
    sim.validate();
    ELSA_CHECK(num_accelerators >= 1,
               "num_accelerators must be >= 1");
    ELSA_CHECK(sim_inputs >= 1, "sim_inputs must be >= 1");
    ELSA_CHECK(sim_sublayers >= 1, "sim_sublayers must be >= 1");
    ELSA_CHECK(eval.num_train_inputs >= 1,
               "eval.num_train_inputs must be >= 1");
    ELSA_CHECK(eval.num_eval_inputs >= 1,
               "eval.num_eval_inputs must be >= 1");
    ELSA_CHECK(eval.max_sublayers >= 1,
               "eval.max_sublayers must be >= 1");
}

ElsaSystem::ElsaSystem(WorkloadSpec spec, SystemConfig config,
                       std::uint64_t seed)
    : spec_(std::move(spec)),
      config_(config),
      seed_(seed),
      runner_(spec_, seed)
{
    config_.validate();
    ELSA_CHECK(config_.sim.d == spec_.model.head_dim,
               "sim d " << config_.sim.d << " != model head dim "
                        << spec_.model.head_dim);
}

void
ElsaSystem::attachObservability(obs::StatsRegistry* stats,
                                obs::TraceWriter* trace,
                                std::string prefix)
{
    stats_ = stats;
    trace_ = trace;
    stats_prefix_ = std::move(prefix);
}

ElsaSystem::FidelityCell&
ElsaSystem::fidelityCell(double p)
{
    std::lock_guard<std::mutex> lk(fidelity_m_);
    return fidelity_cache_[p];
}

const WorkloadEvaluation&
ElsaSystem::fidelityAt(double p)
{
    // The mutex only guards the map structure; the (address-stable)
    // cell is filled through its once_flag so concurrent callers of
    // the same p block on call_once, not on each other's evaluate().
    FidelityCell& cell = fidelityCell(p);
    std::call_once(cell.once, [&] {
        cell.value = runner_.evaluate(p, config_.eval);
    });
    return cell.value;
}

double
ElsaSystem::chooseP(ApproxMode mode)
{
    if (mode == ApproxMode::kBase) {
        return 0.0;
    }
    // Fill every grid cell from one pass over the grid; a cell that
    // fidelityAt already filled keeps its (bit-identical) value.
    const std::vector<double>& grid = WorkloadRunner::standardPGrid();
    std::call_once(grid_once_, [&] {
        std::vector<WorkloadEvaluation> evals =
            runner_.evaluateGrid(grid, config_.eval);
        for (std::size_t g = 0; g < grid.size(); ++g) {
            FidelityCell& cell = fidelityCell(grid[g]);
            std::call_once(cell.once,
                           [&] { cell.value = std::move(evals[g]); });
        }
    });

    const double bound = accuracyLossBound(spec_.model, mode);
    double best = 0.0;
    for (const double p : grid) {
        if (fidelityAt(p).estimated_loss_pct <= bound) {
            best = std::max(best, p);
        }
    }
    return best;
}

ModeReport
ElsaSystem::simulateAtP(ApproxMode mode, double p)
{
    ModeReport report;
    report.mode = mode;
    report.p = p;
    if (p > 0.0) {
        report.estimated_loss_pct = fidelityAt(p).estimated_loss_pct;
    }

    // Materialize invocations and run them on the accelerator array.
    const std::vector<SimInvocation> invocations = runner_.simInvocations(
        p, config_.sim_inputs, config_.sim_sublayers, config_.eval);
    ELSA_CHECK(!invocations.empty(), "no invocations to simulate");

    AcceleratorArray array(config_.sim, config_.num_accelerators,
                           runner_.engine().hasher(),
                           runner_.engine().cosineLut().thetaBias());
    if (stats_ != nullptr || trace_ != nullptr) {
        array.attachObservability(stats_, trace_, stats_prefix_);
    }

    std::vector<const AttentionInput*> inputs;
    std::vector<double> thresholds;
    inputs.reserve(invocations.size());
    for (const auto& inv : invocations) {
        inputs.push_back(&inv.input);
        thresholds.push_back(inv.threshold);
    }
    const ArrayRunResult run = array.run(inputs, thresholds);
    report.stall_breakdown = run.stall_breakdown;
    report.simulated_cycles = run.total_cycles;

    const double freq_hz = config_.sim.frequency_ghz * 1e9;
    const double mean_cycles = run.meanLatencyCycles();
    report.candidate_fraction = run.mean_candidate_fraction;
    report.elsa_latency_s = mean_cycles / freq_hz;
    report.preprocess_fraction =
        run.total_cycles > 0
            ? static_cast<double>(run.total_preprocess_cycles)
                  / static_cast<double>(run.total_cycles)
            : 0.0;
    // Steady state: every accelerator retires one op per mean-op
    // time.
    report.elsa_ops_per_second =
        static_cast<double>(config_.num_accelerators) * freq_hz
        / mean_cycles;

    // --- GPU comparison (padded length) ---
    const GpuModel gpu;
    report.gpu_ops_per_second = gpu.attentionOpsPerSecond(
        spec_.model, spec_.dataset.padded_length);
    report.throughput_vs_gpu =
        report.elsa_ops_per_second / report.gpu_ops_per_second;

    // --- Ideal-accelerator comparison (real tokens, no padding) ---
    const IdealAccelerator ideal;
    RunningStat ideal_latency;
    for (const auto& inv : invocations) {
        ideal_latency.add(
            ideal.secondsPerOp(inv.n_real, spec_.model.head_dim));
    }
    report.latency_vs_ideal = report.elsa_latency_s
                              / ideal_latency.mean();

    // --- Energy (Fig. 13) ---
    const EnergyModel energy_model(config_.sim.frequency_ghz);
    EnergyBreakdown total = energy_model.compute(
        run.activity, static_cast<double>(run.total_cycles));
    const double inv_count =
        static_cast<double>(invocations.size());
    for (auto& uj : total.module_uj) {
        uj /= inv_count;
    }
    report.energy_breakdown = total;
    report.elsa_energy_per_op_uj = total.totalUj();

    const double gpu_energy_uj = gpu.attentionEnergyPerOp(
                                     spec_.model,
                                     spec_.dataset.padded_length)
                                 * 1e6;
    report.energy_eff_vs_gpu =
        gpu_energy_uj / report.elsa_energy_per_op_uj;
    return report;
}

ModeReport
ElsaSystem::evaluateMode(ApproxMode mode)
{
    const double p = chooseP(mode);
    return simulateAtP(mode, p);
}

std::vector<ModeReport>
ElsaSystem::evaluateAllModes()
{
    std::vector<ModeReport> reports;
    for (const ApproxMode mode :
         {ApproxMode::kBase, ApproxMode::kConservative,
          ApproxMode::kModerate, ApproxMode::kAggressive}) {
        reports.push_back(evaluateMode(mode));
    }
    return reports;
}

} // namespace elsa
