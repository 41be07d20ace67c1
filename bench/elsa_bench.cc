/**
 * @file
 * elsa_bench: the one front-end of the paper's figure/table
 * reproductions and the benchmark-suite driver behind the regression
 * harness. Every experiment is a suite entry that prints its
 * per-workload table and paper-reference line and reports one
 * BENCH_JSON manifest; the driver runs any subset in-process and
 * aggregates the manifests into one schema-versioned
 * BENCH_RESULTS.json that scripts/bench_compare.py diffs against the
 * committed baseline.
 *
 *   elsa_bench --list
 *   elsa_bench --quick --out BENCH_RESULTS.json
 *   elsa_bench --bench fig11a_throughput,bottleneck_attribution
 *   elsa_bench --quick --threads 8
 *   elsa_bench --quick --report report_dir
 *
 * Each entry names the workloads whose mode reports and p-grid
 * fidelity it reads (Fig. 10/11/13, the A3 and TPU comparisons and
 * the bottleneck entry derive from the same runs); one evaluation
 * phase runs evaluateAllModes() once per workload of the selected
 * entries, before the entries fan out.
 *
 * --report <dir> additionally dumps an observability bundle (stats,
 * cycle-domain telemetry, manifest) from one representative
 * instrumented run; scripts/make_report.py turns it into a
 * self-contained HTML report.
 *
 * --quick shrinks the workload set and evaluation depth, and runs a
 * subset of each sweep, so the suite finishes in about a second (the
 * CTest / CI smoke configuration; the committed baseline under
 * bench/baselines/ is recorded with it). Without it every entry runs
 * the paper's full evaluation.
 *
 * --threads N sizes the process-wide pool (default: ELSA_THREADS or
 * the hardware concurrency) and runs independent suite entries
 * concurrently on it. Entry output is captured per entry and printed
 * in suite order, and every simulated metric is identical at any
 * thread count; only the mode-evaluation wall time, the wall_seconds
 * metrics and the kernel_throughput timings (both advisory in
 * scripts/bench_compare.py) vary; kernel_throughput's gated metrics
 * are in-process SIMD-over-scalar speedup ratios.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"

#include "attention/blocked.h"
#include "attention/metrics.h"
#include "attention/threshold.h"
#include "attention/topk.h"
#include "baselines/a3.h"
#include "baselines/gpu_model.h"
#include "baselines/tpu.h"
#include "bench_common.h"
#include "common/args.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "common/stats.h"
#include "elsa/elsa.h"
#include "elsa/system.h"
#include "energy/area_power.h"
#include "fault_sweep.h"
#include "lsh/angle.h"
#include "lsh/batched.h"
#include "lsh/calibration.h"
#include "lsh/candidates.h"
#include "lsh/srp.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "serve_overload.h"
#include "sim/accelerator.h"
#include "sim/pipeline_model.h"
#include "sim/report.h"
#include "tensor/ops.h"
#include "workload/generator.h"
#include "workload/model.h"
#include "workload/workload.h"

namespace elsa::bench {
namespace {

/**
 * Captured stdout of one suite entry. Entries may run concurrently
 * (--threads), so each formats into its own buffer and main() prints
 * the buffers in suite order -- the printed output is identical at
 * any thread count.
 */
class EntryLog
{
  public:
    /** printf into the buffer; output of any length is kept whole. */
    void
    add(const char* fmt, ...)
    {
        va_list ap;
        va_start(ap, fmt);
        va_list measure;
        va_copy(measure, ap);
        const int len = std::vsnprintf(nullptr, 0, fmt, measure);
        va_end(measure);
        if (len > 0) {
            const std::size_t old = text_.size();
            const std::size_t size = static_cast<std::size_t>(len);
            text_.resize(old + size + 1);
            std::vsnprintf(text_.data() + old, size + 1, fmt, ap);
            text_.resize(old + size);
        }
        va_end(ap);
    }

    /** The captured text, newline-terminated unless empty. */
    std::string
    text() const
    {
        return text_.empty() || text_.back() == '\n' ? text_
                                                      : text_ + '\n';
    }

  private:
    std::string text_;
};

/**
 * Host wall time since construction: the advisory wall_seconds and
 * the kernel_throughput timings, never a simulated result.
 */
class Stopwatch
{
  public:
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   // elsa-lint: allow(no-wallclock): advisory host wall time; simulated metrics never see it
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_ =
        // elsa-lint: allow(no-wallclock): advisory host wall time; simulated metrics never see it
        std::chrono::steady_clock::now();
};

/**
 * Fig. 10/11/13: every evaluation workload. --quick keeps one encoder
 * and one recommender, so both sequence-length regimes stay in the
 * baseline.
 */
std::vector<WorkloadSpec>
figureWorkloads(bool quick)
{
    if (quick) {
        return {{bertLarge(), squadV11()}, {sasRec(), movieLens1M()}};
    }
    return evaluationWorkloads();
}

/** The A3 comparison and the bottleneck entry: BERT/SQuADv1.1. */
std::vector<WorkloadSpec>
bertSquad(bool /*quick*/)
{
    return {{bertLarge(), squadV11()}};
}

/** The TPU comparison's ALBERT datasets and the paper's speedups. */
struct TpuRow
{
    DatasetSpec (*dataset)();
    double paper_base;
    double paper_moderate;
};

const TpuRow kTpuRows[] = {
    {squadV11, 8.3, 27.8},
    {squadV20, 6.4, 20.9},
    {race, 2.4, 8.0},
};

/** ALBERT on every TPU row; --quick keeps the first. */
std::vector<WorkloadSpec>
tpuWorkloads(bool quick)
{
    std::vector<WorkloadSpec> specs;
    for (const TpuRow& row : kTpuRows) {
        specs.push_back({albertLarge(), row.dataset()});
        if (quick) {
            break;
        }
    }
    return specs;
}

/** One workload's results from the mode-evaluation phase. */
struct WorkloadModes
{
    WorkloadSpec spec;

    /** evaluateAllModes(): base, conservative, moderate, aggressive. */
    std::vector<ModeReport> modes;

    /**
     * fidelityAt(p) for every p of WorkloadRunner::standardPGrid(),
     * in grid order (filled by the modes' chooseP).
     */
    std::vector<WorkloadEvaluation> grid;

    /** The grid evaluation at p. */
    const WorkloadEvaluation&
    at(double p) const
    {
        for (const WorkloadEvaluation& eval : grid) {
            if (eval.p == p) {
                return eval;
            }
        }
        ELSA_FATAL("p = " << p << " is not on the standard grid");
    }
};

/**
 * State shared by the suite entries: the evaluation configuration
 * and the mode-evaluation phase's results. evaluateModes() fills
 * `evaluated` before the entries fan out, so entries only read the
 * context, and every workload some entry reads is evaluated once.
 */
struct SuiteContext
{
    bool quick = false;
    SystemConfig config;

    /** One per workload a selected entry reads, in first-use order. */
    std::vector<WorkloadModes> evaluated;

    /** The phase results of `specs`, in their order. */
    std::vector<const WorkloadModes*>
    modesOf(const std::vector<WorkloadSpec>& specs) const
    {
        std::vector<const WorkloadModes*> out;
        for (const WorkloadSpec& spec : specs) {
            const auto it = std::find_if(
                evaluated.begin(), evaluated.end(),
                [&](const WorkloadModes& w) {
                    return w.spec.label() == spec.label();
                });
            ELSA_CHECK(it != evaluated.end(),
                       "workload " << spec.label()
                                   << " was not mode-evaluated");
            out.push_back(&*it);
        }
        return out;
    }
};

SuiteContext
makeContext(bool quick)
{
    SuiteContext ctx;
    ctx.quick = quick;
    ctx.config = standardSystemConfig();
    // The bottleneck entry reads the breakdown off the same mode
    // runs; attribution never changes simulated cycle counts.
    ctx.config.sim.attribute_stalls = true;
    if (quick) {
        ctx.config.eval.max_sublayers = 2;
        ctx.config.eval.num_eval_inputs = 2;
        ctx.config.eval.num_train_inputs = 2;
        ctx.config.sim_sublayers = 2;
        ctx.config.sim_inputs = 2;
    }
    return ctx;
}

/**
 * The mode-evaluation phase: evaluateAllModes() of every workload in
 * `specs` once, fanned out over the pool before any entry runs, so
 * each evaluation's nested parallelFor has idle workers to run on.
 * Prints its own wall time; no entry's wall_seconds includes it.
 */
void
evaluateModes(SuiteContext& ctx, const std::vector<WorkloadSpec>& specs)
{
    const Stopwatch watch;
    ctx.evaluated = ThreadPool::global().parallelMap<WorkloadModes>(
        specs.size(), [&](std::size_t i) {
            ElsaSystem system(specs[i], ctx.config);
            WorkloadModes result{specs[i], system.evaluateAllModes(),
                                 {}};
            for (const double p : WorkloadRunner::standardPGrid()) {
                result.grid.push_back(system.fidelityAt(p));
            }
            return result;
        });
    std::printf("mode evaluation: %zu workloads x 4 modes in %.2f s\n",
                specs.size(), watch.seconds());
}

/** Record the run's mode and execution environment as config. */
void
setRunConfig(obs::RunManifest& manifest, const SuiteContext& ctx)
{
    manifest.set("config", "quick", ctx.quick);
    // Execution environment, so a results file records how it was
    // produced. Simulated metrics never depend on either value.
    manifest.set("config", "threads", ThreadPool::global().threads());
    manifest.set("config", "hardware_concurrency",
                 static_cast<std::size_t>(
                     std::thread::hardware_concurrency()));
}

/**
 * A manifest with build provenance and the run config; the entry
 * adds the parameters it used.
 */
obs::RunManifest
makeManifest(const char* artifact, const SuiteContext& ctx)
{
    obs::RunManifest manifest(artifact);
    manifest.addBuildInfo();
    setRunConfig(manifest, ctx);
    return manifest;
}

/**
 * The manifest of an entry that reads the phase results of
 * `workloads` workloads: the mode-evaluation configuration behind
 * them plus the run config.
 */
obs::RunManifest
makeModeManifest(const char* artifact, const SuiteContext& ctx,
                 std::size_t workloads)
{
    obs::RunManifest manifest = makeBenchManifest(artifact, ctx.config);
    manifest.set("config", "workloads", workloads);
    setRunConfig(manifest, ctx);
    return manifest;
}

/** Geomean of one ModeReport field across the workloads. */
template <typename Getter>
std::array<double, 4>
modeGeomeans(const std::vector<const WorkloadModes*>& workloads,
             Getter getter)
{
    std::array<GeomeanTracker, 4> trackers;
    for (const WorkloadModes* w : workloads) {
        for (std::size_t i = 0; i < 4; ++i) {
            trackers[i].add(getter(w->modes[i]));
        }
    }
    std::array<double, 4> result{};
    for (std::size_t i = 0; i < 4; ++i) {
        result[i] = trackers[i].geomean();
    }
    return result;
}

const char* const kModeSuffix[4] = {"base", "conservative",
                                    "moderate", "aggressive"};

void
setPerMode(obs::RunManifest& manifest, const char* stem,
           const std::array<double, 4>& values)
{
    for (std::size_t i = 0; i < 4; ++i) {
        manifest.set("metrics",
                     std::string(stem) + "_" + kModeSuffix[i],
                     values[i]);
    }
}

obs::RunManifest
runFig11a(const SuiteContext& ctx, EntryLog& log)
{
    const auto workloads = ctx.modesOf(figureWorkloads(ctx.quick));
    log.add("%-18s %8s %8s %8s %8s %8s\n", "workload", "base",
            "conserv", "moderate", "aggress", "ideal");
    for (const WorkloadModes* w : workloads) {
        const auto& r = w->modes;
        // The ideal array (528 multipliers at 100% utilization per
        // replica) over the GPU: throughput_vs_gpu x
        // latency_vs_ideal, since both reduce to num_accelerators /
        // (GPU ops/s x mean ideal latency).
        log.add("%-18s %7.1fx %7.1fx %7.1fx %7.1fx %7.1fx\n",
                w->spec.label().c_str(),
                r[0].throughput_vs_gpu, r[1].throughput_vs_gpu,
                r[2].throughput_vs_gpu, r[3].throughput_vs_gpu,
                r[0].throughput_vs_gpu * r[0].latency_vs_ideal);
    }
    const auto g = modeGeomeans(workloads, [](const ModeReport& r) {
        return r.throughput_vs_gpu;
    });
    log.add("\n%-18s %7.1fx %7.1fx %7.1fx %7.1fx\n", "geomean", g[0],
            g[1], g[2], g[3]);
    log.add("Paper reference: base 7.99-43.93x; geomeans 57x / "
            "73x / 81x (cons/mod/agg).\n");
    obs::RunManifest manifest = makeModeManifest(
        "fig11a_throughput", ctx, workloads.size());
    setPerMode(manifest, "throughput_vs_gpu_geomean", g);
    return manifest;
}

obs::RunManifest
runFig11b(const SuiteContext& ctx, EntryLog& log)
{
    const auto workloads = ctx.modesOf(figureWorkloads(ctx.quick));
    log.add("%-18s %14s %14s %14s %14s\n", "workload", "base(pre)",
            "conserv(pre)", "moderate(pre)", "aggress(pre)");
    for (const WorkloadModes* w : workloads) {
        log.add("%-18s", w->spec.label().c_str());
        for (const ModeReport& report : w->modes) {
            log.add("   %5.2fx(%3.0f%%)", report.latency_vs_ideal,
                    100.0 * report.preprocess_fraction);
        }
        log.add("\n");
    }
    const auto g = modeGeomeans(workloads, [](const ModeReport& r) {
        return r.latency_vs_ideal;
    });
    log.add("\n%-18s %8.2fx %13.2fx %13.2fx %13.2fx\n", "geomean",
            g[0], g[1], g[2], g[3]);
    log.add("Paper reference: base 1.03x; cons/mod/agg 0.38x / "
            "0.29x / 0.26x of the ideal accelerator.\n");
    obs::RunManifest manifest =
        makeModeManifest("fig11b_latency", ctx, workloads.size());
    setPerMode(manifest, "latency_vs_ideal_geomean", g);
    return manifest;
}

obs::RunManifest
runFig13a(const SuiteContext& ctx, EntryLog& log)
{
    const auto workloads = ctx.modesOf(figureWorkloads(ctx.quick));
    log.add("%-18s %10s %10s %10s %10s\n", "workload", "base",
            "conserv", "moderate", "aggress");
    for (const WorkloadModes* w : workloads) {
        const auto& r = w->modes;
        log.add("%-18s %9.0fx %9.0fx %9.0fx %9.0fx\n",
                w->spec.label().c_str(),
                r[0].energy_eff_vs_gpu, r[1].energy_eff_vs_gpu,
                r[2].energy_eff_vs_gpu, r[3].energy_eff_vs_gpu);
    }
    const auto g = modeGeomeans(workloads, [](const ModeReport& r) {
        return r.energy_eff_vs_gpu;
    });
    log.add("\n%-18s %9.0fx %9.0fx %9.0fx %9.0fx\n", "geomean", g[0],
            g[1], g[2], g[3]);
    log.add("Paper reference: geomeans 442x / 1265x / 1726x / "
            "2093x (base/cons/mod/agg).\n");
    obs::RunManifest manifest = makeModeManifest(
        "fig13a_energy_efficiency", ctx, workloads.size());
    setPerMode(manifest, "energy_eff_vs_gpu_geomean", g);
    return manifest;
}

obs::RunManifest
runFig13b(const SuiteContext& ctx, EntryLog& log)
{
    const auto workloads = ctx.modesOf(figureWorkloads(ctx.quick));
    log.add("Groups: approximation logic (hash+norm+candidate), "
            "attention compute (+division),\ninternal SRAM (key "
            "hash/norm), external SRAM (key/value + "
            "query/output).\n\n");
    log.add("%-18s %-12s %8s %8s %8s %8s %8s\n", "workload", "config",
            "approx", "attn", "intSRAM", "extSRAM", "total");
    for (const WorkloadModes* w : workloads) {
        for (const ModeReport& report : w->modes) {
            const EnergyBreakdown& e = report.energy_breakdown;
            log.add("%-18s %-12s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
                    w->spec.label().c_str(),
                    approxModeName(report.mode) + 5, // strip "ELSA-"
                    e.approximationLogicUj(), e.attentionComputeUj(),
                    e.internalMemoryUj(), e.externalMemoryUj(),
                    e.totalUj());
        }
    }
    const auto g = modeGeomeans(workloads, [](const ModeReport& r) {
        return r.elsa_energy_per_op_uj;
    });
    log.add("\nenergy per op (geomean uJ): base %.3f, cons %.3f, "
            "mod %.3f, agg %.3f\n",
            g[0], g[1], g[2], g[3]);
    log.add("Paper reference shape: approximation reduces the "
            "attention-compute and external-memory\nenergy enough "
            "to lower the total despite the added approximation "
            "logic.\n");
    obs::RunManifest manifest = makeModeManifest(
        "fig13b_energy_breakdown", ctx, workloads.size());
    setPerMode(manifest, "energy_per_op_uj_geomean", g);
    // Shape check the paper argues about: the aggressive mode's
    // approximation-logic share of the total.
    const EnergyBreakdown& e =
        workloads.front()->modes[3].energy_breakdown;
    manifest.set("metrics", "approximation_logic_share_aggressive",
                 e.totalUj() > 0.0
                     ? e.approximationLogicUj() / e.totalUj()
                     : 0.0);
    return manifest;
}

obs::RunManifest
runTable1(const SuiteContext& ctx, EntryLog& log)
{
    log.add("n = 512, d = 64, P_a = 4, P_c = 8, m_h = 256, m_o = 16, "
            "1 GHz, TSMC 40nm.\n\n");
    log.add("%-34s %10s %12s %12s\n", "Module", "Area (mm2)",
            "Dyn. (mW)", "Static (mW)");
    for (const HwModule module : allHwModules()) {
        const ModuleAreaPower& r = moduleAreaPower(module);
        log.add("%-34s %10.3f %12.2f %12.2f\n", r.name.c_str(),
                r.totalAreaMm2(), r.totalDynamicMw(),
                r.totalStaticMw());
    }

    const AcceleratorAreaPower total = singleAcceleratorAreaPower();
    log.add("%-34s %10.3f %12.2f %12.2f\n", "ELSA Accelerator (1x)",
            total.core_area_mm2, total.core_dynamic_mw,
            total.core_static_mw);
    log.add("%-34s %10.3f %12.2f %12.2f\n",
            "External Memory Modules (1x)", total.external_area_mm2,
            total.external_dynamic_mw, total.external_static_mw);
    log.add("%-34s %10.3f %12.2f %12.2f\n", "ELSA Accelerators (12x)",
            12 * total.core_area_mm2, 12 * total.core_dynamic_mw,
            12 * total.core_static_mw);
    log.add("%-34s %10.3f %12.2f %12.2f\n",
            "External Memory Modules (12x)",
            12 * total.external_area_mm2,
            12 * total.external_dynamic_mw,
            12 * total.external_static_mw);

    log.add("\nDerived figures quoted in the paper text:\n");
    log.add("  single accelerator peak power : %.2f W "
            "(paper: ~1.49 W)\n",
            total.totalPeakPowerMw() / 1000.0);
    log.add("  twelve accelerators peak power: %.2f W "
            "(paper: ~17.93 W; V100 TDP 250 W)\n",
            12.0 * total.totalPeakPowerMw() / 1000.0);
    log.add("  key hash SRAM  (n=512, k=64)  : %zu B (paper: 4 KB)\n",
            keyHashMemoryBytes(512, 64));
    log.add("  key norm SRAM  (n=512)        : %zu B (paper: 512 B)\n",
            keyNormMemoryBytes(512));
    log.add("  Q/K/V/O matrix SRAM (each)    : %zu B "
            "(paper: ~36 KB, 9-bit elements)\n",
            matrixMemoryBytes(512, 64));

    obs::RunManifest manifest = makeManifest("table1_area_power",
                                             ctx);
    manifest.set("config", "n", std::size_t{512});
    manifest.set("config", "d", std::size_t{64});
    manifest.set("metrics", "core_area_mm2", total.core_area_mm2);
    manifest.set("metrics", "external_area_mm2",
                 total.external_area_mm2);
    manifest.set("metrics", "accelerator_peak_power_w",
                 total.totalPeakPowerMw() / 1000.0);
    manifest.set("metrics", "array_peak_power_w",
                 12.0 * total.totalPeakPowerMw() / 1000.0);
    manifest.set("metrics", "key_hash_sram_bytes",
                 keyHashMemoryBytes(512, 64));
    manifest.set("metrics", "key_norm_sram_bytes",
                 keyNormMemoryBytes(512));
    manifest.set("metrics", "matrix_sram_bytes",
                 matrixMemoryBytes(512, 64));
    return manifest;
}

obs::RunManifest
runFig02(const SuiteContext& ctx, EntryLog& log)
{
    log.add("Analytic V100 model; per-layer attention vs "
            "projection+FFN time.\n");
    const GpuModel gpu;
    const std::pair<ModelConfig, std::size_t> cases[] = {
        {bertLarge(), 384},   {robertaLarge(), 384},
        {albertLarge(), 384}, {sasRec(), 200},
        {bert4Rec(), 200},
    };
    struct Variant
    {
        const char* name;
        const char* metric;
        double seq_scale;
        double ffn_scale;
    };
    const Variant variants[] = {
        {"default n, full FFN", "attention_portion_mean_default",
         1.0, 1.0},
        {"4x n,      full FFN", "attention_portion_mean_seq4x",
         4.0, 1.0},
        {"default n, FFN/4   ", "attention_portion_mean_ffn_quarter",
         1.0, 0.25},
        {"4x n,      FFN/4   ",
         "attention_portion_mean_seq4x_ffn_quarter", 4.0, 0.25},
    };
    obs::RunManifest manifest =
        makeManifest("fig02_attention_portion", ctx);
    for (const auto& variant : variants) {
        log.add("\n-- %s --\n", variant.name);
        log.add("%-10s %12s %12s %12s %12s\n", "model", "attention",
                "projection", "FFN", "att. portion");
        RunningStat portions;
        for (const auto& [model, n] : cases) {
            const LayerRuntime rt = gpu.layerRuntime(
                model, n, variant.seq_scale, variant.ffn_scale);
            log.add("%-10s %10.2fus %10.2fus %10.2fus %11.1f%%\n",
                    model.name.c_str(), rt.attention_s * 1e6,
                    rt.projection_s * 1e6, rt.ffn_s * 1e6,
                    100.0 * rt.attentionPortion());
            portions.add(rt.attentionPortion());
        }
        log.add("%-10s %38s %11.1f%%\n", "average", "",
                100.0 * portions.mean());
        manifest.set("metrics", variant.metric, portions.mean());
    }
    log.add("\nPaper reference: ~38%% average (default), ~64%% "
            "(4x n), ~73%% (4x n + FFN/4).\n");
    return manifest;
}

obs::RunManifest
runBottleneck(const SuiteContext& ctx, EntryLog& log)
{
    // Which module limits the base (p = 0) configuration, straight
    // from the attributed simulator runs.
    const WorkloadModes& workload = *ctx.modesOf(bertSquad(ctx.quick))[0];
    const WorkloadSpec& spec = workload.spec;
    const ModeReport& base = workload.modes[0];
    const BottleneckReport report =
        computeBottleneck(base.stall_breakdown);
    ELSA_CHECK(report.valid,
               "bottleneck entry needs attribute_stalls runs");
    log.add("  workload %s:\n%s", spec.label().c_str(),
                formatBottleneckReport(report).c_str());

    obs::RunManifest manifest =
        makeModeManifest("bottleneck_attribution", ctx, 1);
    manifest.set("metrics", "workload", spec.label());
    manifest.set("metrics", "limiting_module",
                 attributedModuleName(report.limiting));
    manifest.set("metrics", "limiting_busy_fraction",
                 report.busy_fraction);
    manifest.set("metrics", "headroom", report.headroom);
    for (const AttributedModule module : allAttributedModules()) {
        const std::size_t m = static_cast<std::size_t>(module);
        manifest.set("metrics",
                     std::string("busy_fraction_")
                         + attributedModuleMetricName(module),
                     report.module_busy_fraction[m]);
    }
    return manifest;
}

obs::RunManifest
runFaultSweep(const SuiteContext& ctx, EntryLog& log)
{
    // Deterministic (fixed workload/hash/fault seeds, single
    // invocations), so the entry is identical at any thread count.
    const FaultSweepResult sweep = runFaultResilienceSweep(ctx.quick);
    log.add("%s", formatFaultSweepTable(sweep).c_str());
    log.add("\nParity converts silent corruptions of odd weight into "
            "detected re-fetches\n(cycles, not errors); SECDED "
            "corrects the dominant single-bit class outright.\n");
    obs::RunManifest manifest = makeManifest("ext_fault_sweep", ctx);
    manifest.set("config", "n", sweep.n);
    addFaultSweepMetrics(manifest, sweep);
    return manifest;
}

obs::RunManifest
runServeOverload(const SuiteContext& ctx, EntryLog& log)
{
    // Deterministic cycle-domain accounting over the canonical
    // overload scenario (serve/scenario.h); identical at any thread
    // count and SIMD level.
    const ServeOverloadResult sweep =
        runServeOverloadSweep(ctx.quick);
    log.add("%s", formatServeOverloadTable(sweep).c_str());
    log.add("\nUnder 2x overload the ladder trades fidelity for "
            "goodput: strictly less\nshedding than the static policy "
            "on the identical arrival trace, with p99\nheld under "
            "the deadline.\n");
    obs::RunManifest manifest = makeManifest("serve_overload", ctx);
    addServeOverloadMetrics(manifest, sweep);
    return manifest;
}

/**
 * Mean seconds per fn() call, measured over however many calls fit
 * into min_seconds (at least one, after one untimed warm-up call
 * that faults in code and data).
 */
template <typename Fn>
double
secondsPerCall(Fn&& fn, double min_seconds)
{
    fn();
    std::size_t calls = 0;
    const Stopwatch watch;
    double elapsed = 0.0;
    do {
        fn();
        ++calls;
        elapsed = watch.seconds();
    } while (elapsed < min_seconds);
    return elapsed / static_cast<double>(calls);
}

/**
 * Best-of-`rounds` seconds per call of fn(scalar table) and
 * fn(dispatched table), measured interleaved: each round times one
 * sample of `calls` calls on each table back to back, so both see the
 * same machine state, and the fastest sample of each is the estimate
 * least disturbed by preemption or other load. Returns {scalar,
 * dispatched} seconds per call.
 */
template <typename Fn>
std::array<double, 2>
interleavedBestSeconds(Fn&& fn, int rounds, int calls)
{
    const simd::KernelTable* tables[2] = {&simd::scalarKernels(),
                                          &simd::kernels()};
    std::array<double, 2> best = {1e300, 1e300};
    for (const simd::KernelTable* table : tables) {
        fn(*table); // Warm-up: faults in code and data.
    }
    for (int round = 0; round < rounds; ++round) {
        for (std::size_t t = 0; t < 2; ++t) {
            const Stopwatch watch;
            for (int call = 0; call < calls; ++call) {
                fn(*tables[t]);
            }
            const double seconds =
                watch.seconds() / static_cast<double>(calls);
            best[t] = std::min(best[t], seconds);
        }
    }
    return best;
}

obs::RunManifest
runKernelThroughput(const SuiteContext& ctx, EntryLog& log)
{
    // Measured host speed of the dispatched SIMD hot-path kernels
    // (src/common/simd/): the batched Hamming scan, the lane-per-key
    // score tile, packed SRP hashing, and the fused
    // candidate-selection pass.
    //
    // The gated metrics are the *_simd_speedup ratios: dispatched
    // over scalar table throughput of the same kernel on the same
    // data, measured interleaved, best of N. Load and machine speed
    // move both sides together, so the ratio stays put where the
    // absolute rates (advisory in scripts/bench_compare.py) swing
    // with whatever else runs; an accidental scalar fallback or a
    // broken SIMD kernel collapses it to ~1. Fixed seeds; the
    // *selected ids and hashes* are identical on every machine, only
    // the timings move.
    const std::size_t n = 512;
    const int rounds = ctx.quick ? 15 : 60;
    const double min_seconds = ctx.quick ? 0.02 : 0.1;
    Rng rng(2);
    const auto hasher = DenseSrpHasher::makeRandom(64, 64, rng);
    const QkvGenerator generator(bertLarge(), /*master_seed=*/99);
    const AttentionInput input =
        generator.generate(/*layer=*/11, /*head=*/3, n,
                           /*input_id=*/0);

    const HashMatrix hashes = hasher.hashMatrix(input.key);
    const HashValue query = hasher.hash(input.query.row(0));
    const std::vector<double> norms = l2NormRows(input.key);
    const CosineLut lut(hasher.bits(), kThetaBias64);
    // Mid-range cutoff: roughly half the keys pass, so the fused
    // pass pays both the compare and the emit.
    double max_norm = 0.0;
    for (const double norm : norms) {
        max_norm = norm > max_norm ? norm : max_norm;
    }
    const double cutoff = 0.5 * max_norm;

    std::vector<std::uint32_t> distances(n);
    const std::array<double, 2> hamming_spc = interleavedBestSeconds(
        [&](const simd::KernelTable& table) {
            table.hamming_batch(query.words().data(), hashes.data(),
                                hashes.wordsPerRow(), n,
                                distances.data());
        },
        rounds, /*calls=*/200);
    const double key_bytes = static_cast<double>(
        n * hashes.wordsPerRow() * sizeof(std::uint64_t));
    const double hamming_gibps =
        key_bytes / hamming_spc[1] / (1024.0 * 1024.0 * 1024.0);
    const double hamming_speedup = hamming_spc[0] / hamming_spc[1];

    const std::size_t d = input.key.cols();
    std::vector<double> scores(n);
    const std::array<double, 2> score_spc = interleavedBestSeconds(
        [&](const simd::KernelTable& table) {
            table.score_rows(input.query.row(0), input.key.data(), d, d,
                             n, scores.data());
        },
        rounds, /*calls=*/10);
    const double score_keys_per_sec =
        static_cast<double>(n) / score_spc[1];
    const double score_speedup = score_spc[0] / score_spc[1];

    HashMatrix hashed;
    const double hash_spc = secondsPerCall(
        [&] { hashed = hasher.hashMatrix(input.key); },
        min_seconds);
    ELSA_CHECK(hashed.rows() == n, "hashMatrix dropped rows");
    const double srp_hashes_per_sec =
        static_cast<double>(n) / hash_spc;

    std::vector<std::uint32_t> selected;
    selected.reserve(n);
    const double select_spc = secondsPerCall(
        [&] {
            selected.clear();
            selectAboveCutoff(query, hashes, norms, lut, cutoff, 0,
                              n, selected);
        },
        min_seconds);
    const double select_keys_per_sec =
        static_cast<double>(n) / select_spc;

    log.add("  simd level: %s\n", simd::kernels().name);
    log.add("  hamming batch: %.2f GiB/s, %.2fx scalar (%zu-bit "
            "hashes, %zu keys)\n",
            hamming_gibps, hamming_speedup, hashes.bits(), n);
    log.add("  score tile: %.3g keys/s, %.2fx scalar (d = %zu)\n",
            score_keys_per_sec, score_speedup, d);
    log.add("  srp hashing: %.3g hashes/s\n", srp_hashes_per_sec);
    log.add("  fused candidate selection: %.3g keys/s "
            "(%zu of %zu selected)\n",
            select_keys_per_sec, selected.size(), n);

    obs::RunManifest manifest = makeManifest("kernel_throughput",
                                             ctx);
    // The level is config, not a metric: bench_compare only diffs
    // the metrics section, and the level legitimately differs
    // between machines (and under ELSA_SIMD=scalar).
    manifest.set("config", "simd_level", simd::kernels().name);
    manifest.set("config", "n", n);
    manifest.set("metrics", "hamming_simd_speedup", hamming_speedup);
    manifest.set("metrics", "score_tile_simd_speedup", score_speedup);
    manifest.set("metrics", "hamming_gibps", hamming_gibps);
    manifest.set("metrics", "score_tile_keys_per_sec",
                 score_keys_per_sec);
    manifest.set("metrics", "srp_hashes_per_sec",
                 srp_hashes_per_sec);
    manifest.set("metrics", "candidate_select_keys_per_sec",
                 select_keys_per_sec);
    // Deterministic companions to the timings: if the kernels ever
    // stopped being bit-identical these would move on some machine.
    manifest.set("metrics", "selected_count", selected.size());
    manifest.set("metrics", "query_hash_popcount",
                 static_cast<std::int64_t>(query.popcount()));
    return manifest;
}

obs::RunManifest
runFig10(const SuiteContext& ctx, EntryLog& log)
{
    // The p values Fig. 10 plots, all on the standard grid.
    const double p_grid[] = {0.5, 1.0, 2.0, 4.0, 8.0};
    const auto workloads = ctx.modesOf(figureWorkloads(ctx.quick));
    log.add("Per workload: candidate fraction (bars) and estimated "
            "accuracy loss (lines).\n");
    log.add("\n%-18s", "workload");
    for (const double p : p_grid) {
        log.add("        p=%-4.1f", p);
    }
    log.add("\n%-18s", "");
    for (std::size_t i = 0; i < std::size(p_grid); ++i) {
        log.add("   cand%%  loss%%");
    }
    log.add("\n");

    RunningStat cand_at_p1;
    RunningStat loss_at_p1;
    RunningStat cand_at_p2;
    RunningStat loss_at_p2;
    for (const WorkloadModes* w : workloads) {
        log.add("%-18s", w->spec.label().c_str());
        for (const double p : p_grid) {
            const WorkloadEvaluation& eval = w->at(p);
            log.add("  %5.1f  %5.2f",
                    100.0 * eval.mean_candidate_fraction,
                    eval.estimated_loss_pct);
        }
        log.add("\n");
        cand_at_p1.add(w->at(1.0).mean_candidate_fraction);
        loss_at_p1.add(w->at(1.0).estimated_loss_pct);
        cand_at_p2.add(w->at(2.0).mean_candidate_fraction);
        loss_at_p2.add(w->at(2.0).estimated_loss_pct);
    }

    log.add("\nSummary: p=1 -> %.1f%% candidates, %.2f%% loss "
            "(paper: <40%%, sub-1%% for most)\n",
            100.0 * cand_at_p1.mean(), loss_at_p1.mean());
    log.add("         p=2 -> %.1f%% candidates, %.2f%% loss "
            "(paper: ~26%% avg, sub-2%%)\n",
            100.0 * cand_at_p2.mean(), loss_at_p2.mean());

    obs::RunManifest manifest = makeModeManifest(
        "fig10_accuracy_vs_p", ctx, workloads.size());
    manifest.set("metrics", "candidate_fraction_mean_p1",
                 cand_at_p1.mean());
    manifest.set("metrics", "estimated_loss_pct_mean_p1",
                 loss_at_p1.mean());
    manifest.set("metrics", "candidate_fraction_mean_p2",
                 cand_at_p2.mean());
    manifest.set("metrics", "estimated_loss_pct_mean_p2",
                 loss_at_p2.mean());
    return manifest;
}

obs::RunManifest
runA3Comparison(const SuiteContext& ctx, EntryLog& log)
{
    const WorkloadModes& workload = *ctx.modesOf(bertSquad(ctx.quick))[0];
    const WorkloadSpec& spec = workload.spec;
    const ModeReport& base = workload.modes[0];
    const ModeReport& cons = workload.modes[1];
    const ModeReport& mod = workload.modes[2];
    log.add("BERT + SQuADv1.1; A3 modeled with sort preprocessing and "
            "a <=2 keys/cycle selection stage.\n");

    const double cons_over_base =
        cons.elsa_ops_per_second / base.elsa_ops_per_second;
    const double mod_over_base =
        mod.elsa_ops_per_second / base.elsa_ops_per_second;

    log.add("\nELSA speedup over ELSA-base (no approximation):\n");
    log.add("  conservative: %.2fx (paper: 2.76x)\n", cons_over_base);
    log.add("  moderate    : %.2fx (paper: 3.72x)\n", mod_over_base);

    // A3 on the same workload: its approximation reaches the
    // selection-bound ~1.85x over its own baseline.
    const A3Model a3;
    const std::size_t n = spec.dataset.padded_length;
    const std::size_t d = spec.model.head_dim;
    const double a3_base_s = a3.baseSecondsPerOp(n, d);
    const double a3_approx_s =
        a3.approxSecondsPerOp(n, d, cons.candidate_fraction);
    log.add("\nA3 speedup over its own baseline: %.2fx "
            "(paper: 1.85x)\n",
            a3_base_s / a3_approx_s);

    // Raw comparison: ELSA approximate throughput per accelerator vs
    // the A3 approximate configuration. A3's sort-based
    // preprocessing consumes the whole padded key matrix, so the
    // padded-n cost is its natural operating point; a real-token A3
    // (generously assuming it also skips padding) is shown as the
    // other end of the band.
    const double array =
        static_cast<double>(ctx.config.num_accelerators);
    const double elsa_cons_s =
        array / cons.elsa_ops_per_second; // One accelerator's op time.
    const double elsa_mod_s = array / mod.elsa_ops_per_second;
    // The evaluation inputs' mean length, the same at every p.
    const auto n_real = static_cast<std::size_t>(
        workload.grid.front().mean_real_tokens);
    const double a3_real_s =
        a3.approxSecondsPerOp(n_real, d, cons.candidate_fraction);
    log.add("\nRaw per-accelerator speedup over the A3 "
            "approximate configuration:\n");
    log.add("  ELSA-conservative: %.2fx (padded A3) / %.2fx "
            "(real-token A3)   (paper: 5.96x)\n",
            a3_approx_s / elsa_cons_s, a3_real_s / elsa_cons_s);
    log.add("  ELSA-moderate    : %.2fx (padded A3) / %.2fx "
            "(real-token A3)   (paper: 8.04x)\n",
            a3_approx_s / elsa_mod_s, a3_real_s / elsa_mod_s);

    // Preprocessing scaling: replication shrinks execution but not
    // A3's host-side sort.
    log.add("\nA3 preprocessing share when replicating "
            "accelerators (n = %zu):\n",
            n);
    for (const int replicas : {1, 4, 12}) {
        const double exec =
            a3.approxExecuteCycles(n, cons.candidate_fraction) / 1e9
            / replicas;
        const double pre = a3.preprocessSeconds(n, d);
        log.add("  %2dx accelerators: preprocessing = %4.1f%% of "
                "total\n",
                replicas, 100.0 * pre / (pre + exec));
    }
    log.add("\nA3 preprocessing storage: %zu B (2x the key "
            "matrix); ELSA needs %zu B of hash + norm SRAM.\n",
            A3Model::preprocessStorageBytes(n, d),
            keyHashMemoryBytes(n, 64) + keyNormMemoryBytes(n));

    obs::RunManifest manifest =
        makeModeManifest("disc_a3_comparison", ctx, 1);
    manifest.set("metrics", "speedup_conservative_over_base",
                 cons_over_base);
    manifest.set("metrics", "speedup_moderate_over_base",
                 mod_over_base);
    manifest.set("metrics", "a3_speedup_over_own_base",
                 a3_base_s / a3_approx_s);
    manifest.set("metrics", "speedup_conservative_over_a3",
                 a3_approx_s / elsa_cons_s);
    manifest.set("metrics", "speedup_moderate_over_a3",
                 a3_approx_s / elsa_mod_s);
    return manifest;
}

obs::RunManifest
runTpuComparison(const SuiteContext& ctx, EntryLog& log)
{
    const auto workloads = ctx.modesOf(tpuWorkloads(ctx.quick));
    log.add("Iso-peak-FLOPS normalization: TPUv2 at 45 TFLOPS "
            "FP32-equivalent vs 13 TOPS for 12 ELSA accelerators.\n");
    const TpuModel tpu;
    log.add("\n%-12s %12s %14s %14s\n", "dataset", "TPU/GPU",
            "base/TPU", "moderate/TPU");

    GeomeanTracker base_g;
    GeomeanTracker mod_g;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const WorkloadSpec& spec = workloads[i]->spec;
        const TpuRow& row = kTpuRows[i];
        const double tpu_tput =
            tpu.normalizedAttentionOpsPerSecond(spec.model,
                                                spec.dataset);
        const double base_vs_tpu =
            workloads[i]->modes[0].elsa_ops_per_second / tpu_tput;
        const double mod_vs_tpu =
            workloads[i]->modes[2].elsa_ops_per_second / tpu_tput;
        base_g.add(base_vs_tpu);
        mod_g.add(mod_vs_tpu);
        log.add("%-12s %11.1fx %6.1fx (%4.1f) %6.1fx (%4.1f)\n",
                spec.dataset.name.c_str(),
                TpuModel::normalizedGpuRatio(spec.dataset),
                base_vs_tpu, row.paper_base, mod_vs_tpu,
                row.paper_moderate);
    }

    log.add("\nPaper reference: base 8.3x/6.4x/2.4x and moderate "
            "27.8x/20.9x/8.0x over TPUv2.\n");

    obs::RunManifest manifest = makeModeManifest(
        "disc_tpu_comparison", ctx, workloads.size());
    manifest.set("metrics", "speedup_base_vs_tpu_geomean",
                 base_g.geomean());
    manifest.set("metrics", "speedup_moderate_vs_tpu_geomean",
                 mod_g.geomean());
    return manifest;
}

obs::RunManifest
runHashCost(const SuiteContext& ctx, EntryLog& log)
{
    log.add("Multiplications per hash and preprocessing share of the "
            "exact-attention cost.\n");
    const std::size_t d = 64;
    Rng rng(42);
    const auto dense = DenseSrpHasher::makeRandom(d, d, rng);
    const auto two = KroneckerSrpHasher::makeRandom(d, 2, rng);
    const auto three = KroneckerSrpHasher::makeRandom(d, 3, rng);
    log.add("\n%-6s %12s %12s %12s %10s\n", "d", "dense d^2", "2-way",
            "3-way", "saving");
    log.add("%-6zu %12zu %12zu %12zu %9.1fx\n", d,
            dense.multiplicationsPerHash(),
            two.multiplicationsPerHash(),
            three.multiplicationsPerHash(),
            static_cast<double>(dense.multiplicationsPerHash())
                / three.multiplicationsPerHash());
    log.add("(paper: 4096 -> 1024 -> 768 for d = 64)\n");

    // Hash cost share of the total attention cost, per n: the
    // motivation for the fast hash at small n (Section III-C).
    log.add("\n%-6s %16s %16s %16s\n", "n", "2ndk/dense",
            "2ndk/3-way", "exact 2n^2d");
    for (const std::size_t n : {64u, 128u, 256u, 512u, 1024u}) {
        const double exact = 2.0 * n * n * 64.0;
        const double dense_hash = 2.0 * n * 64.0 * 64.0;
        const double kron_hash = 2.0 * n * 768.0 / 2.0; // 3d^{4/3}
        log.add("%-6zu %15.1f%% %15.1f%% %16.0f\n", n,
                100.0 * dense_hash / exact, 100.0 * kron_hash / exact,
                exact);
    }

    // Accelerator preprocessing cycles by hash structure.
    const std::size_t n = 512;
    obs::RunManifest manifest = makeManifest("ablation_hash_cost", ctx);
    manifest.set("config", "d", d);
    manifest.set("config", "n", n);
    log.add("\nPreprocessing cycles at n = %zu, m_h = 256:\n", n);
    for (const std::size_t factors : {1u, 2u, 3u}) {
        SimConfig config = SimConfig::paperConfig();
        config.num_hash_factors = factors;
        const std::size_t cycles = preprocessingCycles(config, n);
        log.add("  %zu-factor projection: %zu cycles\n", factors,
                cycles);
        manifest.set("metrics",
                     "preprocess_cycles_" + std::to_string(factors)
                         + "_factor",
                     cycles);
    }
    log.add("(paper: 3 d^(4/3) (n+1) / m_h = 1539 cycles for the "
            "3-way structure)\n");
    return manifest;
}

/** RMS angle-estimation error of a hasher on normal vectors. */
double
rmsAngleError(const SrpHasher& hasher, Rng& rng, int pairs,
              double* underestimate_share = nullptr, double bias = 0.0)
{
    const std::size_t d = hasher.dim();
    std::vector<float> x(d);
    std::vector<float> y(d);
    RunningStat sq;
    int under = 0;
    for (int i = 0; i < pairs; ++i) {
        for (std::size_t c = 0; c < d; ++c) {
            x[c] = static_cast<float>(rng.gaussian());
            y[c] = static_cast<float>(rng.gaussian());
        }
        const double cosine = dot(x.data(), y.data(), d)
                              / (l2Norm(x.data(), d)
                                 * l2Norm(y.data(), d));
        const double truth = std::acos(std::clamp(cosine, -1.0, 1.0));
        const int ham =
            hammingDistance(hasher.hash(x.data()), hasher.hash(y.data()));
        const double est = estimateAngle(ham, hasher.bits()) - bias;
        sq.add((est - truth) * (est - truth));
        if (est < truth) {
            ++under;
        }
    }
    if (underestimate_share != nullptr) {
        *underestimate_share = static_cast<double>(under) / pairs;
    }
    return std::sqrt(sq.mean());
}

obs::RunManifest
runSrpQuality(const SuiteContext& ctx, EntryLog& log)
{
    log.add("Angle-estimation error by projection structure, hash "
            "width k, and bias correction.\n");
    // Vector pairs per estimate; --quick takes fewer.
    const int pairs = ctx.quick ? 500 : 4000;
    obs::RunManifest manifest =
        makeManifest("ablation_srp_quality", ctx);
    manifest.set("config", "d", std::size_t{64});
    manifest.set("config", "pairs", static_cast<std::int64_t>(pairs));

    Rng rng(7);
    log.add("\nProjection structure (d = k = 64, RMS angle error "
            "in radians):\n");
    {
        Matrix iid(64, 64);
        iid.fillGaussian(rng);
        const DenseSrpHasher iid_hasher(std::move(iid));
        const auto ortho = DenseSrpHasher::makeRandom(64, 64, rng);
        const auto kron = KroneckerSrpHasher::makeRandom(64, 3, rng);
        const auto kron_q =
            KroneckerSrpHasher::makeRandom(64, 3, rng, true);
        const double err_iid = rmsAngleError(iid_hasher, rng, pairs);
        const double err_ortho = rmsAngleError(ortho, rng, pairs);
        const double err_kron = rmsAngleError(kron, rng, pairs);
        const double err_kron_q = rmsAngleError(kron_q, rng, pairs);
        log.add("  i.i.d. Gaussian rows        : %.4f\n", err_iid);
        log.add("  orthogonalized (paper)      : %.4f\n", err_ortho);
        log.add("  Kronecker 3-way             : %.4f\n", err_kron);
        log.add("  Kronecker 3-way + S0.5 quant: %.4f\n", err_kron_q);
        manifest.set("metrics", "rms_angle_error_iid", err_iid);
        manifest.set("metrics", "rms_angle_error_orthogonal",
                     err_ortho);
        manifest.set("metrics", "rms_angle_error_kronecker",
                     err_kron);
        manifest.set("metrics", "rms_angle_error_kronecker_quant",
                     err_kron_q);
    }

    log.add("\nHash width k (orthogonalized dense, d = 64):\n");
    log.add("  %-6s %12s %12s\n", "k", "RMS error", "theta_bias");
    for (const std::size_t k : {16u, 32u, 64u, 128u, 256u}) {
        const auto hasher = DenseSrpHasher::makeRandom(k, 64, rng);
        BiasCalibrationOptions options;
        options.num_pairs = static_cast<std::size_t>(pairs);
        options.num_hashers = 2;
        const double bias = calibrateThetaBias(64, k, rng, options);
        log.add("  %-6zu %12.4f %12.4f%s\n", k,
                rmsAngleError(hasher, rng, pairs), bias,
                k == 64 ? "   (paper: 0.127)" : "");
    }

    log.add("\nBias correction target (underestimate the angle "
            "in ~80%% of cases):\n");
    const auto hasher = DenseSrpHasher::makeRandom(64, 64, rng);
    double share_raw = 0.0;
    double share_bias = 0.0;
    rmsAngleError(hasher, rng, pairs, &share_raw, 0.0);
    rmsAngleError(hasher, rng, pairs, &share_bias, kThetaBias64);
    log.add("  without correction: %4.1f%% underestimated\n",
            100.0 * share_raw);
    log.add("  with theta_bias   : %4.1f%% underestimated "
            "(target ~80%%)\n",
            100.0 * share_bias);
    manifest.set("metrics", "underestimate_share_raw", share_raw);
    manifest.set("metrics", "underestimate_share_corrected",
                 share_bias);
    return manifest;
}

obs::RunManifest
runPipelineDse(const SuiteContext& ctx, EntryLog& log)
{
    log.add("Cycle-level simulation of one BERT-like invocation "
            "across pipeline configurations.\n");
    // A representative invocation with a learned threshold.
    const double p = 1.0;
    WorkloadRunner runner({bertLarge(), race()});
    const auto invocations = runner.simInvocations(p, 1, 1);
    const SimInvocation& inv = invocations.front();
    log.add("\nworkload: BERT/RACE sublayer (%zu real tokens), "
            "p = 1 threshold = %.3f\n",
            inv.n_real, inv.threshold);

    Rng rng(3);
    auto hasher = std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng, true));

    struct Config
    {
        std::size_t pa, pc, mh, mo, qd;
    };
    const Config configs[] = {
        {1, 8, 64, 8, 4},   // the paper's single-bank example
        {2, 8, 128, 8, 4},  //
        {4, 4, 256, 16, 4}, // fewer selection modules
        {4, 8, 256, 16, 4}, // the paper's evaluation config
        {4, 16, 256, 16, 4},// more selection modules
        {8, 8, 256, 32, 4}, // more banks
        {4, 8, 256, 16, 1}, // shallow queues
        {4, 8, 64, 4, 4},   // starved hash/division units
    };
    const std::size_t paper_config = 3;

    log.add("\n%-26s %10s %10s %10s %8s %8s  %s\n", "config",
            "preproc", "exec", "cyc/query", "stalls", "vs exact",
            "limiting module");

    // Exact (no-approximation) reference on the paper configuration.
    const double base_exec = [&] {
        Accelerator accel(SimConfig::paperConfig(), hasher,
                          kThetaBias64);
        const RunResult base = accel.run(
            inv.input, -std::numeric_limits<double>::infinity());
        return static_cast<double>(base.execute_cycles);
    }();

    obs::RunManifest manifest =
        makeManifest("ablation_pipeline_dse", ctx);
    manifest.set("config", "workload", runner.spec().label());
    manifest.set("config", "p", p);
    for (std::size_t i = 0; i < std::size(configs); ++i) {
        // --quick runs the paper's evaluation config only; each row
        // is independent of the others.
        if (ctx.quick && i != paper_config) {
            continue;
        }
        const Config& c = configs[i];
        SimConfig sim = SimConfig::paperConfig();
        sim.pa = c.pa;
        sim.pc = c.pc;
        sim.mh = c.mh;
        sim.mo = c.mo;
        sim.queue_depth = c.qd;
        sim.attribute_stalls = true;
        Accelerator accel(sim, hasher, kThetaBias64);

        const RunResult run = accel.run(inv.input, inv.threshold);
        const BottleneckReport bottleneck = computeBottleneck(run);
        char label[64];
        std::snprintf(label, sizeof(label),
                      "Pa=%zu Pc=%-2zu mh=%-3zu mo=%-2zu qd=%zu",
                      c.pa, c.pc, c.mh, c.mo, c.qd);
        log.add("%-26s %10zu %10zu %10.1f %8zu %7.2fx  %s (%.0f%%)\n",
                label, run.preprocess_cycles, run.execute_cycles,
                static_cast<double>(run.execute_cycles)
                    / static_cast<double>(inv.n_real),
                run.stall_cycles,
                base_exec / static_cast<double>(run.execute_cycles),
                attributedModuleName(bottleneck.limiting),
                100.0 * bottleneck.busy_fraction);
        if (i == paper_config) {
            manifest.set("metrics", "paper_config_execute_cycles",
                         run.execute_cycles);
            manifest.set("metrics", "paper_config_stall_cycles",
                         run.stall_cycles);
            manifest.set("metrics", "paper_config_limiting_module",
                         attributedModuleName(bottleneck.limiting));
            manifest.set("metrics", "paper_config_limiting_busy",
                         bottleneck.busy_fraction);
        }
    }

    log.add("\nPipeline floors at n = %zu (paper Section IV-D):\n",
            inv.n_real);
    const SimConfig paper = SimConfig::paperConfig();
    log.add("  hash/query   : %zu cycles\n", hashCyclesPerVector(paper));
    log.add("  candidate scan: %zu cycles\n",
            candidateScanCycles(paper, inv.n_real));
    log.add("  division     : %zu cycles\n",
            divisionCyclesPerQuery(paper));
    log.add("  -> max exact-mode speedup %.1fx; approximate "
            "speedup is min(n/c, %.1f)\n",
            maxPipelineSpeedup(paper, inv.n_real),
            maxPipelineSpeedup(paper, inv.n_real));
    return manifest;
}

obs::RunManifest
runKSweep(const SuiteContext& ctx, EntryLog& log)
{
    log.add("BERT-like sublayer, n = 384; k < 64 uses a dense "
            "orthogonal projection, k >= 64 batched Kronecker.\n");
    const std::size_t n = 384;
    const std::size_t d = 64;
    const double p = 1.0;
    QkvGenerator gen(bertLarge(), 31);
    const AttentionInput train = gen.generate(11, 3, n, 100);
    const AttentionInput input = gen.generate(11, 3, n, 0);

    ThresholdLearner learner(p);
    learner.observe(train.query, train.key);
    const double threshold = learner.threshold();

    log.add("\np = 1, learned threshold t = %.3f\n", threshold);
    log.add("\n%-6s %10s %12s %12s %12s %12s\n", "k", "theta_bias",
            "candidates", "mass recall", "mults/hash", "hash SRAM");

    // --quick stops at k = d and calibrates theta_bias on fewer
    // vector pairs.
    const std::size_t widths[] = {8, 16, 32, 64, 128, 256};
    const std::size_t num_widths = ctx.quick ? 4 : std::size(widths);
    const std::size_t calibration_pairs = ctx.quick ? 1000 : 4000;
    Rng rng(17);
    obs::RunManifest manifest = makeManifest("ablation_k_sweep", ctx);
    manifest.set("config", "n", n);
    manifest.set("config", "d", d);
    manifest.set("config", "p", p);
    manifest.set("config", "max_k", widths[num_widths - 1]);
    manifest.set("config", "calibration_pairs", calibration_pairs);
    for (std::size_t i = 0; i < num_widths; ++i) {
        const std::size_t k = widths[i];
        std::shared_ptr<const SrpHasher> hasher;
        if (k < d) {
            hasher = std::make_shared<DenseSrpHasher>(
                DenseSrpHasher::makeRandom(k, d, rng));
        } else {
            hasher = std::make_shared<BatchedKroneckerHasher>(
                BatchedKroneckerHasher::makeRandom(k, d, 3, rng,
                                                   true));
        }
        BiasCalibrationOptions options;
        options.num_pairs = calibration_pairs;
        options.num_hashers = 2;
        const double bias = calibrateThetaBias(d, k, rng, options);
        ApproxSelfAttention engine(hasher, bias);

        const auto candidates =
            engine.candidatesForAll(input, threshold);
        std::size_t total = 0;
        for (const auto& c : candidates) {
            total += c.size();
        }
        const double recall = attentionMassRecall(input, candidates);
        log.add("%-6zu %10.3f %11.1f%% %12.4f %12zu %9zu B\n", k,
                bias, 100.0 * static_cast<double>(total) / (n * n),
                recall, hasher->multiplicationsPerHash(),
                keyHashMemoryBytes(n, k));
        if (k == 64) {
            manifest.set("metrics", "candidate_fraction_k64",
                         static_cast<double>(total) / (n * n));
            manifest.set("metrics", "mass_recall_k64", recall);
            manifest.set("metrics", "theta_bias_k64", bias);
        }
    }

    log.add("\nReading the table: small k inflates the "
            "estimator noise -- the bias correction must\ngrow, "
            "which over-selects candidates without improving "
            "recall. Past k = d = 64 the\nrecall gain is modest "
            "while hash cost and SRAM grow linearly: the paper's "
            "k = d\nchoice sits at the knee.\n");
    return manifest;
}

obs::RunManifest
runTopkVsThreshold(const SuiteContext& ctx, EntryLog& log)
{
    log.add("BERT-like sublayer, n = 384; budgets matched to the "
            "threshold scheme's candidate counts.\n");
    const std::size_t n = 384;
    QkvGenerator gen(bertLarge(), 71);
    const AttentionInput train = gen.generate(11, 3, n, 100);
    const AttentionInput input = gen.generate(11, 3, n, 0);

    Rng rng(5);
    auto hasher = std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng, true));
    ApproxSelfAttention engine(hasher, kThetaBias64);
    TopKSelector selector(engine);

    log.add("\n%-6s %8s | %10s %10s %10s | %14s %14s\n", "p",
            "budget", "threshold", "hash topk", "oracle",
            "thresh ops/q", "sort ops/q");
    obs::RunManifest manifest =
        makeManifest("ablation_topk_vs_threshold", ctx);
    manifest.set("config", "n", n);
    for (const double p : {0.5, 1.0, 2.0, 4.0}) {
        // --quick runs p = 1 only; each row is independent of the
        // others.
        if (ctx.quick && p != 1.0) {
            continue;
        }
        ThresholdLearner learner(p);
        learner.observe(train.query, train.key);
        const double t = learner.threshold();

        const auto threshold_lists = engine.candidatesForAll(input, t);
        std::size_t total = 0;
        for (const auto& list : threshold_lists) {
            total += list.size();
        }
        const std::size_t budget =
            std::max<std::size_t>(1, total / n);

        const auto topk_lists = selector.select(input, budget);
        const auto oracle_lists =
            TopKSelector::selectOracle(input, budget);

        const double threshold_recall =
            attentionMassRecall(input, threshold_lists);
        const double topk_recall =
            attentionMassRecall(input, topk_lists);
        log.add("%-6.1f %8zu | %10.4f %10.4f %10.4f | %14zu %14.0f\n",
                p, budget, threshold_recall, topk_recall,
                attentionMassRecall(input, oracle_lists), n,
                TopKSelector::sortOpsPerQuery(n));
        if (p == 1.0) {
            manifest.set("metrics", "threshold_recall_p1",
                         threshold_recall);
            manifest.set("metrics", "topk_recall_p1", topk_recall);
        }
    }

    log.add("\nThe threshold scheme stays within a few points of "
            "hash-based top-k at log2(n) = %.0fx\nfewer "
            "selection operations, and hardware-wise it is one "
            "parallel compare per key --\nexactly the paper's "
            "argument for rejecting sorting.\n",
            TopKSelector::sortOpsPerQuery(n) / n);
    return manifest;
}

obs::RunManifest
runLongSequence(const SuiteContext& ctx, EntryLog& log)
{
    const std::size_t window = 512;
    const std::size_t array = ctx.config.num_accelerators;
    log.add("512-token windows; ELSA at p = 1; GPU full-N^2 and "
            "windowed baselines. %zu accelerators.\n",
            array);

    const ModelConfig model = bertLarge();
    QkvGenerator gen(model, 77);
    Rng rng(9);
    auto hasher = std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng, true));
    Accelerator accel(SimConfig::paperConfig(), hasher, kThetaBias64);
    const BlockedSelfAttention blocked({window});
    const GpuModel gpu;

    log.add("\n%-7s %14s %14s %14s %12s %12s\n", "N", "GPU full(us)",
            "GPU windowed", "ELSA windowed", "vs full", "candidates");
    // --quick stops at N = 1024.
    const std::size_t lengths[] = {512, 1024, 2048, 4096};
    const std::size_t num_lengths = ctx.quick ? 2 : std::size(lengths);
    obs::RunManifest manifest = makeManifest("ext_long_sequence", ctx);
    manifest.set("config", "window", window);
    manifest.set("config", "num_accelerators", array);
    manifest.set("config", "max_n", lengths[num_lengths - 1]);
    for (std::size_t i = 0; i < num_lengths; ++i) {
        const std::size_t n = lengths[i];
        // Generate the long sequence as window-sized independent
        // segments (each its own attention context).
        const AttentionInput train = gen.generate(10, 0, n, 100);
        const AttentionInput input = gen.generate(10, 0, n, 0);

        std::vector<ThresholdLearner> learners;
        blocked.learnThresholds(train, 1.0, learners);

        double elsa_cycles = 0.0;
        double fraction_sum = 0.0;
        const auto ranges = blocked.windows(n);
        for (std::size_t w = 0; w < ranges.size(); ++w) {
            const RunResult run = accel.run(
                BlockedSelfAttention::slice(input, ranges[w].first,
                                            ranges[w].second),
                learners[w].threshold());
            elsa_cycles += static_cast<double>(run.totalCycles());
            fraction_sum += run.candidateFraction();
        }
        // Windows distribute across the accelerator array.
        const double elsa_us =
            elsa_cycles / static_cast<double>(array) / 1e3;

        const double gpu_full_us =
            gpu.attentionSecondsPerOp(model, n) * 1e6;
        const double gpu_windowed_us =
            static_cast<double>(ranges.size())
            * gpu.attentionSecondsPerOp(model, window) * 1e6;

        log.add("%-7zu %14.1f %14.1f %14.1f %11.1fx %11.1f%%\n", n,
                gpu_full_us, gpu_windowed_us, elsa_us,
                gpu_full_us / elsa_us,
                100.0 * fraction_sum
                    / static_cast<double>(ranges.size()));
        manifest.set("metrics",
                     "speedup_vs_gpu_full_n" + std::to_string(n),
                     gpu_full_us / elsa_us);
    }

    log.add("\nFull N^2 attention grows quadratically; windowing "
            "makes it linear in N, and ELSA\ntakes another "
            "order of magnitude off each window -- together they "
            "make 4096-token\nattention cheaper than 512-token "
            "attention on the GPU.\n");
    return manifest;
}

using SuiteFn = obs::RunManifest (*)(const SuiteContext&, EntryLog&);

struct SuiteEntry
{
    const char* name;
    const char* description;
    SuiteFn run;
    /**
     * The workloads whose mode-evaluation results the entry reads
     * (SuiteContext::modesOf), or nullptr if it reads none.
     */
    std::vector<WorkloadSpec> (*workloads)(bool quick);
};

const SuiteEntry kSuite[] = {
    {"fig02_attention_portion",
     "Fig. 2: attention share of GPU model runtime", runFig02, nullptr},
    {"fig10_accuracy_vs_p",
     "Fig. 10: candidate portion and accuracy vs hyperparameter p",
     runFig10, figureWorkloads},
    {"fig11a_throughput",
     "Fig. 11(a): throughput vs GPU per workload and mode", runFig11a,
     figureWorkloads},
    {"fig11b_latency",
     "Fig. 11(b): latency vs ideal accelerator, preprocessing share",
     runFig11b, figureWorkloads},
    {"fig13a_energy_efficiency",
     "Fig. 13(a): energy efficiency vs GPU per workload and mode",
     runFig13a, figureWorkloads},
    {"fig13b_energy_breakdown",
     "Fig. 13(b): per-module energy per op and approximation share",
     runFig13b, figureWorkloads},
    {"table1_area_power",
     "Table I: area / peak power / SRAM sizings", runTable1, nullptr},
    {"disc_a3_comparison",
     "Section V-E: comparison with the A3 accelerator",
     runA3Comparison, bertSquad},
    {"disc_tpu_comparison",
     "Section V-E: comparison with Google Cloud TPUv2 (ALBERT)",
     runTpuComparison, tpuWorkloads},
    {"bottleneck_attribution",
     "Stall-cause attribution: the limiting pipeline module",
     runBottleneck, bertSquad},
    {"ablation_hash_cost",
     "Ablation: hash computation cost (dense vs Kronecker)",
     runHashCost, nullptr},
    {"ablation_srp_quality",
     "Ablation: SRP estimator quality and theta_bias", runSrpQuality,
     nullptr},
    {"ablation_pipeline_dse",
     "Ablation: pipeline design space (P_a, P_c, m_h, m_o)",
     runPipelineDse, nullptr},
    {"ablation_k_sweep",
     "Ablation: hash width k (end-to-end candidate selection)",
     runKSweep, nullptr},
    {"ablation_topk_vs_threshold",
     "Ablation: threshold vs sorted top-k candidate selection",
     runTopkVsThreshold, nullptr},
    {"ext_long_sequence", "Extension: windowed ELSA on long sequences",
     runLongSequence, nullptr},
    {"ext_fault_sweep",
     "Extension: fidelity/recovery under SRAM bit flips, "
     "BER x protection",
     runFaultSweep, nullptr},
    {"serve_overload",
     "Serving engine: offered load x policy, goodput/shedding/p99 "
     "vs SLO",
     runServeOverload, nullptr},
    {"kernel_throughput",
     "Measured SIMD hot-path kernel throughput "
     "(machine-dependent; wide tolerance)",
     runKernelThroughput, nullptr},
};

std::vector<std::string>
splitList(const std::string& csv)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::string item =
            csv.substr(start, comma == std::string::npos
                                  ? std::string::npos
                                  : comma - start);
        if (!item.empty()) {
            out.push_back(item);
        }
        if (comma == std::string::npos) {
            break;
        }
        start = comma + 1;
    }
    return out;
}

const SuiteEntry&
findEntry(const std::string& name)
{
    for (const SuiteEntry& entry : kSuite) {
        if (name == entry.name) {
            return entry;
        }
    }
    std::string known;
    for (const SuiteEntry& entry : kSuite) {
        known += "\n  ";
        known += entry.name;
    }
    ELSA_FATAL("unknown bench '" << name << "'; known benches:"
                                 << known);
}

/**
 * Assemble the BENCH_RESULTS.json envelope. The per-bench manifests
 * are embedded verbatim (they already are single-line JSON), so the
 * file carries exactly what the BENCH_JSON lines carried.
 */
std::string
assembleResults(
    bool quick,
    const std::vector<std::pair<std::string, std::string>>& benches)
{
    std::string out = "{\"schema_version\":1,"
                      "\"suite\":\"elsa_bench\",\"quick\":";
    out += quick ? "true" : "false";
    const obs::BuildInfo build = obs::buildInfo();
    out += ",\"build\":{\"git_describe\":";
    out += obs::jsonQuote(build.git_describe);
    out += ",\"build_type\":";
    out += obs::jsonQuote(build.build_type);
    out += ",\"compiler\":";
    out += obs::jsonQuote(build.compiler);
    out += "},\"benches\":{";
    bool first = true;
    for (const auto& [name, json] : benches) {
        if (!first) {
            out += ',';
        }
        first = false;
        out += obs::jsonQuote(name);
        out += ':';
        out += json;
    }
    out += "}}";
    // Well-formedness is part of the contract; fail here rather than
    // in the comparison tooling.
    obs::parseJson(out);
    return out;
}

/**
 * --report <dir>: one representative instrumented accelerator run
 * (stall attribution, per-query trace, cycle-domain telemetry, and
 * per-query spans all on) dumped as an observability bundle --
 * stats.json, stats.csv, telemetry.json, spans.json, manifest.json
 * -- in the same schema as `quickstart --obs-dir`
 * (docs/OBSERVABILITY.md): both call writeObsBundle() in
 * sim/report.cc, so the layouts cannot drift apart and
 * scripts/make_report.py can render either into one self-contained
 * HTML run report. Deterministic: fixed seeds, single invocation.
 */
void
writeReportBundle(const SuiteContext& ctx, const std::string& dir)
{
    const WorkloadSpec spec = bertSquad(ctx.quick).front();
    const std::size_t n = ctx.quick ? 128 : 256;
    const QkvGenerator generator(spec.model, /*master_seed=*/7);
    const AttentionInput input =
        generator.generate(/*layer=*/0, /*head=*/0, n,
                           /*input_id=*/0);

    Elsa engine(spec.model.head_dim);
    const double threshold =
        engine.learnThreshold(input.query, input.key, /*p=*/2.0);

    SimConfig config = ctx.config.sim;
    config.collect_query_trace = true;
    config.attribute_stalls = true;
    config.telemetry.enabled = true;
    config.query_spans.enabled = true;

    obs::StatsRegistry registry;
    Accelerator accel(config, engine.hasher(), engine.thetaBias());
    accel.attachStats(&registry, "sim.accel0");
    const RunResult result = accel.run(input, threshold);

    ELSA_CHECK(result.telemetry != nullptr,
               "telemetry-enabled run produced no time series");
    ELSA_CHECK(result.spans != nullptr,
               "span-enabled run produced no span set");

    obs::RunManifest manifest("bench_report");
    manifest.addBuildInfo();
    manifest.set("config", "workload", spec.label());
    manifest.set("config", "d", config.d);
    manifest.set("config", "k", config.k);
    manifest.set("config", "pa", config.pa);
    manifest.set("config", "pc", config.pc);
    manifest.set("config", "n", input.n());
    manifest.set("config", "threshold", threshold);
    manifest.set("config", "quick", ctx.quick);
    writeObsBundle(dir, registry, result, config, manifest,
                   "sim.accel0");

    std::printf("\nreport bundle: %s/{stats.json, stats.csv, "
                "telemetry.json, spans.json, manifest.json}\n"
                "explain the tail with: "
                "python3 scripts/explain_tail.py %s\n"
                "render with: python3 scripts/make_report.py %s\n",
                dir.c_str(), dir.c_str(), dir.c_str());
}

} // namespace
} // namespace elsa::bench

namespace {

int
runSuite(int argc, char** argv)
{
    using namespace elsa;
    using namespace elsa::bench;
    const ArgParser args(argc, argv,
                         {"quick", "bench", "list", "out",
                          "threads", "report"});

    if (args.has("list")) {
        for (const SuiteEntry& entry : kSuite) {
            std::printf("%-26s %s\n", entry.name, entry.description);
        }
        return 0;
    }

    std::vector<const SuiteEntry*> selected;
    if (args.has("bench")) {
        for (const std::string& name :
             splitList(args.get("bench"))) {
            selected.push_back(&findEntry(name));
        }
    } else {
        for (const SuiteEntry& entry : kSuite) {
            selected.push_back(&entry);
        }
    }
    ELSA_CHECK(!selected.empty(), "no benches selected");

    const std::int64_t threads_flag = args.getInt("threads", 0);
    ELSA_CHECK(threads_flag >= 0,
               "--threads must be >= 0, got " << threads_flag);
    if (threads_flag > 0) {
        ThreadPool::setGlobalThreads(
            static_cast<std::size_t>(threads_flag));
    }

    const bool quick = args.has("quick");
    printHeader("elsa_bench: benchmark suite driver",
                quick ? "quick configuration (reduced workloads and "
                        "evaluation depth)"
                      : "full evaluation configuration");
    std::printf("threads: %zu (hardware concurrency %u)\n",
                ThreadPool::global().threads(),
                std::thread::hardware_concurrency());

    SuiteContext ctx = makeContext(quick);
    // Every workload a selected entry reads, each once.
    std::vector<WorkloadSpec> mode_workloads;
    for (const SuiteEntry* entry : selected) {
        if (entry->workloads == nullptr) {
            continue;
        }
        for (const WorkloadSpec& spec : entry->workloads(quick)) {
            if (std::none_of(mode_workloads.begin(),
                             mode_workloads.end(),
                             [&](const WorkloadSpec& s) {
                                 return s.label() == spec.label();
                             })) {
                mode_workloads.push_back(spec);
            }
        }
    }
    if (!mode_workloads.empty()) {
        evaluateModes(ctx, mode_workloads);
    }

    // Independent entries fan out over the pool and only read the
    // context; each captures its output and reports its manifest
    // (with its wall time) into its own slot, and everything is
    // printed / assembled serially in suite order below. Simulated
    // metrics are identical at any thread count; only the advisory
    // wall_seconds values move.
    struct EntryResult
    {
        std::string json;
        std::string log;
    };
    const std::vector<EntryResult> entry_results =
        ThreadPool::global().parallelMap<EntryResult>(
            selected.size(), [&](std::size_t i) {
                EntryLog log;
                const Stopwatch watch;
                obs::RunManifest manifest = selected[i]->run(ctx, log);
                manifest.set("metrics", "wall_seconds", watch.seconds());
                return EntryResult{manifest.toJson(/*pretty=*/false),
                                   log.text()};
            });

    std::vector<std::pair<std::string, std::string>> results;
    for (std::size_t i = 0; i < selected.size(); ++i) {
        std::printf("\n[%s] %s\n", selected[i]->name,
                    selected[i]->description);
        std::fputs(entry_results[i].log.c_str(), stdout);
        // The emitBenchSummary() format (bench_common.h): the
        // manifest was serialized on the worker, so print the line
        // from the stored JSON here.
        std::printf("BENCH_JSON %s\n", entry_results[i].json.c_str());
        std::fflush(stdout);
        results.emplace_back(selected[i]->name, entry_results[i].json);
    }

    const std::string out_path = args.get("out",
                                          "BENCH_RESULTS.json");
    const std::string envelope = assembleResults(quick, results);
    {
        std::ofstream os(out_path);
        ELSA_CHECK(os.good(), "cannot open " << out_path);
        os << envelope << '\n';
    }
    std::printf("\nwrote %s (%zu benches)\n", out_path.c_str(),
                results.size());
    if (args.has("report")) {
        writeReportBundle(ctx, args.get("report"));
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    // Configuration and I/O problems (bad flags, unwritable --out,
    // inconsistent configs) surface as one actionable line, not an
    // uncaught-exception abort.
    try {
        return runSuite(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
