/**
 * @file
 * Quickstart: run ELSA approximate self-attention on random data.
 *
 * Demonstrates the three-step API:
 *   1. build an Elsa engine for your embedding dimension;
 *   2. learn a candidate-selection threshold for a degree of
 *      approximation p (Section III-E of the paper);
 *   3. run approximate attention and compare against the exact
 *      result.
 *
 * With --obs-dir <dir> it additionally demonstrates the
 * observability layer: one cycle-level simulator run with stats and
 * pipeline tracing enabled, dumping
 *   <dir>/stats.json     stats registry (per-module active cycles...)
 *   <dir>/stats.csv      the same registry, flat CSV
 *   <dir>/trace.json     Chrome trace_event JSON (open in Perfetto)
 *   <dir>/telemetry.json binned cycle-domain time series + digests
 *   <dir>/spans.json     per-query lifecycle spans + tail exemplars
 *   <dir>/manifest.json  run manifest (build, config, utilization)
 * scripts/check_metrics.py validates these against the schema in
 * docs/OBSERVABILITY.md, scripts/explain_tail.py turns spans.json
 * into a ranked tail root-cause report, and scripts/make_report.py
 * renders the whole bundle as one self-contained HTML report.
 *
 * With --serve (requires --obs-dir) it instead demonstrates the
 * serving engine (docs/SERVING.md): the canonical 2x-overload
 * scenario with the graceful-degradation ladder enabled, dumping
 *   <dir>/serve.json          full request accounting + SLO metrics
 *   <dir>/serve_stats.json    serve.* stats registry
 *   <dir>/serve_stats.csv     the same registry, flat CSV
 *   <dir>/serve_manifest.json run manifest with serve metrics
 * which scripts/check_metrics.py --serve validates (conservation
 * invariants, digest counts, dwell accounting).
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "attention/metrics.h"
#include "common/args.h"
#include "common/rng.h"
#include "elsa/elsa.h"
#include "lsh/calibration.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/report.h"
#include "serve/scenario.h"
#include "sim/accelerator.h"
#include "sim/report.h"
#include "tensor/ops.h"
#include "workload/generator.h"
#include "workload/model.h"

namespace {

/**
 * Simulate one attention op with full observability on and dump the
 * stats / trace / manifest files described in the file comment.
 */
void
runObservabilityDemo(const elsa::Elsa& engine,
                     const elsa::AttentionInput& input,
                     double threshold, const std::string& dir)
{
    using namespace elsa;
    namespace fs = std::filesystem;
    fs::create_directories(dir);

    SimConfig config = SimConfig::paperConfig();
    config.collect_query_trace = true;
    config.attribute_stalls = true;
    config.telemetry.enabled = true;
    config.query_spans.enabled = true;

    obs::StatsRegistry& registry = obs::globalRegistry();
    obs::TraceWriter trace(dir + "/trace.json");

    Accelerator accel(config, engine.hasher(), engine.thetaBias());
    accel.attachStats(&registry, "sim.accel0");
    accel.attachTrace(&trace, /*pid=*/0);
    const RunResult result = accel.run(input, threshold);
    trace.close();

    obs::RunManifest manifest("quickstart");
    manifest.addBuildInfo();
    manifest.set("config", "d", config.d);
    manifest.set("config", "k", config.k);
    manifest.set("config", "pa", config.pa);
    manifest.set("config", "pc", config.pc);
    manifest.set("config", "n", input.n());
    manifest.set("config", "threshold", threshold);
    manifest.set("config", "collect_query_trace",
                 config.collect_query_trace);
    const BottleneckReport bottleneck = writeObsBundle(
        dir, registry, result, config, manifest, "sim.accel0");

    std::printf("\nBottleneck attribution "
                "(SimConfig::attribute_stalls):\n%s",
                formatBottleneckReport(bottleneck).c_str());
    std::printf("\nObservability dump: %s/{stats.json, stats.csv, "
                "trace.json, telemetry.json, spans.json, "
                "manifest.json}\n",
                dir.c_str());
    std::printf("Open %s/trace.json in https://ui.perfetto.dev or "
                "chrome://tracing.\n",
                dir.c_str());
    std::printf("Explain the latency tail with: "
                "python3 scripts/explain_tail.py %s\n",
                dir.c_str());
    std::printf("Render an HTML run report with: "
                "python3 scripts/make_report.py %s\n",
                dir.c_str());
}

/**
 * Run the canonical 2x-overload serving scenario with the
 * degradation ladder on and dump the serve artifact bundle.
 */
void
runServeDemo(const std::string& dir)
{
    using namespace elsa;
    namespace fs = std::filesystem;
    fs::create_directories(dir);

    const ServeConfig config =
        overloadScenario(/*load_multiplier=*/2.0, /*degraded=*/true,
                         /*quick=*/true);
    const ServeEngine engine(config);
    const ServeResult result = engine.run();

    obs::StatsRegistry registry;
    publishServeStats(result, registry);

    std::ofstream serve_json(dir + "/serve.json");
    writeServeJson(serve_json, config, result);
    std::ofstream stats_json(dir + "/serve_stats.json");
    registry.dumpJson(stats_json);
    std::ofstream stats_csv(dir + "/serve_stats.csv");
    registry.dumpCsv(stats_csv);

    obs::RunManifest manifest("quickstart_serve");
    manifest.addBuildInfo();
    manifest.set("config", "load_multiplier", 2.0);
    manifest.set("config", "degraded", true);
    manifest.set("config", "num_accelerators",
                 config.num_accelerators);
    manifest.set("config", "num_requests", config.num_requests);
    manifest.set("config", "deadline_cycles",
                 static_cast<std::size_t>(config.deadline_cycles));
    manifest.set("metrics", "goodput_qps", result.goodput_qps);
    manifest.set("metrics", "shed_rate", result.shed_rate);
    manifest.set("metrics", "deadline_miss_rate",
                 result.deadline_miss_rate);
    manifest.set("metrics", "completed",
                 static_cast<std::size_t>(result.completed));
    std::ofstream manifest_json(dir + "/serve_manifest.json");
    manifest.writeJson(manifest_json);

    std::printf("Serving demo (docs/SERVING.md): 2x overload, "
                "degradation ladder on.\n");
    std::printf("  offered=%llu completed=%llu shed=%llu "
                "failed=%llu rejected=%llu\n",
                static_cast<unsigned long long>(result.offered),
                static_cast<unsigned long long>(result.completed),
                static_cast<unsigned long long>(result.shed),
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.rejected));
    std::printf("  goodput=%.0f req/s  shed_rate=%.3f  "
                "deadline_miss_rate=%.3f\n",
                result.goodput_qps, result.shed_rate,
                result.deadline_miss_rate);
    std::printf("Serve dump: %s/{serve.json, serve_stats.json, "
                "serve_stats.csv, serve_manifest.json}\n",
                dir.c_str());
    std::printf("Validate it with: python3 scripts/check_metrics.py "
                "--serve %s\n",
                dir.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace elsa;
    const ArgParser args(argc, argv, {"obs-dir", "serve"});

    if (args.has("serve")) {
        if (!args.has("obs-dir")) {
            std::fprintf(stderr,
                         "error: --serve requires --obs-dir <dir>\n");
            return 1;
        }
        runServeDemo(args.get("obs-dir"));
        return 0;
    }

    constexpr std::size_t n = 256; // input entities (e.g. tokens)
    constexpr std::size_t d = 64;  // embedding dimension

    // Generate a realistic attention workload: a BERT-like sublayer
    // where each query genuinely attends a handful of keys.
    QkvGenerator generator(bertLarge(), /*master_seed=*/7);
    const AttentionInput input = generator.generate(/*layer=*/11,
                                                    /*head=*/3, n,
                                                    /*input_id=*/0);

    Elsa engine(d);
    std::printf("ELSA quickstart: n = %zu, d = %zu, k = %zu bits, "
                "theta_bias = %.3f\n",
                n, d, engine.hashBits(), engine.thetaBias());

    // Exact reference.
    const Matrix exact = engine.attention(input.query, input.key,
                                          input.value);

    std::printf("\n%6s %12s %14s %12s %12s\n", "p", "threshold",
                "candidates", "mass recall", "out. rel.err");
    for (const double p : {0.5, 1.0, 2.0, 4.0, 8.0}) {
        const double threshold =
            engine.learnThreshold(input.query, input.key, p);
        std::vector<std::vector<std::uint32_t>> candidates;
        const ApproxAttentionResult result = engine.approxAttention(
            input.query, input.key, input.value, threshold, &candidates);
        const FidelityReport fidelity =
            measureFidelity(input, candidates, result.output);
        const double fraction =
            result.stats.candidateFraction(n);
        const double err = frobeniusDiff(exact, result.output)
                           / frobeniusNorm(exact);
        std::printf("%6.1f %12.4f %13.1f%% %12.4f %12.5f\n", p,
                    threshold, 100.0 * fraction, fidelity.mass_recall,
                    err);
    }

    std::printf("\nLower p = conservative (more candidates, more "
                "accurate);\nhigher p = aggressive (fewer candidates, "
                "faster on the accelerator).\n");

    if (args.has("obs-dir")) {
        const double threshold =
            engine.learnThreshold(input.query, input.key, 2.0);
        runObservabilityDemo(engine, input, threshold,
                             args.get("obs-dir"));
    }
    return 0;
}
