/**
 * @file
 * Determinism-under-parallelism regression tests: every reported
 * number -- ModeReport metrics, stall attribution, the stats-registry
 * dump, the merged trace -- must be bit-identical whether the
 * simulation ran on 1, 2, or 8 threads (the ordered-reduction
 * contract of docs/PARALLELISM.md).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "elsa/system.h"
#include "lsh/srp.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sim/array.h"
#include "sim/report.h"
#include "sim/stall.h"
#include "workload/generator.h"
#include "workload/model.h"

namespace elsa {
namespace {

SystemConfig
tinyConfig()
{
    SystemConfig config;
    config.eval.max_sublayers = 2;
    config.eval.num_eval_inputs = 2;
    config.eval.num_train_inputs = 2;
    config.sim_sublayers = 2;
    config.sim_inputs = 2;
    return config;
}

const std::size_t kThreadCounts[] = {1, 2, 8};

/** Restores the default global pool size when a test exits. */
struct GlobalThreadsGuard
{
    explicit GlobalThreadsGuard(std::size_t n)
    {
        ThreadPool::setGlobalThreads(n);
    }
    ~GlobalThreadsGuard() { ThreadPool::setGlobalThreads(0); }
};

void
expectReportsIdentical(const ModeReport& a, const ModeReport& b)
{
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_DOUBLE_EQ(a.p, b.p);
    EXPECT_DOUBLE_EQ(a.candidate_fraction, b.candidate_fraction);
    EXPECT_DOUBLE_EQ(a.estimated_loss_pct, b.estimated_loss_pct);
    EXPECT_DOUBLE_EQ(a.elsa_ops_per_second, b.elsa_ops_per_second);
    EXPECT_DOUBLE_EQ(a.elsa_latency_s, b.elsa_latency_s);
    EXPECT_DOUBLE_EQ(a.preprocess_fraction, b.preprocess_fraction);
    EXPECT_DOUBLE_EQ(a.gpu_ops_per_second, b.gpu_ops_per_second);
    EXPECT_DOUBLE_EQ(a.throughput_vs_gpu, b.throughput_vs_gpu);
    EXPECT_DOUBLE_EQ(a.latency_vs_ideal, b.latency_vs_ideal);
    EXPECT_DOUBLE_EQ(a.elsa_energy_per_op_uj,
                     b.elsa_energy_per_op_uj);
    EXPECT_DOUBLE_EQ(a.energy_eff_vs_gpu, b.energy_eff_vs_gpu);
    EXPECT_EQ(a.simulated_cycles, b.simulated_cycles);
    ASSERT_EQ(a.energy_breakdown.module_uj.size(),
              b.energy_breakdown.module_uj.size());
    for (std::size_t i = 0; i < a.energy_breakdown.module_uj.size();
         ++i) {
        EXPECT_DOUBLE_EQ(a.energy_breakdown.module_uj[i],
                         b.energy_breakdown.module_uj[i]);
    }
    for (const AttributedModule module : allAttributedModules()) {
        for (const StallCause cause : allStallCauses()) {
            EXPECT_EQ(a.stall_breakdown.get(module, cause),
                      b.stall_breakdown.get(module, cause));
        }
    }
}

TEST(ParallelDeterminismTest, ModeReportsIdenticalAtAnyThreadCount)
{
    std::vector<std::vector<ModeReport>> per_count;
    for (const std::size_t threads : kThreadCounts) {
        GlobalThreadsGuard guard(threads);
        SystemConfig config = tinyConfig();
        config.sim.attribute_stalls = true;
        ElsaSystem system({bertLarge(), squadV11()}, config);
        per_count.push_back(system.evaluateAllModes());
    }
    for (std::size_t c = 1; c < per_count.size(); ++c) {
        ASSERT_EQ(per_count[c].size(), per_count[0].size());
        for (std::size_t m = 0; m < per_count[0].size(); ++m) {
            SCOPED_TRACE("threads=" +
                         std::to_string(kThreadCounts[c]) +
                         " mode=" + std::to_string(m));
            expectReportsIdentical(per_count[0][m],
                                   per_count[c][m]);
        }
    }
}

TEST(ParallelDeterminismTest, StallConservationHoldsWhenParallel)
{
    GlobalThreadsGuard guard(8);
    SystemConfig config = tinyConfig();
    config.sim.attribute_stalls = true;
    ElsaSystem system({sasRec(), movieLens1M()}, config);
    const ModeReport base = system.evaluateMode(ApproxMode::kBase);
    EXPECT_FALSE(base.stall_breakdown.empty());
    EXPECT_TRUE(base.stall_breakdown.conserves(base.simulated_cycles,
                                               config.sim));
}

TEST(ParallelDeterminismTest, StatsDumpIdenticalAtAnyThreadCount)
{
    std::vector<std::string> dumps;
    for (const std::size_t threads : kThreadCounts) {
        GlobalThreadsGuard guard(threads);
        SystemConfig config = tinyConfig();
        config.sim.attribute_stalls = true;
        ElsaSystem system({bertLarge(), squadV11()}, config);
        obs::StatsRegistry registry;
        system.attachObservability(&registry, nullptr);
        system.evaluateMode(ApproxMode::kModerate);
        std::ostringstream oss;
        registry.dumpJson(oss);
        dumps.push_back(oss.str());
    }
    for (std::size_t c = 1; c < dumps.size(); ++c) {
        EXPECT_EQ(dumps[0], dumps[c])
            << "stats dump differs at threads="
            << kThreadCounts[c];
    }
}

TEST(ParallelDeterminismTest, TelemetryJsonIdenticalAtAnyThreadCount)
{
    // The merged telemetry.json document -- bins, digests, energy --
    // must be byte-identical no matter how many worker threads the
    // AcceleratorArray batch fanned out over.
    SimConfig config = SimConfig::paperConfig();
    config.attribute_stalls = true;
    config.telemetry.enabled = true;
    config.telemetry.bin_width_cycles = 64;

    Rng rng(0x7D1);
    auto hasher = std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng));
    QkvGenerator gen(bertLarge(), 99);
    const AttentionInput in0 = gen.generate(0, 0, 40, 0);
    const AttentionInput in1 = gen.generate(1, 0, 24, 1);
    const AttentionInput in2 = gen.generate(2, 1, 56, 2);

    std::vector<std::string> documents;
    for (const std::size_t threads : kThreadCounts) {
        GlobalThreadsGuard guard(threads);
        AcceleratorArray array(config, 3, hasher, 0.0);
        obs::StatsRegistry registry;
        array.attachObservability(&registry, nullptr);
        const ArrayRunResult result =
            array.run({&in0, &in1, &in2}, {0.0, 0.0, 0.0});
        ASSERT_NE(result.telemetry, nullptr);
        std::ostringstream oss;
        writeTelemetryJson(oss, *result.telemetry, registry,
                           "sim.accel0", config);
        documents.push_back(oss.str());
    }
    EXPECT_GT(documents[0].size(), 2u);
    for (std::size_t c = 1; c < documents.size(); ++c) {
        EXPECT_EQ(documents[0], documents[c])
            << "telemetry.json differs at threads="
            << kThreadCounts[c];
    }
}

TEST(ParallelDeterminismTest, SpansJsonIdenticalAtAnyThreadCount)
{
    // The merged spans.json document -- exemplars, totals, digests,
    // invocation summaries -- must be byte-identical no matter how
    // many worker threads the AcceleratorArray batch fanned out over
    // (the invocation-order merge contract of obs/span.h).
    SimConfig config = SimConfig::paperConfig();
    config.attribute_stalls = true;
    config.query_spans.enabled = true;

    Rng rng(0x7D1);
    auto hasher = std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng));
    QkvGenerator gen(bertLarge(), 99);
    const AttentionInput in0 = gen.generate(0, 0, 40, 0);
    const AttentionInput in1 = gen.generate(1, 0, 24, 1);
    const AttentionInput in2 = gen.generate(2, 1, 56, 2);

    std::vector<std::string> documents;
    for (const std::size_t threads : kThreadCounts) {
        GlobalThreadsGuard guard(threads);
        AcceleratorArray array(config, 3, hasher, 0.0);
        const ArrayRunResult result =
            array.run({&in0, &in1, &in2}, {0.0, 0.0, 0.0});
        ASSERT_NE(result.spans, nullptr);
        std::ostringstream oss;
        writeSpansJson(oss, *result.spans, "sim.accel0", config);
        documents.push_back(oss.str());
    }
    EXPECT_GT(documents[0].size(), 2u);
    for (std::size_t c = 1; c < documents.size(); ++c) {
        EXPECT_EQ(documents[0], documents[c])
            << "spans.json differs at threads=" << kThreadCounts[c];
    }
}

TEST(ParallelDeterminismTest, TraceIdenticalAtAnyThreadCount)
{
    std::vector<std::string> traces;
    for (const std::size_t threads : kThreadCounts) {
        GlobalThreadsGuard guard(threads);
        SystemConfig config = tinyConfig();
        ElsaSystem system({sasRec(), movieLens1M()}, config);
        obs::TraceWriter writer = obs::TraceWriter::memoryBuffer();
        system.attachObservability(nullptr, &writer);
        system.evaluateMode(ApproxMode::kBase);
        std::ostringstream oss;
        writer.writeJson(oss);
        traces.push_back(oss.str());
        writer.close();
    }
    EXPECT_GT(traces[0].size(), 2u);
    for (std::size_t c = 1; c < traces.size(); ++c) {
        EXPECT_EQ(traces[0], traces[c])
            << "trace differs at threads=" << kThreadCounts[c];
    }
}

} // namespace
} // namespace elsa
