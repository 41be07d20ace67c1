/**
 * @file
 * Tests of the stall-cause attribution layer (sim/stall.h): the
 * lane-cycle conservation invariant across random pipeline
 * configurations, published counter consistency, clean registry
 * resets, non-perturbation of simulated results by every subset of
 * the run's views (attribution, telemetry, spans, trace), and the
 * bottleneck report's claim cross-checked by perturbing module
 * throughputs.
 *
 * Conservation is asserted here in ALL build types -- the in-run
 * ELSA_DASSERT compiles out under the default Release build.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "common/rng.h"
#include "elsa/system.h"
#include "lsh/calibration.h"
#include "lsh/srp.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/accelerator.h"
#include "sim/candidate_stage.h"
#include "sim/report.h"
#include "sim/stall.h"
#include "workload/generator.h"
#include "workload/model.h"

namespace elsa {
namespace {

std::shared_ptr<const SrpHasher>
makeHasher(std::uint64_t seed = 2024)
{
    Rng rng(seed);
    return std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng));
}

AttentionInput
makeInput(std::size_t n, std::uint64_t seed)
{
    QkvGenerator gen(bertLarge(), seed);
    return gen.generate(11, 3, n, 0);
}

void
expectConserves(const RunResult& result, const SimConfig& config,
                const std::string& what)
{
    EXPECT_TRUE(result.stall_breakdown.conserves(result.totalCycles(),
                                                 config))
        << what << ": cause sums do not equal lanes x "
        << result.totalCycles() << " cycles";
    for (const AttributedModule module : allAttributedModules()) {
        EXPECT_EQ(result.stall_breakdown.laneCycles(module),
                  attributedModuleLanes(module, config)
                      * result.totalCycles())
            << what << ": " << attributedModuleName(module);
    }
}

// --- Conservation invariant -----------------------------------------

TEST(StallAttributionTest, ConservesAcrossRandomConfigs)
{
    Rng rng(0xC0453);
    const std::size_t pa_choices[] = {1, 2, 4, 8};
    const std::size_t pc_choices[] = {1, 2, 4, 8, 16};
    const std::size_t mh_choices[] = {64, 128, 256};
    const std::size_t mo_choices[] = {4, 16, 64};
    const std::size_t qd_choices[] = {1, 2, 4};
    const std::size_t lat_choices[] = {0, 1, 2, 5};
    // n = 1, 5 and 13 leave banks empty for pa > 1.
    const std::size_t n_choices[] = {1, 5, 13, 16, 48, 96};

    auto hasher = makeHasher();
    for (int trial = 0; trial < 24; ++trial) {
        SimConfig config = SimConfig::paperConfig();
        config.pa = pa_choices[rng.uniformInt(4)];
        config.pc = pc_choices[rng.uniformInt(5)];
        config.mh = mh_choices[rng.uniformInt(3)];
        config.mo = mo_choices[rng.uniformInt(3)];
        config.queue_depth = qd_choices[rng.uniformInt(3)];
        config.attention_pipeline_latency =
            lat_choices[rng.uniformInt(4)];
        config.attribute_stalls = true;
        ASSERT_NO_THROW(config.validate());

        const std::size_t n =
            n_choices[rng.uniformInt(std::size(n_choices))];
        const AttentionInput input = makeInput(n, 100 + trial);
        // Thresholds spanning all-candidate, typical, and sparse
        // selection regimes.
        const double thresholds[] = {
            -std::numeric_limits<double>::infinity(), 0.0, 0.3, 0.8};
        const double threshold = thresholds[rng.uniformInt(4)];

        Accelerator accel(config, hasher, kThetaBias64);
        const RunResult result = accel.run(input, threshold);
        std::ostringstream what;
        what << "trial " << trial << " (pa=" << config.pa
             << " pc=" << config.pc << " mh=" << config.mh
             << " mo=" << config.mo << " qd=" << config.queue_depth
             << " lat=" << config.attention_pipeline_latency
             << " n=" << n << " t=" << threshold << ")";
        expectConserves(result, config, what.str());
    }
}

TEST(StallAttributionTest, ConservesWithFallbackQueries)
{
    // +inf threshold selects nothing: every query takes the
    // fallback path.
    SimConfig config = SimConfig::paperConfig();
    config.attribute_stalls = true;
    Accelerator accel(config, makeHasher(), kThetaBias64);
    const RunResult result = accel.run(
        makeInput(48, 7), std::numeric_limits<double>::infinity());
    expectConserves(result, config, "all-fallback run");
}

TEST(StallAttributionTest, BreakdownEmptyWhenAttributionOff)
{
    const SimConfig config = SimConfig::paperConfig();
    Accelerator accel(config, makeHasher(), kThetaBias64);
    const RunResult result = accel.run(makeInput(48, 7), 0.3);
    EXPECT_TRUE(result.stall_breakdown.empty());
    EXPECT_FALSE(computeBottleneck(result).valid);
}

TEST(StallAttributionTest, BankTraceModuleCyclesConserve)
{
    // Per bank-cycle each candidate module is in exactly one state,
    // so scan + stall + drained == P_c x cycles, exactly.
    SimConfig config = SimConfig::paperConfig();
    config.queue_depth = 1; // Force conflicts.
    Rng rng(11);
    for (const std::size_t keys : {1u, 7u, 16u, 64u, 128u}) {
        std::vector<bool> hits(keys);
        for (std::size_t i = 0; i < keys; ++i) {
            hits[i] = rng.uniformInt(2) == 0;
        }
        const BankQueryTrace trace = simulateBankQuery(hits, config);
        EXPECT_EQ(trace.scan_cycles + trace.stall_cycles
                      + trace.drained_module_cycles,
                  config.pc * trace.cycles)
            << keys << " keys";
    }
}

// --- Published counters ---------------------------------------------

TEST(StallAttributionTest, PublishedCountersSumToLaneCyclesAndReset)
{
    SimConfig config = SimConfig::paperConfig();
    config.attribute_stalls = true;
    Accelerator accel(config, makeHasher(), kThetaBias64);
    const RunResult result = accel.run(makeInput(64, 3), 0.3);

    obs::StatsRegistry registry;
    publishRunStats(result, registry, "run");
    for (const AttributedModule module : allAttributedModules()) {
        const std::string stem = std::string("run.stall.")
                                 + attributedModuleMetricName(module);
        double cause_sum = 0.0;
        for (const StallCause cause : allStallCauses()) {
            // Without fault injection the fault_retry counter is
            // deliberately unpublished (dumps stay byte-identical to
            // a build without the fault layer); its contribution to
            // the conservation sum is identically zero.
            if (cause == StallCause::kFaultRetry) {
                continue;
            }
            cause_sum += registry.counterValue(
                stem + "." + stallCauseMetricName(cause));
        }
        const double lane_cycles =
            registry.counterValue(stem + ".lane_cycles");
        EXPECT_DOUBLE_EQ(cause_sum, lane_cycles) << stem;
        EXPECT_DOUBLE_EQ(
            lane_cycles,
            static_cast<double>(
                attributedModuleLanes(module, config))
                * static_cast<double>(result.totalCycles()))
            << stem;
    }

    registry.reset();
    EXPECT_DOUBLE_EQ(registry.counterValue(
                         "run.stall.attention_compute.busy_cycles"),
                     0.0);
    // A fresh publish after reset lands the same totals again.
    publishRunStats(result, registry, "run");
    EXPECT_DOUBLE_EQ(
        registry.counterValue("run.stall.output_division.lane_cycles"),
        static_cast<double>(result.totalCycles()));
}

TEST(StallAttributionTest, StatsNotPublishedWhenAttributionOff)
{
    const SimConfig config = SimConfig::paperConfig();
    Accelerator accel(config, makeHasher(), kThetaBias64);
    const RunResult result = accel.run(makeInput(48, 5), 0.3);
    obs::StatsRegistry registry;
    publishRunStats(result, registry, "run");
    EXPECT_FALSE(registry.contains(
        "run.stall.attention_compute.lane_cycles"));
    EXPECT_FALSE(registry.contains(
        "run.stall.hash_computation.busy_cycles"));
}

// --- Non-perturbation -----------------------------------------------

TEST(StallAttributionTest, NoSinkSubsetChangesSimulatedResults)
{
    // Every view of a run is a sink of one record stream (sim/sinks.h)
    // and none may feed back into the timing or the values: all 16
    // on/off subsets of {attribution, telemetry, spans, trace writer}
    // must reproduce the plain run exactly. Telemetry and spans
    // require attribution, so those subsets must be rejected instead.
    auto hasher = makeHasher();
    struct Case
    {
        std::size_t n;
        std::uint64_t seed;
        double threshold;
    };
    const Case cases[] = {
        {96, 13, -std::numeric_limits<double>::infinity()},
        {96, 13, 0.3},
        {48, 0xBEE, 0.0},
        {5, 5, 0.3}, // pa = 4 leaves the last bank empty
        {16, 7, std::numeric_limits<double>::infinity()}, // fallback
    };
    for (const Case& c : cases) {
        const AttentionInput input = makeInput(c.n, c.seed);
        const RunResult plain =
            Accelerator(SimConfig::paperConfig(), hasher, kThetaBias64)
                .run(input, c.threshold);
        EXPECT_TRUE(plain.stall_breakdown.empty());
        std::optional<StallBreakdown> breakdown;
        for (unsigned subset = 0; subset < 16; ++subset) {
            const bool attribute = (subset & 1u) != 0;
            const bool telemetry = (subset & 2u) != 0;
            const bool spans = (subset & 4u) != 0;
            const bool tracing = (subset & 8u) != 0;
            SCOPED_TRACE(::testing::Message()
                         << "n=" << c.n << " t=" << c.threshold
                         << " attribution=" << attribute
                         << " telemetry=" << telemetry
                         << " spans=" << spans << " trace=" << tracing);
            SimConfig config = SimConfig::paperConfig();
            config.collect_query_trace = true;
            config.attribute_stalls = attribute;
            config.telemetry.enabled = telemetry;
            config.query_spans.enabled = spans;
            if ((telemetry || spans) && !attribute) {
                EXPECT_THROW(config.validate(), Error);
                continue;
            }
            obs::StatsRegistry registry;
            obs::TraceWriter trace = obs::TraceWriter::memoryBuffer();
            Accelerator accel(config, hasher, kThetaBias64);
            accel.attachStats(&registry, "sim.accel0");
            if (tracing) {
                accel.attachTrace(&trace);
            }
            const RunResult run = accel.run(input, c.threshold);

            EXPECT_EQ(run.preprocess_cycles, plain.preprocess_cycles);
            EXPECT_EQ(run.execute_cycles, plain.execute_cycles);
            EXPECT_EQ(run.totalCycles(), plain.totalCycles());
            EXPECT_EQ(run.stall_cycles, plain.stall_cycles);
            EXPECT_EQ(run.empty_selections, plain.empty_selections);
            EXPECT_EQ(run.candidates_per_query,
                      plain.candidates_per_query);
            EXPECT_EQ(run.query_trace.size(), c.n);
            for (const HwModule module : allHwModules()) {
                EXPECT_EQ(run.activity.get(module),
                          plain.activity.get(module))
                    << hwModuleMetricName(module);
            }
            ASSERT_EQ(run.output.size(), plain.output.size());
            EXPECT_EQ(std::memcmp(run.output.data(), plain.output.data(),
                                  plain.output.size() * sizeof(float)),
                      0)
                << "output matrix is not bit-equal";
            EXPECT_EQ(run.telemetry != nullptr, telemetry);
            EXPECT_EQ(run.spans != nullptr, spans);
            EXPECT_EQ(trace.eventCount() > 0, tracing);
            if (!attribute) {
                EXPECT_TRUE(run.stall_breakdown.empty());
                continue;
            }
            expectConserves(run, config, "subset");
            if (!breakdown) {
                breakdown = run.stall_breakdown;
            }
            for (const AttributedModule module : allAttributedModules()) {
                for (const StallCause cause : allStallCauses()) {
                    EXPECT_EQ(run.stall_breakdown.get(module, cause),
                              breakdown->get(module, cause))
                        << attributedModuleName(module) << " / "
                        << stallCauseName(cause);
                }
            }
        }
    }
}

TEST(StallAttributionTest, SystemThroughputIdenticalWithAttribution)
{
    // The fig11a path: the full-system throughput metric must be
    // bit-identical with attribution (and tracing) enabled.
    const WorkloadSpec spec{bertLarge(), squadV11()};
    SystemConfig config;
    config.eval.max_sublayers = 1;
    config.eval.num_eval_inputs = 1;
    config.eval.num_train_inputs = 1;
    config.sim_sublayers = 1;
    config.sim_inputs = 2;

    ElsaSystem plain(spec, config);
    const ModeReport plain_report =
        plain.evaluateMode(ApproxMode::kModerate);
    EXPECT_TRUE(plain_report.stall_breakdown.empty());

    SystemConfig instrumented_config = config;
    instrumented_config.sim.attribute_stalls = true;
    ElsaSystem instrumented(spec, instrumented_config);
    const ModeReport report =
        instrumented.evaluateMode(ApproxMode::kModerate);

    EXPECT_EQ(plain_report.throughput_vs_gpu,
              report.throughput_vs_gpu);
    EXPECT_EQ(plain_report.elsa_latency_s, report.elsa_latency_s);
    EXPECT_EQ(plain_report.simulated_cycles, report.simulated_cycles);
    // And the merged array breakdown conserves over the array total.
    EXPECT_TRUE(report.stall_breakdown.conserves(
        report.simulated_cycles, instrumented_config.sim));
}

// --- Bottleneck report ----------------------------------------------

TEST(StallAttributionTest, BottleneckNamesAttentionInBaseMode)
{
    // Exact mode (threshold -inf): every key is a candidate, the
    // attention modules dominate (the paper's Section IV-D balance).
    SimConfig config = SimConfig::paperConfig();
    config.attribute_stalls = true;
    Accelerator accel(config, makeHasher(), kThetaBias64);
    const RunResult result = accel.run(
        makeInput(96, 23), -std::numeric_limits<double>::infinity());
    const BottleneckReport report = computeBottleneck(result);
    ASSERT_TRUE(report.valid);
    EXPECT_EQ(report.limiting, AttributedModule::kAttention);
    EXPECT_GT(report.busy_fraction, 0.5);
    EXPECT_NEAR(report.headroom, 1.0 - report.busy_fraction, 1e-12);
    const std::string text = formatBottleneckReport(report);
    EXPECT_NE(text.find("attention computation"), std::string::npos);
}

TEST(StallAttributionTest, PerturbingLimitingModuleMovesCycles)
{
    // Cross-check of the report's claim: speeding up the named
    // limiting module (more banks -> more attention lanes) must
    // reduce total cycles; speeding up a module the report calls
    // slack (a wider hash unit) must not.
    auto hasher = makeHasher();
    const AttentionInput input = makeInput(96, 29);
    const double threshold =
        -std::numeric_limits<double>::infinity();

    SimConfig base = SimConfig::paperConfig();
    base.attribute_stalls = true;
    const RunResult base_run =
        Accelerator(base, hasher, kThetaBias64).run(input, threshold);
    const BottleneckReport report = computeBottleneck(base_run);
    ASSERT_TRUE(report.valid);
    ASSERT_EQ(report.limiting, AttributedModule::kAttention);

    SimConfig more_banks = base;
    more_banks.pa = base.pa * 2;
    const RunResult faster = Accelerator(more_banks, hasher,
                                         kThetaBias64)
                                 .run(input, threshold);
    EXPECT_LT(faster.execute_cycles, base_run.execute_cycles);

    SimConfig wider_hash = base;
    wider_hash.mh = base.mh * 2;
    const RunResult same = Accelerator(wider_hash, hasher,
                                       kThetaBias64)
                               .run(input, threshold);
    EXPECT_EQ(same.execute_cycles, base_run.execute_cycles);
}

TEST(StallAttributionTest, MergeAddsLaneCycles)
{
    StallBreakdown a;
    a.add(AttributedModule::kHash, StallCause::kBusy, 5);
    a.add(AttributedModule::kHash, StallCause::kDrained, 3);
    StallBreakdown b;
    b.add(AttributedModule::kHash, StallCause::kBusy, 2);
    a.merge(b);
    EXPECT_EQ(a.get(AttributedModule::kHash, StallCause::kBusy), 7u);
    EXPECT_EQ(a.laneCycles(AttributedModule::kHash), 10u);
    EXPECT_NEAR(a.busyFraction(AttributedModule::kHash), 0.7, 1e-12);
}

} // namespace
} // namespace elsa
