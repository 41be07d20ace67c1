/**
 * @file
 * Tests for the cycle-level simulator: configuration validation, the
 * Section IV-D closed-form timing model, the cycle-accurate candidate
 * stage (queues, stalls, longest-queue-first arbiter), the functional
 * datapath, and the full accelerator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include "attention/approx.h"
#include "common/rng.h"
#include "lsh/calibration.h"
#include "sim/accelerator.h"
#include "sim/array.h"
#include "sim/candidate_stage.h"
#include "sim/config.h"
#include "sim/functional.h"
#include "sim/pipeline_model.h"
#include "tensor/ops.h"

namespace elsa {
namespace {

AttentionInput
randomInput(std::size_t n, std::size_t d, std::uint64_t seed)
{
    Rng rng(seed);
    AttentionInput input;
    input.query = Matrix(n, d);
    input.key = Matrix(n, d);
    input.value = Matrix(n, d);
    input.query.fillGaussian(rng);
    input.key.fillGaussian(rng);
    input.value.fillGaussian(rng);
    return input;
}

std::shared_ptr<const SrpHasher>
makeHasher(std::uint64_t seed = 55)
{
    Rng rng(seed);
    return std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng));
}

TEST(SimConfigTest, PaperConfigIsValid)
{
    EXPECT_NO_THROW(SimConfig::paperConfig().validate());
}

TEST(SimConfigTest, RejectsNonCubeDForThreeFactors)
{
    SimConfig config;
    config.d = 60;
    config.k = 60;
    EXPECT_THROW(config.validate(), Error);
}

TEST(SimConfigTest, RejectsZeroParameters)
{
    SimConfig config;
    config.pa = 0;
    EXPECT_THROW(config.validate(), Error);
}

TEST(PipelineModelTest, HashMultiplicationFormulas)
{
    // Section III-C: d^2 dense, 2 d^(3/2) two-way, 3 d^(4/3)
    // three-way; for d = 64: 4096 / 1024 / 768.
    EXPECT_EQ(hashMultiplications(64, 1), 4096u);
    EXPECT_EQ(hashMultiplications(64, 2), 1024u);
    EXPECT_EQ(hashMultiplications(64, 3), 768u);
}

TEST(PipelineModelTest, HashCyclesPerVector)
{
    // Paper: 3 d^(4/3) / m_h = 768 / 256 = 3 cycles.
    EXPECT_EQ(hashCyclesPerVector(SimConfig::paperConfig()), 3u);
    SimConfig small = SimConfig::paperConfig();
    small.mh = 64;
    EXPECT_EQ(hashCyclesPerVector(small), 12u);
}

TEST(PipelineModelTest, PreprocessingCyclesFormula)
{
    // Paper: 3 d^(4/3) (n+1) / m_h; for n = 512: 3 * 513 = 1539.
    const SimConfig config = SimConfig::paperConfig();
    EXPECT_EQ(preprocessingCycles(config, 512), 1539u);
}

TEST(PipelineModelTest, CandidateScanCycles)
{
    // n / (P_a P_c) = 512 / 32 = 16.
    EXPECT_EQ(candidateScanCycles(SimConfig::paperConfig(), 512), 16u);
}

TEST(PipelineModelTest, DivisionCycles)
{
    // d / m_o = 64 / 16 = 4.
    EXPECT_EQ(divisionCyclesPerQuery(SimConfig::paperConfig()), 4u);
}

TEST(PipelineModelTest, QueryIntervalBoundTakesMax)
{
    const SimConfig config = SimConfig::paperConfig();
    // Candidate-bound when c is large.
    EXPECT_EQ(queryIntervalLowerBound(config, 512, 100), 100u);
    // Scan-bound when c is small.
    EXPECT_EQ(queryIntervalLowerBound(config, 512, 1), 16u);
}

TEST(PipelineModelTest, MaxSpeedupMatchesSectionIVD)
{
    // Paper: with P_c = 8, m_h = 64, m_o = 8 (single-bank example),
    // speedup up to 8x as long as n >= 96. We verify the paper's
    // P_a = 4 configuration: the fixed floor is the scan
    // n/(P_a P_c) = n/32, so max speedup = 32.
    const SimConfig config = SimConfig::paperConfig();
    EXPECT_NEAR(maxPipelineSpeedup(config, 512), 32.0, 1e-9);
    // The single-bank example from the paper text.
    SimConfig example = SimConfig::paperConfig();
    example.pa = 1;
    example.pc = 8;
    example.mh = 64;
    example.mo = 8;
    // n = 512: hash 12, scan 64, division 8 -> floor 64 -> 8x.
    EXPECT_NEAR(maxPipelineSpeedup(example, 512), 8.0, 1e-9);
}

TEST(CandidateStageTest, NoHitsScansAtFullRate)
{
    SimConfig config = SimConfig::paperConfig(); // pc = 8
    const std::vector<bool> hits(128, false);
    const BankQueryTrace trace = simulateBankQuery(hits, config);
    // 128 keys / 8 modules = 16 cycles, no stalls, no grants.
    EXPECT_EQ(trace.cycles, 16u);
    EXPECT_TRUE(trace.grant_order.empty());
    EXPECT_EQ(trace.stall_cycles, 0u);
    EXPECT_EQ(trace.scan_cycles, 128u);
}

TEST(CandidateStageTest, AllHitsAreArbiterBound)
{
    SimConfig config = SimConfig::paperConfig();
    const std::vector<bool> hits(128, true);
    const BankQueryTrace trace = simulateBankQuery(hits, config);
    // One grant per cycle -> at least 128 cycles; queue fill adds a
    // small ramp.
    EXPECT_GE(trace.cycles, 128u);
    EXPECT_LE(trace.cycles, 140u);
    EXPECT_EQ(trace.grant_order.size(), 128u);
    EXPECT_GT(trace.stall_cycles, 0u); // Backpressure occurred.
}

TEST(CandidateStageTest, AllKeysGrantedExactlyOnce)
{
    SimConfig config = SimConfig::paperConfig();
    Rng rng(5);
    std::vector<bool> hits(100);
    std::size_t expected = 0;
    for (auto&& h : hits) {
        h = rng.uniform() < 0.4;
        expected += h ? 1 : 0;
    }
    const BankQueryTrace trace = simulateBankQuery(hits, config);
    EXPECT_EQ(trace.grant_order.size(), expected);
    std::vector<std::uint32_t> sorted = trace.grant_order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end())
                == sorted.end());
    for (const auto key : sorted) {
        EXPECT_TRUE(hits[key]);
    }
}

TEST(CandidateStageTest, CyclesRespectClosedFormBounds)
{
    // For any hit pattern: cycles >= max(scan, grants) and
    // cycles <= scan + grants + small constant.
    SimConfig config = SimConfig::paperConfig();
    Rng rng(6);
    for (const double density : {0.05, 0.2, 0.5, 0.9}) {
        std::vector<bool> hits(128);
        std::size_t grants = 0;
        for (auto&& h : hits) {
            h = rng.uniform() < density;
            grants += h ? 1 : 0;
        }
        const BankQueryTrace trace = simulateBankQuery(hits, config);
        const std::size_t scan = 128 / config.pc;
        EXPECT_GE(trace.cycles, std::max(scan, grants));
        EXPECT_LE(trace.cycles, scan + grants + config.queue_depth);
    }
}

TEST(CandidateStageTest, SingleModuleDegeneratesToSequentialScan)
{
    SimConfig config = SimConfig::paperConfig();
    config.pc = 1;
    std::vector<bool> hits(20, false);
    hits[3] = hits[10] = true;
    const BankQueryTrace trace = simulateBankQuery(hits, config);
    EXPECT_EQ(trace.grant_order.size(), 2u);
    // In-order since a single module scans sequentially.
    EXPECT_EQ(trace.grant_order[0], 3u);
    EXPECT_EQ(trace.grant_order[1], 10u);
    EXPECT_GE(trace.cycles, 20u);
}

TEST(CandidateStageTest, QueueDepthOneStillCompletes)
{
    SimConfig config = SimConfig::paperConfig();
    config.queue_depth = 1;
    const std::vector<bool> hits(64, true);
    const BankQueryTrace trace = simulateBankQuery(hits, config);
    EXPECT_EQ(trace.grant_order.size(), 64u);
    EXPECT_GE(trace.stall_cycles, 1u);
}

TEST(CandidateStageTest, EmptyBank)
{
    const BankQueryTrace trace =
        simulateBankQuery({}, SimConfig::paperConfig());
    EXPECT_EQ(trace.cycles, 0u);
    EXPECT_TRUE(trace.grant_order.empty());
}

TEST(FunctionalModelTest, UnquantizedPreprocessMatchesSoftware)
{
    SimConfig config = SimConfig::paperConfig();
    config.model_quantization = false;
    auto hasher = makeHasher();
    FunctionalModel model(config, hasher, kThetaBias64);
    ApproxSelfAttention engine(hasher, kThetaBias64);

    const AttentionInput input = randomInput(64, 64, 21);
    const FunctionalContext ctx = model.preprocess(input);
    const KeyPreprocessing prep = engine.preprocessKeys(input.key);
    ASSERT_EQ(ctx.key_hashes.size(), prep.hashes.size());
    for (std::size_t j = 0; j < 64; ++j) {
        EXPECT_EQ(ctx.key_hashes[j], prep.hashes[j]);
        EXPECT_NEAR(ctx.key_norms[j], prep.norms[j], 1e-9);
    }
    EXPECT_NEAR(ctx.max_norm, prep.max_norm, 1e-9);
}

TEST(FunctionalModelTest, UnquantizedBankHitsMatchSoftwareSelection)
{
    SimConfig config = SimConfig::paperConfig();
    config.model_quantization = false;
    auto hasher = makeHasher();
    FunctionalModel model(config, hasher, kThetaBias64);
    ApproxSelfAttention engine(hasher, kThetaBias64);

    const AttentionInput input = randomInput(96, 64, 22);
    const FunctionalContext ctx = model.preprocess(input);
    const KeyPreprocessing prep = engine.preprocessKeys(input.key);
    const double threshold = 0.2;
    std::vector<bool> hits;
    for (std::size_t i = 0; i < 8; ++i) {
        const HashValue qh = hasher->hash(input.query.row(i));
        const auto sw = engine.selectCandidates(qh, prep, threshold);
        model.bankHits(ctx, qh, 0, 96, threshold, hits);
        std::vector<std::uint32_t> hw;
        for (std::size_t j = 0; j < 96; ++j) {
            if (hits[j]) {
                hw.push_back(static_cast<std::uint32_t>(j));
            }
        }
        EXPECT_EQ(sw, hw) << "query " << i;
    }
}

TEST(FunctionalModelTest, QuantizedNormUsesHardwareUnits)
{
    SimConfig config = SimConfig::paperConfig();
    auto hasher = makeHasher();
    FunctionalModel model(config, hasher, kThetaBias64);
    const AttentionInput input = randomInput(32, 64, 23);
    const FunctionalContext ctx = model.preprocess(input);
    for (std::size_t j = 0; j < 32; ++j) {
        const double exact = l2Norm(input.key.row(j), 64);
        // 8-bit norm (S4.3): within quantization + sqrt-unit error.
        EXPECT_NEAR(ctx.key_norms[j], exact, exact * 0.02 + 0.063);
    }
}

TEST(AcceleratorTest, BaseModeOutputMatchesExactAttention)
{
    SimConfig config = SimConfig::paperConfig();
    config.model_quantization = false;
    Accelerator accel(config, makeHasher(), kThetaBias64);
    const AttentionInput input = randomInput(64, 64, 24);
    const RunResult result = accel.run(
        input, -std::numeric_limits<double>::infinity());
    EXPECT_LT(frobeniusDiff(result.output, exactAttention(input)),
              1e-3);
    EXPECT_EQ(result.empty_selections, 0u);
    EXPECT_DOUBLE_EQ(result.candidateFraction(), 1.0);
}

TEST(AcceleratorTest, ApproxOutputMatchesSoftwareAlgorithm)
{
    // With quantization off, the simulator must reproduce the
    // software approximate attention output (same candidates, same
    // math) to floating-point tolerance.
    SimConfig config = SimConfig::paperConfig();
    config.model_quantization = false;
    auto hasher = makeHasher();
    Accelerator accel(config, hasher, kThetaBias64);
    ApproxSelfAttention engine(hasher, kThetaBias64);

    const AttentionInput input = randomInput(96, 64, 25);
    const double threshold = 0.15;
    const RunResult hw = accel.run(input, threshold);
    const ApproxAttentionResult sw = engine.run(input, threshold);
    EXPECT_LT(maxAbsDiff(hw.output, sw.output), 1e-3);
    EXPECT_EQ(hw.candidates_per_query, sw.stats.candidates_per_query);
    EXPECT_EQ(hw.empty_selections, sw.stats.empty_selections);
}

TEST(AcceleratorTest, QuantizedOutputCloseToExact)
{
    // With the hardware number formats, the base-mode output should
    // track the FP32 exact attention within the quantization noise
    // the paper reports as negligible (<0.2% metric impact).
    SimConfig config = SimConfig::paperConfig();
    Accelerator accel(config, makeHasher(), kThetaBias64);
    AttentionInput input = randomInput(64, 64, 26);
    const RunResult result = accel.run(
        input, -std::numeric_limits<double>::infinity());
    const Matrix exact = exactAttention(input);
    const double rel = frobeniusDiff(result.output, exact)
                       / frobeniusNorm(exact);
    EXPECT_LT(rel, 0.15);
}

TEST(AcceleratorTest, PreprocessingCyclesMatchClosedForm)
{
    const SimConfig config = SimConfig::paperConfig();
    Accelerator accel(config, makeHasher(), kThetaBias64);
    for (const std::size_t n : {64u, 128u, 512u}) {
        const AttentionInput input = randomInput(n, 64, 27);
        const RunResult result = accel.run(input, 1e9);
        EXPECT_EQ(result.preprocess_cycles,
                  preprocessingCycles(config, n))
            << "n = " << n;
    }
}

TEST(AcceleratorTest, BaseModeExecuteCyclesMatchModel)
{
    // With every key selected, each query's interval is
    // keys_per_bank (arbiter-bound, plus ramp) + drain latency.
    const SimConfig config = SimConfig::paperConfig();
    Accelerator accel(config, makeHasher(), kThetaBias64);
    const std::size_t n = 128;
    const AttentionInput input = randomInput(n, 64, 28);
    const RunResult result = accel.run(
        input, -std::numeric_limits<double>::infinity());
    const std::size_t keys_per_bank = n / config.pa; // 32
    const std::size_t per_query_min =
        keys_per_bank + config.attention_pipeline_latency;
    EXPECT_GE(result.execute_cycles, n * per_query_min);
    // Ramp-up bounded by the queue depth per query.
    EXPECT_LE(result.execute_cycles,
              n * (per_query_min + config.queue_depth + 1)
                  + divisionCyclesPerQuery(config));
}

TEST(AcceleratorTest, ApproximationReducesCycles)
{
    SimConfig config = SimConfig::paperConfig();
    Accelerator accel(config, makeHasher(), kThetaBias64);
    const AttentionInput input = randomInput(256, 64, 29);
    const RunResult base = accel.run(
        input, -std::numeric_limits<double>::infinity());
    const RunResult approx = accel.run(input, 0.3);
    EXPECT_LT(approx.execute_cycles, base.execute_cycles);
    EXPECT_LT(approx.candidateFraction(), 1.0);
}

TEST(AcceleratorTest, SpeedupCappedByPipelineFloor)
{
    // Even with an absurd threshold (1 candidate per query), the
    // per-query interval cannot drop below the scan floor.
    const SimConfig config = SimConfig::paperConfig();
    Accelerator accel(config, makeHasher(), kThetaBias64);
    const std::size_t n = 512;
    const AttentionInput input = randomInput(n, 64, 30);
    const RunResult result = accel.run(input, 1e9);
    const std::size_t floor_cycles =
        n * candidateScanCycles(config, n);
    EXPECT_GE(result.execute_cycles, floor_cycles);
}

TEST(AcceleratorTest, ActivityCountersArePopulated)
{
    const SimConfig config = SimConfig::paperConfig();
    Accelerator accel(config, makeHasher(), kThetaBias64);
    const AttentionInput input = randomInput(128, 64, 31);
    const RunResult result = accel.run(input, 0.2);
    EXPECT_GT(result.activity.get(HwModule::kHashComputation), 0.0);
    EXPECT_GT(result.activity.get(HwModule::kCandidateSelection), 0.0);
    EXPECT_GT(result.activity.get(HwModule::kAttentionCompute), 0.0);
    EXPECT_GT(result.activity.get(HwModule::kOutputDivision), 0.0);
    EXPECT_GT(result.activity.get(HwModule::kKeyHashMemory), 0.0);
    // Attention activity cannot exceed the candidate count plus the
    // preprocessing norm dots (in full-group cycle equivalents).
    std::size_t total_cands = 0;
    for (const auto c : result.candidates_per_query) {
        total_cands += c;
    }
    const double max_attention =
        static_cast<double>(total_cands) / config.pa
        + static_cast<double>(128 / config.pa) + 1.0;
    EXPECT_LE(result.activity.get(HwModule::kAttentionCompute),
              max_attention);
}

TEST(AcceleratorTest, RejectsWrongDimension)
{
    Accelerator accel(SimConfig::paperConfig(), makeHasher(),
                      kThetaBias64);
    EXPECT_THROW(accel.run(randomInput(16, 32, 32), 0.0), Error);
}

TEST(ArrayTest, MakespanBalancesLoad)
{
    AcceleratorArray array(SimConfig::paperConfig(), 4, makeHasher(),
                           kThetaBias64);
    const AttentionInput input = randomInput(64, 64, 33);
    std::vector<const AttentionInput*> inputs(8, &input);
    std::vector<double> thresholds(
        8, -std::numeric_limits<double>::infinity());
    const ArrayRunResult result = array.run(inputs, thresholds);
    EXPECT_EQ(result.num_invocations, 8u);
    // 8 equal ops on 4 accelerators -> makespan = 2 ops.
    EXPECT_NEAR(static_cast<double>(result.makespan_cycles),
                static_cast<double>(result.total_cycles) / 4.0,
                static_cast<double>(result.total_cycles) * 0.01);
}

TEST(ArrayTest, LeastLoadedBeatsRoundRobinOnSkewedBatch)
{
    // Mixed sizes: round-robin can pile the large ops on one unit.
    const AttentionInput small = randomInput(32, 64, 40);
    const AttentionInput large = randomInput(160, 64, 41);
    std::vector<const AttentionInput*> inputs = {
        &large, &small, &large, &small, &large, &small, &large,
        &small};
    const std::vector<double> thresholds(
        inputs.size(), -std::numeric_limits<double>::infinity());

    AcceleratorArray balanced(SimConfig::paperConfig(), 2,
                              makeHasher(), kThetaBias64,
                              SchedulingPolicy::kLeastLoaded);
    AcceleratorArray naive(SimConfig::paperConfig(), 2, makeHasher(),
                           kThetaBias64,
                           SchedulingPolicy::kRoundRobin);
    const ArrayRunResult a = balanced.run(inputs, thresholds);
    const ArrayRunResult b = naive.run(inputs, thresholds);
    EXPECT_LE(a.makespan_cycles, b.makespan_cycles);
    EXPECT_EQ(a.total_cycles, b.total_cycles); // Same work either way.
}

TEST(ArrayTest, SizeMismatchThrows)
{
    AcceleratorArray array(SimConfig::paperConfig(), 2, makeHasher(),
                           kThetaBias64);
    const AttentionInput input = randomInput(32, 64, 34);
    EXPECT_THROW(array.run({&input}, {0.1, 0.2}), Error);
}

/** Parameterized sweep: the simulator stays consistent with the
 *  closed-form bounds across pipeline configurations. */
struct PipelineParam
{
    std::size_t pa;
    std::size_t pc;
    std::size_t mh;
    std::size_t mo;
};

class PipelineSweepTest : public ::testing::TestWithParam<PipelineParam>
{
};

TEST_P(PipelineSweepTest, ExecCyclesRespectLowerBound)
{
    const PipelineParam param = GetParam();
    SimConfig config = SimConfig::paperConfig();
    config.pa = param.pa;
    config.pc = param.pc;
    config.mh = param.mh;
    config.mo = param.mo;
    config.validate();
    Accelerator accel(config, makeHasher(), kThetaBias64);
    const std::size_t n = 128;
    const AttentionInput input = randomInput(n, 64, 35);
    const RunResult result = accel.run(input, 0.25);

    std::size_t bound = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // Per-bank candidate count is unknown here, so use the
        // weakest correct bound: the fixed stage floors.
        bound += queryIntervalLowerBound(config, n, 0);
    }
    EXPECT_GE(result.execute_cycles, bound);
    EXPECT_EQ(result.candidates_per_query.size(), n);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineSweepTest,
    ::testing::Values(PipelineParam{1, 8, 64, 8},
                      PipelineParam{2, 4, 128, 8},
                      PipelineParam{4, 8, 256, 16},
                      PipelineParam{8, 2, 256, 16},
                      PipelineParam{4, 16, 768, 32}));

} // namespace
} // namespace elsa
