/**
 * @file
 * Tests for the workload substrate: model/dataset catalogs, the
 * synthetic Q/K/V generator's statistical properties, sequence-length
 * sampling, the accuracy proxy, and the WorkloadRunner driver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "attention/exact.h"
#include "attention/metrics.h"
#include "attention/threshold.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "tensor/ops.h"
#include "workload/accuracy.h"
#include "workload/generator.h"
#include "workload/model.h"
#include "workload/workload.h"

namespace elsa {
namespace {

TEST(ModelCatalogTest, PaperModels)
{
    const ModelConfig bert = bertLarge();
    EXPECT_EQ(bert.num_layers, 24u);
    EXPECT_EQ(bert.num_heads, 16u);
    EXPECT_EQ(bert.head_dim, 64u);
    EXPECT_EQ(bert.numSublayers(), 384u); // "384 sub-layers" (paper)
    EXPECT_TRUE(bert.is_nlp);

    const ModelConfig sas = sasRec();
    EXPECT_EQ(sas.num_layers, 3u);
    EXPECT_FALSE(sas.is_nlp);
    const ModelConfig b4r = bert4Rec();
    EXPECT_EQ(b4r.num_heads, 2u);

    // Every model uses d = 64 (Section IV-E).
    for (const auto& m : {bertLarge(), robertaLarge(), albertLarge(),
                          sasRec(), bert4Rec()}) {
        EXPECT_EQ(m.head_dim, 64u) << m.name;
    }
}

TEST(ModelCatalogTest, TwelveEvaluationWorkloads)
{
    const auto workloads = evaluationWorkloads();
    EXPECT_EQ(workloads.size(), 12u);
    std::set<std::string> labels;
    for (const auto& w : workloads) {
        labels.insert(w.label());
    }
    EXPECT_EQ(labels.size(), 12u); // All distinct.
    EXPECT_TRUE(labels.count("BERT/SQuADv1.1"));
    EXPECT_TRUE(labels.count("RoBERTa/IMDB"));
    EXPECT_TRUE(labels.count("SASRec/ML-1M"));
    EXPECT_TRUE(labels.count("BERT4Rec/ML-1M"));
}

TEST(ModelCatalogTest, DatasetLengthsAreConsistent)
{
    for (const auto& ds : {squadV11(), squadV20(), race(), imdb(),
                           movieLens1M()}) {
        EXPECT_GT(ds.padded_length, 0u) << ds.name;
        EXPECT_LE(ds.max_tokens, ds.padded_length) << ds.name;
        EXPECT_LT(ds.min_tokens, ds.max_tokens) << ds.name;
        EXPECT_GE(ds.mean_tokens, static_cast<double>(ds.min_tokens));
        EXPECT_LE(ds.mean_tokens, static_cast<double>(ds.max_tokens));
    }
}

TEST(GeneratorTest, DeterministicPerCoordinates)
{
    QkvGenerator gen(bertLarge(), 42);
    const AttentionInput a = gen.generate(3, 5, 64, 7);
    const AttentionInput b = gen.generate(3, 5, 64, 7);
    EXPECT_TRUE(a.query == b.query);
    EXPECT_TRUE(a.key == b.key);
    EXPECT_TRUE(a.value == b.value);
}

TEST(GeneratorTest, DifferentCoordinatesDiffer)
{
    QkvGenerator gen(bertLarge(), 42);
    const AttentionInput a = gen.generate(3, 5, 64, 7);
    const AttentionInput b = gen.generate(3, 6, 64, 7);
    const AttentionInput c = gen.generate(3, 5, 64, 8);
    EXPECT_FALSE(a.key == b.key);
    EXPECT_FALSE(a.key == c.key);
}

TEST(GeneratorTest, ShapesMatchRequest)
{
    QkvGenerator gen(sasRec(), 1);
    const AttentionInput input = gen.generate(0, 0, 100, 0);
    EXPECT_EQ(input.n(), 100u);
    EXPECT_EQ(input.d(), 64u);
    EXPECT_NO_THROW(input.validate());
}

TEST(GeneratorTest, ElementsFitInputFixedPointRange)
{
    // The hardware quantizes inputs to S5.3 ([-32, 31.875]); the
    // generator must produce values well inside that range.
    QkvGenerator gen(bertLarge(), 9);
    for (std::size_t layer : {0u, 12u, 23u}) {
        const AttentionInput input = gen.generate(layer, 1, 128, 0);
        for (const Matrix* m :
             {&input.query, &input.key, &input.value}) {
            for (std::size_t i = 0; i < m->size(); ++i) {
                ASSERT_LT(std::abs(m->data()[i]), 31.0f);
            }
        }
    }
}

TEST(GeneratorTest, SoftmaxConcentratesOnFewKeys)
{
    // The defining property of attention the approximation exploits:
    // a small fraction of keys holds most of the softmax mass.
    QkvGenerator gen(bertLarge(), 11);
    const std::size_t n = 256;
    const AttentionInput input = gen.generate(11, 3, n, 0);
    const ExactAttentionTrace trace = exactAttentionTrace(input);
    RunningStat top16_mass;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> sorted = trace.scores[i];
        std::sort(sorted.rbegin(), sorted.rend());
        double top = 0.0;
        for (std::size_t j = 0; j < 16; ++j) {
            top += sorted[j];
        }
        top16_mass.add(top);
    }
    // Top 16 of 256 keys (6%) should hold well over half the mass.
    EXPECT_GT(top16_mass.mean(), 0.6);
    // ... but not be a strict one-hot.
    EXPECT_LT(top16_mass.mean(), 0.9999);
}

TEST(GeneratorTest, ProfilesVaryAcrossLayersAndHeads)
{
    const ModelConfig model = bertLarge();
    const SublayerProfile early = sublayerProfile(model, 0, 0);
    const SublayerProfile mid = sublayerProfile(model, 12, 0);
    const SublayerProfile other_head = sublayerProfile(model, 0, 3);
    EXPECT_NE(early.concentration, mid.concentration);
    EXPECT_NE(early.concentration, other_head.concentration);
    EXPECT_THROW(sublayerProfile(model, 24, 0), Error);
}

TEST(GeneratorTest, KeyNormsVary)
{
    QkvGenerator gen(bertLarge(), 13);
    const AttentionInput input = gen.generate(5, 5, 128, 0);
    RunningStat norms;
    for (std::size_t j = 0; j < 128; ++j) {
        norms.add(l2Norm(input.key.row(j), 64));
    }
    EXPECT_NEAR(norms.mean(), 4.0, 1.0);
    EXPECT_GT(norms.stddev(), 0.3); // Spread exercises the ||K|| term.
}

TEST(GeneratorTest, SequenceLengthSamplingRespectsBounds)
{
    const DatasetSpec ds = squadV11();
    Rng rng(17);
    RunningStat lengths;
    for (int i = 0; i < 3000; ++i) {
        const std::size_t len = sampleSequenceLength(ds, rng);
        ASSERT_GE(len, ds.min_tokens);
        ASSERT_LE(len, ds.max_tokens);
        lengths.add(static_cast<double>(len));
    }
    EXPECT_NEAR(lengths.mean(), ds.mean_tokens, 6.0);
}

TEST(AccuracyProxyTest, ZeroMissZeroLoss)
{
    EXPECT_DOUBLE_EQ(estimateAccuracyLossPct(bertLarge(), 1.0), 0.0);
}

TEST(AccuracyProxyTest, MonotoneInMissedMass)
{
    double prev = -1.0;
    for (double recall = 1.0; recall >= 0.5; recall -= 0.05) {
        const double loss = estimateAccuracyLossPct(bertLarge(),
                                                    recall);
        EXPECT_GT(loss, prev);
        prev = loss;
    }
}

TEST(AccuracyProxyTest, CalibratedOperatingPoints)
{
    // The documented calibration: ~16% missed mass (the synthetic
    // workloads' p = 1 point) maps to <=1%, ~26% (p = 2) to <=2.5%.
    EXPECT_LE(estimateAccuracyLossPct(bertLarge(), 0.84), 1.0);
    EXPECT_LE(estimateAccuracyLossPct(bertLarge(), 0.74), 2.5);
    EXPECT_GT(estimateAccuracyLossPct(bertLarge(), 0.60), 2.5);
}

TEST(AccuracyProxyTest, RejectsOutOfRangeRecall)
{
    EXPECT_THROW(estimateAccuracyLossPct(bertLarge(), -0.1), Error);
    EXPECT_THROW(estimateAccuracyLossPct(bertLarge(), 1.2), Error);
}

TEST(AccuracyProxyTest, ModeBoundsMatchSectionVC)
{
    const ModelConfig nlp = bertLarge();
    const ModelConfig rec = sasRec();
    EXPECT_DOUBLE_EQ(accuracyLossBound(nlp, ApproxMode::kConservative),
                     1.0);
    EXPECT_DOUBLE_EQ(accuracyLossBound(nlp, ApproxMode::kModerate),
                     2.5);
    EXPECT_DOUBLE_EQ(accuracyLossBound(nlp, ApproxMode::kAggressive),
                     5.0);
    EXPECT_DOUBLE_EQ(accuracyLossBound(rec, ApproxMode::kConservative),
                     0.5);
    EXPECT_DOUBLE_EQ(accuracyLossBound(rec, ApproxMode::kModerate),
                     1.0);
    EXPECT_DOUBLE_EQ(accuracyLossBound(rec, ApproxMode::kAggressive),
                     2.0);
    EXPECT_DOUBLE_EQ(accuracyLossBound(nlp, ApproxMode::kBase), 0.0);
}

TEST(AccuracyProxyTest, ModeNames)
{
    EXPECT_STREQ(approxModeName(ApproxMode::kBase), "ELSA-base");
    EXPECT_STREQ(approxModeName(ApproxMode::kAggressive),
                 "ELSA-aggressive");
}

TEST(WorkloadRunnerTest, RepresentativeSublayersAreValidAndSpread)
{
    WorkloadRunner runner({bertLarge(), squadV11()});
    const auto coords = runner.representativeSublayers(8);
    ASSERT_EQ(coords.size(), 8u);
    std::set<std::size_t> layers;
    for (const auto& c : coords) {
        EXPECT_LT(c.layer, 24u);
        EXPECT_LT(c.head, 16u);
        layers.insert(c.layer);
    }
    EXPECT_GT(layers.size(), 4u); // Spread across the stack.
}

TEST(WorkloadRunnerTest, SublayerSubsampleCappedByModelSize)
{
    WorkloadRunner runner({sasRec(), movieLens1M()});
    // SASRec has 3 sublayers in total.
    EXPECT_EQ(runner.representativeSublayers(8).size(), 3u);
}

TEST(WorkloadRunnerTest, CandidateFractionDecreasesWithP)
{
    WorkloadRunner runner({bertLarge(), squadV11()});
    WorkloadEvalOptions options;
    options.max_sublayers = 3;
    options.num_eval_inputs = 2;
    options.num_train_inputs = 2;
    double prev_fraction = 1.1;
    double prev_recall = 1.1;
    for (const double p : {0.5, 2.0, 8.0}) {
        const WorkloadEvaluation eval = runner.evaluate(p, options);
        EXPECT_LT(eval.mean_candidate_fraction, prev_fraction);
        EXPECT_LT(eval.mean_mass_recall, prev_recall);
        prev_fraction = eval.mean_candidate_fraction;
        prev_recall = eval.mean_mass_recall;
    }
}

TEST(WorkloadRunnerTest, PaperOperatingPoints)
{
    // Fig. 10's published shape: p = 1 selects < 40% of entities
    // with sub-1%-ish loss; p = 2 about 26% with sub-2.5% loss.
    WorkloadRunner runner({bertLarge(), squadV11()});
    WorkloadEvalOptions options;
    options.max_sublayers = 6;
    const WorkloadEvaluation p1 = runner.evaluate(1.0, options);
    EXPECT_LT(p1.mean_candidate_fraction, 0.50);
    EXPECT_GT(p1.mean_candidate_fraction, 0.15);
    EXPECT_LE(p1.estimated_loss_pct, 1.5);
    const WorkloadEvaluation p2 = runner.evaluate(2.0, options);
    EXPECT_LT(p2.mean_candidate_fraction,
              p1.mean_candidate_fraction);
    EXPECT_LE(p2.estimated_loss_pct, 3.0);
}

TEST(WorkloadRunnerTest, SimInvocationsCarryThresholdAndLengths)
{
    WorkloadRunner runner({bert4Rec(), movieLens1M()});
    const auto invocations = runner.simInvocations(1.0, 2, 4);
    ASSERT_FALSE(invocations.empty());
    for (const auto& inv : invocations) {
        EXPECT_EQ(inv.input.n(), inv.n_real);
        EXPECT_EQ(inv.n_padded, 200u);
        EXPECT_LE(inv.n_real, inv.n_padded);
        EXPECT_TRUE(std::isfinite(inv.threshold));
    }
    // Base mode: threshold = -inf.
    const auto base = runner.simInvocations(0.0, 1, 2);
    for (const auto& inv : base) {
        EXPECT_TRUE(std::isinf(inv.threshold));
    }
}

TEST(WorkloadRunnerTest, EvalLengthsDeterministic)
{
    WorkloadRunner a({bertLarge(), race()});
    WorkloadRunner b({bertLarge(), race()});
    for (std::uint64_t id = 0; id < 8; ++id) {
        EXPECT_EQ(a.evalLength(id), b.evalLength(id));
    }
}

// ---- The one-pass p-grid sweep (WorkloadRunner::evaluateGrid) ----

/** Bitwise equality, so -0.0 / 0.0 or NaN payloads cannot hide. */
void
expectSameBits(double a, double b, const char* what)
{
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
        << what << ": " << a << " vs " << b;
}

void
expectEvaluationsIdentical(const WorkloadEvaluation& a,
                           const WorkloadEvaluation& b)
{
    expectSameBits(a.p, b.p, "p");
    expectSameBits(a.mean_candidate_fraction, b.mean_candidate_fraction,
                   "mean_candidate_fraction");
    expectSameBits(a.mean_mass_recall, b.mean_mass_recall,
                   "mean_mass_recall");
    expectSameBits(a.worst_mass_recall, b.worst_mass_recall,
                   "worst_mass_recall");
    expectSameBits(a.mean_output_error, b.mean_output_error,
                   "mean_output_error");
    expectSameBits(a.estimated_loss_pct, b.estimated_loss_pct,
                   "estimated_loss_pct");
    expectSameBits(a.mean_real_tokens, b.mean_real_tokens,
                   "mean_real_tokens");
    ASSERT_EQ(a.thresholds.size(), b.thresholds.size());
    EXPECT_EQ(std::memcmp(a.thresholds.data(), b.thresholds.data(),
                          a.thresholds.size() * sizeof(double)),
              0);
}

WorkloadEvalOptions
smallGridOptions()
{
    WorkloadEvalOptions options;
    options.max_sublayers = 3;
    options.num_eval_inputs = 2;
    options.num_train_inputs = 2;
    return options;
}

/** Restores the default global pool size when a test exits. */
struct GlobalThreadsGuard
{
    explicit GlobalThreadsGuard(std::size_t n)
    {
        ThreadPool::setGlobalThreads(n);
    }
    ~GlobalThreadsGuard() { ThreadPool::setGlobalThreads(0); }
};

class WorkloadGridTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(WorkloadGridTest, GridEqualsPerPEvaluate)
{
    const GlobalThreadsGuard threads(GetParam());
    const WorkloadEvalOptions options = smallGridOptions();
    const std::vector<double>& grid = WorkloadRunner::standardPGrid();
    for (const WorkloadSpec& spec : {WorkloadSpec{bertLarge(), squadV11()},
                                     WorkloadSpec{sasRec(), movieLens1M()}}) {
        SCOPED_TRACE(spec.label());
        const WorkloadRunner runner(spec);
        const std::vector<WorkloadEvaluation> swept =
            runner.evaluateGrid(grid, options);
        ASSERT_EQ(swept.size(), grid.size());
        for (std::size_t g = 0; g < grid.size(); ++g) {
            SCOPED_TRACE(grid[g]);
            // A fresh runner per p: nothing is shared with the sweep.
            const WorkloadRunner single(spec);
            expectEvaluationsIdentical(swept[g],
                                       single.evaluate(grid[g], options));
        }
    }
}

TEST_P(WorkloadGridTest, GridThresholdsEqualPerPLearner)
{
    const GlobalThreadsGuard threads(GetParam());
    const WorkloadEvalOptions options = smallGridOptions();
    const std::vector<double>& grid = WorkloadRunner::standardPGrid();
    const WorkloadRunner runner({bertLarge(), squadV11()});
    const std::vector<WorkloadEvaluation> swept =
        runner.evaluateGrid(grid, options);
    const auto coords =
        runner.representativeSublayers(options.max_sublayers);
    for (std::size_t g = 0; g < grid.size(); ++g) {
        ASSERT_EQ(swept[g].thresholds.size(), coords.size());
        for (std::size_t c = 0; c < coords.size(); ++c) {
            ThresholdLearner learner(grid[g]);
            for (std::uint64_t id = 0; id < options.num_train_inputs;
                 ++id) {
                const AttentionInput train =
                    runner.trainInput(coords[c], id);
                learner.observe(train.query, train.key);
            }
            expectSameBits(swept[g].thresholds[c], learner.threshold(),
                           "grid threshold");
        }
    }
}

TEST_P(WorkloadGridTest, EmptySelectionsContributeNoMass)
{
    // At p = 32 the learned thresholds exceed some queries' best
    // approximate similarity, so the argmax fallback fires. Mass
    // recall must still score the lists before the fallback, i.e.
    // equal measureFidelity on candidatesForAll, query for query.
    const GlobalThreadsGuard threads(GetParam());
    const WorkloadEvalOptions options = smallGridOptions();
    const WorkloadRunner runner({sasRec(), movieLens1M()});
    const std::vector<WorkloadEvaluation> swept =
        runner.evaluateGrid({2.0, 32.0}, options);
    const WorkloadEvaluation& high = swept[1];
    const auto coords =
        runner.representativeSublayers(options.max_sublayers);
    const ApproxSelfAttention& engine = runner.engine();

    std::size_t empty = 0;
    RunningStat fraction;
    RunningStat recall;
    RunningStat error;
    double worst = 1.0;
    for (std::size_t c = 0; c < coords.size(); ++c) {
        for (std::uint64_t id = 0; id < options.num_eval_inputs; ++id) {
            const AttentionInput input = runner.evalInput(coords[c], id);
            const double t = high.thresholds[c];
            const ApproxAttentionResult result = engine.run(input, t);
            const FidelityReport fidelity = measureFidelity(
                input, engine.candidatesForAll(input, t), result.output);
            empty += result.stats.empty_selections;
            fraction.add(result.stats.candidateFraction(input.n()));
            recall.add(fidelity.mass_recall);
            error.add(fidelity.output_relative_error);
            worst = std::min(worst, fidelity.mass_recall);
        }
    }
    EXPECT_GT(empty, 0u);
    expectSameBits(high.mean_candidate_fraction, fraction.mean(),
                   "mean_candidate_fraction");
    expectSameBits(high.mean_mass_recall, recall.mean(),
                   "mean_mass_recall");
    expectSameBits(high.worst_mass_recall, worst, "worst_mass_recall");
    expectSameBits(high.mean_output_error, error.mean(),
                   "mean_output_error");
}

INSTANTIATE_TEST_SUITE_P(Threads, WorkloadGridTest,
                         ::testing::Values(1, 2, 8));

TEST(WorkloadGridTest, RunReturnsSelectionsBeforeFallback)
{
    const WorkloadRunner runner({sasRec(), movieLens1M()});
    const ApproxSelfAttention& engine = runner.engine();
    const SublayerCoord coord{1, 0};
    const AttentionInput input = runner.evalInput(coord, 0);
    const double t = runner.thresholds(coord, {32.0}, 2)[0];
    std::vector<std::vector<std::uint32_t>> selected;
    const ApproxAttentionResult result = engine.run(input, t, &selected);
    const ApproxAttentionResult plain = engine.run(input, t);
    EXPECT_GT(result.stats.empty_selections, 0u);
    EXPECT_EQ(selected, engine.candidatesForAll(input, t));
    EXPECT_TRUE(result.output == plain.output);
    EXPECT_EQ(result.stats.candidates_per_query,
              plain.stats.candidates_per_query);
}

} // namespace
} // namespace elsa
