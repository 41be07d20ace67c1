/**
 * @file
 * Tests of the per-query lifecycle span layer: exact conservation of
 * every record's queue-wait / service / stall components against its
 * end-to-end cycles across random pipeline configurations, the
 * reconciliation of whole-run span totals against the stall
 * attribution counters, the spans-off stats dumps staying
 * byte-identical (with no span metrics at all), the spans.json
 * document round-tripping through the JSON parser with its
 * invariants intact, deterministic exemplar selection, the
 * AcceleratorArray merge re-tagging invocations in order, and
 * conservation surviving the fault-retry bubble.
 *
 * Conservation is asserted here in ALL build types via the public
 * API (the ELSA_DASSERT in obs/span.cc compiles out under NDEBUG),
 * so the tests request enough exemplars to retain every record.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "lsh/srp.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "sim/accelerator.h"
#include "sim/array.h"
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

/** Paper config with spans on and every record retained (the
 *  exemplar cut would otherwise hide records from the checks). */
SimConfig
spanConfig(std::size_t exemplar_count = 4096)
{
    SimConfig config = SimConfig::paperConfig();
    config.attribute_stalls = true;
    config.query_spans.enabled = true;
    config.query_spans.exemplar_count = exemplar_count;
    return config;
}

std::size_t
stageIndex(AttributedModule module)
{
    return static_cast<std::size_t>(module);
}

std::size_t
causeIndex(StallCause cause)
{
    return static_cast<std::size_t>(cause);
}

// --- Conservation invariant -----------------------------------------

TEST(SpanTest, ComponentsConserveAcrossRandomConfigs)
{
    Rng rng(0x59A7);
    const std::size_t pa_choices[] = {1, 2, 4, 8};
    const std::size_t pc_choices[] = {1, 4, 16};
    const std::size_t n_choices[] = {1, 16, 48, 96};

    auto hasher = makeHasher();
    for (int trial = 0; trial < 12; ++trial) {
        SimConfig config = spanConfig();
        config.pa = pa_choices[rng.uniformInt(4)];
        config.pc = pc_choices[rng.uniformInt(3)];
        config.validate();
        const AttentionInput input =
            makeInput(n_choices[rng.uniformInt(4)],
                      0x200 + static_cast<std::uint64_t>(trial));

        Accelerator accel(config, hasher, 0.0);
        const RunResult result = accel.run(input, 0.0);
        ASSERT_NE(result.spans, nullptr);
        const obs::QuerySpanSet& spans = *result.spans;
        EXPECT_TRUE(spans.finalized());
        EXPECT_EQ(spans.numQueries(), input.n());
        // exemplar_count >= n retains every record.
        ASSERT_EQ(spans.records().size(), input.n());

        std::uint64_t end_to_end_sum = 0;
        for (const obs::QuerySpanRecord& record : spans.records()) {
            EXPECT_TRUE(record.conserves())
                << "query " << record.query << " sums to "
                << record.componentSum() << ", end-to-end is "
                << record.endToEnd() << " (trial " << trial << ")";
            EXPECT_LE(record.exit_cycle, result.totalCycles());
            end_to_end_sum += record.endToEnd();
        }
        // The frozen totals cover the same cycles the records do.
        std::uint64_t total_sum = 0;
        for (std::size_t s = 0; s < spans.numStages(); ++s) {
            total_sum += spans.stageQueueWaitTotal(s)
                         + spans.stageServiceTotal(s)
                         + spans.stageStallTotal(s);
        }
        EXPECT_EQ(total_sum, end_to_end_sum)
            << "stage totals drift from record sums (trial " << trial
            << ")";
        EXPECT_EQ(spans.totalDigest().count(), input.n());
    }
}

// --- Reconciliation against stall attribution ------------------------

TEST(SpanTest, TotalsReconcileAgainstStallCounters)
{
    const SimConfig config = spanConfig();
    Accelerator accel(config, makeHasher(), 0.0);
    const RunResult result = accel.run(makeInput(64, 0x5EC), 0.0);
    ASSERT_NE(result.spans, nullptr);
    const obs::QuerySpanSet& spans = *result.spans;

    // Single-lane output division: every busy lane-cycle is one
    // query's service wall-cycle, so the totals match exactly.
    EXPECT_EQ(spans.stageServiceTotal(
                  stageIndex(AttributedModule::kOutputDivision)),
              result.stall_breakdown.get(AttributedModule::kOutputDivision,
                                         StallCause::kBusy));
    // Each key is hashed once in preprocessing and once per pipeline
    // interval, so the hash unit's busy cycles are exactly twice the
    // per-query hash service.
    EXPECT_EQ(2 * spans.stageServiceTotal(
                      stageIndex(AttributedModule::kHash)),
              result.stall_breakdown.get(AttributedModule::kHash,
                                         StallCause::kBusy));
    // Candidate-selection stalls are wall cycles; attribution counts
    // lane-cycles over pa*pc lanes, so wall can never exceed it.
    EXPECT_LE(spans.stageStallTotal(
                  stageIndex(AttributedModule::kCandidateSelection)),
              result.stall_breakdown.get(
                  AttributedModule::kCandidateSelection,
                  StallCause::kBankConflict));
}

// --- Non-perturbation ------------------------------------------------

TEST(SpanTest, DisabledSpansLeaveStatsDumpIdentical)
{
    // The span metric family rides the query_spans gate: spans-off
    // runs must dump byte-identically with no span metrics at all.
    SimConfig config = SimConfig::paperConfig();
    config.attribute_stalls = true;
    auto hasher = makeHasher();
    const AttentionInput input = makeInput(32, 0x0D5);

    std::string dumps[2];
    for (std::string& dump : dumps) {
        Accelerator accel(config, hasher, 0.0);
        obs::StatsRegistry registry;
        publishRunStats(accel.run(input, 0.0), registry,
                        "sim.accel0");
        std::ostringstream os;
        registry.dumpJson(os);
        dump = os.str();
    }
    EXPECT_EQ(dumps[0], dumps[1]);
    EXPECT_EQ(dumps[0].find(".span."), std::string::npos);
}

// --- spans.json ------------------------------------------------------

TEST(SpanTest, JsonRoundTripsAndConserves)
{
    const SimConfig config = spanConfig(8);
    Accelerator accel(config, makeHasher(), 0.0);
    const RunResult result = accel.run(makeInput(96, 0x15E), 0.0);
    ASSERT_NE(result.spans, nullptr);

    std::ostringstream os;
    writeSpansJson(os, *result.spans, "sim.accel0", config);
    const obs::JsonValue doc = obs::parseJson(os.str());

    EXPECT_EQ(doc.at("schema_version").number_value, 1.0);
    EXPECT_EQ(doc.at("prefix").string_value, "sim.accel0");
    EXPECT_EQ(doc.at("exemplar_count").number_value, 8.0);
    EXPECT_EQ(doc.at("num_queries").number_value, 96.0);

    const obs::JsonValue& stages = doc.at("stages");
    ASSERT_TRUE(stages.isArray());
    ASSERT_EQ(stages.array_items.size(), kNumAttributedModules);
    for (std::size_t s = 0; s < kNumAttributedModules; ++s) {
        EXPECT_EQ(stages.array_items[s].string_value,
                  attributedModuleMetricName(allAttributedModules()[s]));
    }
    const obs::JsonValue& causes = doc.at("stall_causes");
    ASSERT_TRUE(causes.isArray());
    EXPECT_EQ(causes.array_items.size(), kNumStallCauses);

    // Totals round-trip against the in-memory set.
    const obs::JsonValue& totals = doc.at("totals");
    ASSERT_TRUE(totals.isObject());
    for (std::size_t s = 0; s < kNumAttributedModules; ++s) {
        const obs::JsonValue& stage = totals.at(
            attributedModuleMetricName(allAttributedModules()[s]));
        EXPECT_EQ(stage.at("queue_wait_cycles").number_value,
                  static_cast<double>(
                      result.spans->stageQueueWaitTotal(s)));
        EXPECT_EQ(stage.at("service_cycles").number_value,
                  static_cast<double>(
                      result.spans->stageServiceTotal(s)));
        EXPECT_EQ(stage.at("stall_cycles").number_value,
                  static_cast<double>(
                      result.spans->stageStallTotal(s)));
    }

    // Invocation summaries cover every query once.
    const obs::JsonValue& invocations = doc.at("invocations");
    ASSERT_TRUE(invocations.isArray());
    double invocation_queries = 0.0;
    for (const obs::JsonValue& entry : invocations.array_items) {
        invocation_queries += entry.at("queries").number_value;
    }
    EXPECT_EQ(invocation_queries, 96.0);

    // Every serialized exemplar conserves: the component sum of its
    // stage objects equals its end_to_end_cycles exactly.
    const obs::JsonValue& exemplars = doc.at("exemplars");
    ASSERT_TRUE(exemplars.isArray());
    ASSERT_FALSE(exemplars.array_items.empty());
    for (const obs::JsonValue& e : exemplars.array_items) {
        EXPECT_TRUE(e.at("slowest").bool_value
                    || e.at("decile").bool_value);
        EXPECT_EQ(e.at("end_to_end_cycles").number_value,
                  e.at("exit_cycle").number_value
                      - e.at("entry_cycle").number_value);
        double component_sum = 0.0;
        for (const auto& [name, stage] : e.at("stages").object_items) {
            component_sum += stage.at("queue_wait").number_value
                             + stage.at("service").number_value;
            if (stage.has("stall")) {
                for (const auto& [cause, cycles] :
                     stage.at("stall").object_items) {
                    component_sum += cycles.number_value;
                }
            }
        }
        EXPECT_EQ(component_sum, e.at("end_to_end_cycles").number_value)
            << "serialized query "
            << e.at("query").number_value << " does not conserve";
    }
}

// --- Exemplar selection ----------------------------------------------

TEST(SpanTest, ExemplarSelectionIsDeterministicAndBounded)
{
    const SimConfig config = spanConfig(8);
    auto hasher = makeHasher();
    const AttentionInput input = makeInput(96, 0xE8E);

    std::string documents[2];
    for (std::string& document : documents) {
        Accelerator accel(config, hasher, 0.0);
        const RunResult result = accel.run(input, 0.0);
        ASSERT_NE(result.spans, nullptr);

        std::size_t slowest = 0;
        for (const obs::QuerySpanRecord& record :
             result.spans->records()) {
            EXPECT_TRUE(record.slowest_exemplar
                        || record.decile_exemplar);
            if (record.slowest_exemplar) {
                ++slowest;
            }
        }
        EXPECT_EQ(slowest, 8u);
        // At most K slowest + 10 decile representatives survive; the
        // digests still cover every query.
        EXPECT_LE(result.spans->records().size(), 18u);
        EXPECT_EQ(result.spans->totalDigest().count(), 96u);

        std::ostringstream os;
        writeSpansJson(os, *result.spans, "sim.accel0", config);
        document = os.str();
    }
    EXPECT_EQ(documents[0], documents[1]);
}

// --- AcceleratorArray merge ------------------------------------------

TEST(SpanTest, ArrayMergeTagsInvocationsInOrder)
{
    const SimConfig config = spanConfig();
    auto hasher = makeHasher();
    QkvGenerator gen(bertLarge(), 99);
    const AttentionInput in0 = gen.generate(0, 0, 40, 0);
    const AttentionInput in1 = gen.generate(1, 0, 24, 1);
    const AttentionInput in2 = gen.generate(2, 1, 56, 2);
    const std::size_t sizes[] = {40, 24, 56};

    AcceleratorArray array(config, 3, hasher, 0.0);
    const ArrayRunResult merged =
        array.run({&in0, &in1, &in2}, {0.0, 0.0, 0.0});
    ASSERT_NE(merged.spans, nullptr);
    EXPECT_EQ(merged.spans->numQueries(), 120u);

    ASSERT_EQ(merged.spans->invocations().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(merged.spans->invocations()[i].invocation, i);
        EXPECT_EQ(merged.spans->invocations()[i].queries, sizes[i]);
    }
    for (const obs::QuerySpanRecord& record :
         merged.spans->records()) {
        EXPECT_LT(record.invocation, 3u);
        EXPECT_LT(record.query, sizes[record.invocation]);
    }

    // The merged totals equal the serial sum of per-input runs.
    const AttentionInput* inputs[] = {&in0, &in1, &in2};
    std::vector<std::uint64_t> expected(
        kNumAttributedModules * 3, 0);
    for (const AttentionInput* input : inputs) {
        Accelerator accel(config, hasher, 0.0);
        const RunResult result = accel.run(*input, 0.0);
        ASSERT_NE(result.spans, nullptr);
        for (std::size_t s = 0; s < kNumAttributedModules; ++s) {
            expected[3 * s] += result.spans->stageQueueWaitTotal(s);
            expected[3 * s + 1] += result.spans->stageServiceTotal(s);
            expected[3 * s + 2] += result.spans->stageStallTotal(s);
        }
    }
    for (std::size_t s = 0; s < kNumAttributedModules; ++s) {
        EXPECT_EQ(merged.spans->stageQueueWaitTotal(s),
                  expected[3 * s]);
        EXPECT_EQ(merged.spans->stageServiceTotal(s),
                  expected[3 * s + 1]);
        EXPECT_EQ(merged.spans->stageStallTotal(s),
                  expected[3 * s + 2]);
    }
}

// --- Fault-retry bubble ----------------------------------------------

TEST(SpanTest, FaultRetryBubbleKeepsConservation)
{
    SimConfig config = spanConfig();
    config.fault.enabled = true;
    config.fault.bit_error_rate = 2e-4;
    config.fault.protection = ProtectionMode::kParityDetect;
    Accelerator accel(config, makeHasher(), 0.0);
    const RunResult result = accel.run(makeInput(64, 0xFA1), 0.0);
    ASSERT_NE(result.spans, nullptr);

    std::uint64_t span_retry = 0;
    for (const obs::QuerySpanRecord& record :
         result.spans->records()) {
        EXPECT_TRUE(record.conserves())
            << "query " << record.query
            << " does not conserve under fault injection";
        for (std::size_t s = 0; s < result.spans->numStages(); ++s) {
            span_retry += record.stages[s].stall[causeIndex(
                StallCause::kFaultRetry)];
        }
    }
    // The end-of-run bubble is charged to the single-lane output
    // division, where wall cycles and lane cycles coincide.
    EXPECT_LE(span_retry,
              result.stall_breakdown.get(
                  AttributedModule::kOutputDivision,
                  StallCause::kFaultRetry));
}

} // namespace
} // namespace elsa
