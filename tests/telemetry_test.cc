/**
 * @file
 * Tests of the cycle-domain telemetry layer: exact conservation of
 * the binned stall channels against the run's StallBreakdown across
 * random pipeline configurations and bin widths, activity-channel
 * agreement with the energy activity counters, the
 * telemetry-off byte-identity of stats dumps, the telemetry.json
 * document round-tripping through the JSON parser with its
 * conservation invariant intact, and the AcceleratorArray merge
 * equaling the serial sum of per-invocation series.
 *
 * Conservation is asserted here in ALL build types (the TimeSeries
 * unit invariants live in tests/obs_test.cc).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lsh/srp.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
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

std::string
stallChannelName(AttributedModule module, StallCause cause)
{
    std::string name = "stall.";
    name += attributedModuleMetricName(module);
    name += '.';
    name += stallCauseMetricName(cause);
    return name;
}

SimConfig
telemetryConfig(std::uint64_t bin_width)
{
    SimConfig config = SimConfig::paperConfig();
    config.attribute_stalls = true;
    config.telemetry.enabled = true;
    config.telemetry.bin_width_cycles = bin_width;
    return config;
}

// --- Conservation invariant -----------------------------------------

TEST(TelemetryTest, StallBinsConserveAcrossRandomConfigs)
{
    Rng rng(0x7E1E);
    const std::size_t pa_choices[] = {1, 2, 4, 8};
    const std::size_t pc_choices[] = {1, 4, 16};
    const std::uint64_t width_choices[] = {1, 7, 64, 256, 1024};
    // n = 1, 5 and 13 leave banks empty for pa > 1.
    const std::size_t n_choices[] = {1, 5, 13, 16, 48, 96};

    auto hasher = makeHasher();
    for (int trial = 0; trial < 12; ++trial) {
        SimConfig config =
            telemetryConfig(width_choices[rng.uniformInt(5)]);
        config.pa = pa_choices[rng.uniformInt(4)];
        config.pc = pc_choices[rng.uniformInt(3)];
        config.validate();
        const AttentionInput input =
            makeInput(n_choices[rng.uniformInt(std::size(n_choices))],
                      0x100 + static_cast<std::uint64_t>(trial));

        Accelerator accel(config, hasher, 0.0);
        const RunResult result = accel.run(input, 0.0);
        ASSERT_NE(result.telemetry, nullptr);
        const obs::TimeSeries& ts = *result.telemetry;
        EXPECT_EQ(ts.binWidth(), config.telemetry.bin_width_cycles);
        EXPECT_GE(ts.numBins() * ts.binWidth(),
                  result.totalCycles());

        for (const AttributedModule module :
             allAttributedModules()) {
            for (const StallCause cause : allStallCauses()) {
                if (cause == StallCause::kFaultRetry) {
                    // Channels exist only with fault injection.
                    EXPECT_FALSE(ts.hasChannel(
                        stallChannelName(module, cause)));
                    continue;
                }
                const std::string name =
                    stallChannelName(module, cause);
                ASSERT_TRUE(ts.hasChannel(name)) << name;
                // Integer spans spread with telescoped cumulative
                // rounding: the bin sum is exact, not approximate.
                EXPECT_EQ(ts.channelTotal(name),
                          static_cast<double>(
                              result.stall_breakdown.get(module,
                                                         cause)))
                    << name << " (trial " << trial << ")";
                for (const double bin : ts.channelBins(name)) {
                    EXPECT_GE(bin, 0.0) << name;
                }
            }
        }
    }
}

TEST(TelemetryTest, ActivityBinsSumToActivityCounters)
{
    const SimConfig config = telemetryConfig(128);
    Accelerator accel(config, makeHasher(), 0.0);
    const RunResult result = accel.run(makeInput(64, 0xAC7), 0.0);
    ASSERT_NE(result.telemetry, nullptr);
    for (const HwModule module : allHwModules()) {
        std::string name = "activity.";
        name += hwModuleMetricName(module);
        ASSERT_TRUE(result.telemetry->hasChannel(name)) << name;
        const double total = result.telemetry->channelTotal(name);
        const double expected = result.activity.get(module);
        EXPECT_NEAR(total, expected,
                    1e-9 * std::max(1.0, std::abs(expected)))
            << name;
    }
    EXPECT_TRUE(
        result.telemetry->hasChannel("queue.occupancy_cycles"));
    // One completion mark per query.
    EXPECT_EQ(result.telemetry->channelTotal("queries.completed"),
              static_cast<double>(result.candidates_per_query.size()));
}

// --- Non-perturbation -----------------------------------------------

TEST(TelemetryTest, DisabledTelemetryLeavesStatsDumpIdentical)
{
    // The digest family rides the telemetry gate: two telemetry-off
    // runs must dump byte-identically, with no digest metrics at all.
    SimConfig config = SimConfig::paperConfig();
    config.attribute_stalls = true;
    config.collect_query_trace = true;
    auto hasher = makeHasher();
    const AttentionInput input = makeInput(32, 0xD15);

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
    EXPECT_EQ(dumps[0].find("digest"), std::string::npos);
}

// --- telemetry.json -------------------------------------------------

TEST(TelemetryTest, JsonRoundTripsAndConserves)
{
    SimConfig config = telemetryConfig(256);
    config.collect_query_trace = true;
    Accelerator accel(config, makeHasher(), 0.0);
    const RunResult result = accel.run(makeInput(64, 0x15E), 0.0);
    ASSERT_NE(result.telemetry, nullptr);

    obs::StatsRegistry registry;
    publishRunStats(result, registry, "sim.accel0");
    std::ostringstream os;
    writeTelemetryJson(os, *result.telemetry, registry, "sim.accel0",
                       config, &result.query_trace);

    const obs::JsonValue doc = obs::parseJson(os.str());
    EXPECT_EQ(doc.at("schema_version").number_value, 1.0);
    EXPECT_EQ(doc.at("prefix").string_value, "sim.accel0");
    EXPECT_EQ(doc.at("bin_width_cycles").number_value, 256.0);
    const auto num_bins = static_cast<std::size_t>(
        doc.at("num_bins").number_value);
    EXPECT_EQ(num_bins, result.telemetry->numBins());

    const obs::JsonValue& channels = doc.at("channels");
    ASSERT_TRUE(channels.isObject());
    for (const auto& [name, bins] : channels.object_items) {
        ASSERT_TRUE(bins.isArray()) << name;
        // Every channel is padded onto the one shared time axis.
        EXPECT_EQ(bins.array_items.size(), num_bins) << name;
        if (name.rfind("stall.", 0) != 0) {
            continue;
        }
        double sum = 0.0;
        for (const obs::JsonValue& bin : bins.array_items) {
            sum += bin.number_value;
        }
        EXPECT_EQ(sum,
                  registry.counterValue("sim.accel0." + name))
            << name;
    }
    EXPECT_EQ(doc.at("energy").at("bin_total_uj")
                  .array_items.size(),
              num_bins);
    EXPECT_TRUE(doc.at("digests").has(
        "sim.accel0.latency.cycles_digest"));
    EXPECT_EQ(doc.at("query_intervals").array_items.size(),
              result.query_trace.size());
}

// --- Batch merge ----------------------------------------------------

TEST(TelemetryTest, ArrayMergeEqualsSerialSum)
{
    const SimConfig config = telemetryConfig(64);
    auto hasher = makeHasher();
    const AttentionInput a = makeInput(24, 1);
    const AttentionInput b = makeInput(48, 2);
    const AttentionInput c = makeInput(36, 3);

    Accelerator accel(config, hasher, 0.0);
    const RunResult ra = accel.run(a, 0.0);
    const RunResult rb = accel.run(b, 0.0);
    const RunResult rc = accel.run(c, 0.0);

    AcceleratorArray array(config, 2, hasher, 0.0);
    const ArrayRunResult merged =
        array.run({&a, &b, &c}, {0.0, 0.0, 0.0});
    ASSERT_NE(merged.telemetry, nullptr);

    for (const std::string& name :
         merged.telemetry->channelNames()) {
        double expected = 0.0;
        for (const RunResult* r : {&ra, &rb, &rc}) {
            if (r->telemetry->hasChannel(name)) {
                expected += r->telemetry->channelTotal(name);
            }
        }
        // Stall channels are integer-valued, activity channels are
        // float sums accumulated in the same order; both match the
        // serial per-run totals.
        EXPECT_NEAR(merged.telemetry->channelTotal(name), expected,
                    1e-9 * std::max(1.0, std::abs(expected)))
            << name;
    }
}

} // namespace
} // namespace elsa
