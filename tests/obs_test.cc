/**
 * @file
 * Tests for the observability layer: stats registry semantics (name
 * validation, kind collisions, reset), histogram bucketing edge
 * cases, JSON writer/parser round trips, Chrome trace well-formedness
 * (the emitted file is parsed back), run-manifest schema, and the
 * determinism guarantee that attaching stats/tracing to the
 * simulator does not change simulated cycle counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "lsh/calibration.h"
#include "lsh/srp.h"
#include "obs/digest.h"
#include "obs/histogram.h"
#include "obs/timeseries.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/accelerator.h"
#include "sim/report.h"

namespace elsa {
namespace {

using obs::Histogram;
using obs::QuantileDigest;
using obs::TimeSeries;
using obs::JsonValue;
using obs::JsonWriter;
using obs::MetricKind;
using obs::parseJson;
using obs::RunManifest;
using obs::StatsRegistry;
using obs::TraceWriter;

// --- Registry --------------------------------------------------------

TEST(ObsRegistryTest, CounterFindOrCreateReturnsSameObject)
{
    StatsRegistry registry;
    obs::Counter& a = registry.counter("sim.accel0.cycles.total");
    a.add(10.0);
    obs::Counter& b = registry.counter("sim.accel0.cycles.total");
    EXPECT_EQ(&a, &b);
    EXPECT_DOUBLE_EQ(b.get(), 10.0);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(ObsRegistryTest, KindCollisionIsFatal)
{
    StatsRegistry registry;
    registry.counter("lsh.hash.bits_flipped");
    EXPECT_THROW(registry.distribution("lsh.hash.bits_flipped"),
                 Error);
    EXPECT_THROW(registry.histogram("lsh.hash.bits_flipped",
                                    Histogram::linear(0, 1, 4)),
                 Error);
    // The original registration survives the failed re-registration.
    EXPECT_EQ(registry.kind("lsh.hash.bits_flipped"),
              MetricKind::kCounter);
}

TEST(ObsRegistryTest, NameValidation)
{
    StatsRegistry registry;
    EXPECT_TRUE(obs::isValidMetricName("sim.accel0.stalls"));
    EXPECT_TRUE(obs::isValidMetricName("a"));
    EXPECT_FALSE(obs::isValidMetricName(""));
    EXPECT_FALSE(obs::isValidMetricName(".leading.dot"));
    EXPECT_FALSE(obs::isValidMetricName("trailing.dot."));
    EXPECT_FALSE(obs::isValidMetricName("double..dot"));
    EXPECT_FALSE(obs::isValidMetricName("Upper.Case"));
    EXPECT_FALSE(obs::isValidMetricName("spa ce"));
    EXPECT_THROW(registry.counter("Bad Name"), Error);
}

TEST(ObsRegistryTest, ResetZeroesButKeepsRegistrations)
{
    StatsRegistry registry;
    obs::Counter& c = registry.counter("x.count");
    c.add(5.0);
    obs::Distribution& d = registry.distribution("x.dist");
    d.add(1.0);
    d.add(3.0);
    Histogram& h =
        registry.histogram("x.hist", Histogram::linear(0, 10, 5));
    h.add(2.5);

    registry.reset();

    // Same objects, zeroed contents.
    EXPECT_EQ(&c, &registry.counter("x.count"));
    EXPECT_DOUBLE_EQ(c.get(), 0.0);
    EXPECT_EQ(d.stat().count(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(registry.size(), 3u);

    // And they keep working after the reset.
    c.increment();
    EXPECT_DOUBLE_EQ(registry.counterValue("x.count"), 1.0);
}

TEST(ObsRegistryTest, HistogramPrototypeOnlyUsedOnFirstCall)
{
    StatsRegistry registry;
    Histogram& h =
        registry.histogram("h", Histogram::linear(0, 10, 10));
    h.add(5.0);
    // Different prototype, same name: edges and counts unchanged.
    Histogram& again =
        registry.histogram("h", Histogram::linear(0, 1, 2));
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.numBuckets(), 10u);
    EXPECT_EQ(again.count(), 1u);
}

TEST(ObsRegistryTest, NamesAreSorted)
{
    StatsRegistry registry;
    registry.counter("z.last");
    registry.counter("a.first");
    registry.counter("m.middle");
    const std::vector<std::string> names = registry.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a.first");
    EXPECT_EQ(names[1], "m.middle");
    EXPECT_EQ(names[2], "z.last");
}

TEST(ObsRegistryTest, CounterValueChecksKind)
{
    StatsRegistry registry;
    registry.distribution("d");
    EXPECT_THROW(registry.counterValue("d"), Error);
    EXPECT_THROW(registry.counterValue("missing"), Error);
}

// --- Histogram -------------------------------------------------------

TEST(ObsHistogramTest, BucketEdgesAreHalfOpen)
{
    Histogram h = Histogram::linear(0.0, 10.0, 5);
    h.add(0.0);  // First bucket [0, 2).
    h.add(1.99); // Still first bucket.
    h.add(2.0);  // Second bucket [2, 4): left edge is inclusive.
    h.add(9.99); // Last bucket [8, 10).
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.count(), 4u);
}

TEST(ObsHistogramTest, UnderAndOverflowAreCounted)
{
    Histogram h = Histogram::linear(0.0, 1.0, 4);
    h.add(-0.001); // Below the first edge.
    h.add(1.0);    // The top edge itself overflows ([a, b) buckets).
    h.add(100.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.count(), 3u);
    for (std::size_t i = 0; i < h.numBuckets(); ++i) {
        EXPECT_EQ(h.bucketCount(i), 0u);
    }
}

TEST(ObsHistogramTest, ExplicitEdgesAndSum)
{
    Histogram h(std::vector<double>{0.0, 1.0, 10.0, 100.0});
    EXPECT_EQ(h.numBuckets(), 3u);
    h.add(0.5);
    h.add(5.0);
    h.add(50.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_DOUBLE_EQ(h.sum(), 55.5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.numBuckets(), 3u); // Edges survive reset.
}

TEST(ObsHistogramTest, InvalidConstructionIsFatal)
{
    EXPECT_THROW(Histogram(std::vector<double>{1.0}), Error);
    EXPECT_THROW(Histogram(std::vector<double>{1.0, 1.0}), Error);
    EXPECT_THROW(Histogram(std::vector<double>{2.0, 1.0}), Error);
    EXPECT_THROW(Histogram::linear(0.0, 0.0, 4), Error);
    EXPECT_THROW(Histogram::linear(0.0, 1.0, 0), Error);
}

TEST(ObsHistogramTest, QuantileMatchesCommonPercentile)
{
    // Deterministic samples inside the bucketed range: the
    // in-bucket linear interpolation must stay within one bucket
    // width of the exact order-statistic percentile.
    Histogram h = Histogram::linear(0.0, 100.0, 50);
    std::vector<double> values;
    Rng rng(0x4157);
    for (int i = 0; i < 2000; ++i) {
        const double v = 100.0 * rng.uniform();
        values.push_back(v);
        h.add(v);
    }
    const double bucket_width = 100.0 / 50.0;
    for (const double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99}) {
        EXPECT_NEAR(h.quantile(q), percentile(values, q),
                    bucket_width)
            << "q = " << q;
    }
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(ObsHistogramTest, QuantileEdgeCasesAndErrors)
{
    Histogram h = Histogram::linear(0.0, 10.0, 5);
    EXPECT_THROW(h.quantile(0.5), Error); // Empty histogram.
    h.add(-5.0); // Underflow mass maps to the bottom edge.
    h.add(5.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_THROW(h.quantile(-0.1), Error);
    EXPECT_THROW(h.quantile(1.1), Error);
    double prev = h.quantile(0.0);
    for (const double q : {0.2, 0.4, 0.6, 0.8, 1.0}) {
        const double cur = h.quantile(q);
        EXPECT_GE(cur, prev) << "q = " << q;
        prev = cur;
    }
}

// --- Quantile digest -------------------------------------------------

TEST(ObsDigestTest, SmallCountsAreExact)
{
    QuantileDigest d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_THROW(d.quantile(0.5), Error);
    EXPECT_THROW(d.min(), Error);
    d.add(42.0);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 42.0);
    d.add(10.0);
    EXPECT_DOUBLE_EQ(d.min(), 10.0);
    EXPECT_DOUBLE_EQ(d.max(), 42.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 42.0);
    EXPECT_THROW(d.add(std::nan("")), Error);
    EXPECT_THROW(d.quantile(-0.1), Error);
    EXPECT_THROW(QuantileDigest(1.0), Error);
}

TEST(ObsDigestTest, QuantilesWithinDocumentedBoundsOfExact)
{
    // docs/OBSERVABILITY.md: rank error is bounded by roughly
    // pi / (2 * compression) at the median, tightening toward the
    // tails. Verify in rank space against the exact empirical rank.
    QuantileDigest d;
    std::vector<double> values;
    Rng rng(0xD16);
    for (int i = 0; i < 20000; ++i) {
        const double v = rng.gaussian();
        values.push_back(v);
        d.add(v);
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double bound = 3.14159265358979 / (2.0 * d.compression());
    for (const double q : {0.05, 0.25, 0.5, 0.9, 0.95, 0.99}) {
        const double estimate = d.quantile(q);
        const auto below = static_cast<double>(
            std::lower_bound(sorted.begin(), sorted.end(), estimate)
            - sorted.begin());
        const double rank = below / static_cast<double>(sorted.size());
        EXPECT_NEAR(rank, q, bound) << "q = " << q;
    }
    EXPECT_DOUBLE_EQ(d.quantile(0.0), sorted.front());
    EXPECT_DOUBLE_EQ(d.quantile(1.0), sorted.back());
}

TEST(ObsDigestTest, InsertionOrderIndependentBelowBufferLimit)
{
    // Up to the buffer limit everything compacts in one sorted
    // pass, so permuting the inputs cannot change any estimate.
    std::vector<double> values;
    Rng rng(0x0D0);
    for (int i = 0; i < 500; ++i) {
        values.push_back(rng.uniform());
    }
    QuantileDigest forward;
    for (const double v : values) {
        forward.add(v);
    }
    QuantileDigest backward;
    for (auto it = values.rbegin(); it != values.rend(); ++it) {
        backward.add(*it);
    }
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_DOUBLE_EQ(forward.quantile(q), backward.quantile(q))
            << "q = " << q;
    }
}

TEST(ObsDigestTest, MergePreservesCountMinMaxAndAccuracy)
{
    QuantileDigest left;
    QuantileDigest right;
    QuantileDigest bulk;
    std::vector<double> values;
    Rng rng(0x3E6);
    for (int i = 0; i < 4000; ++i) {
        const double v = rng.gaussian(100.0, 10.0);
        values.push_back(v);
        (i < 2000 ? left : right).add(v);
        bulk.add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), bulk.count());
    EXPECT_DOUBLE_EQ(left.min(), bulk.min());
    EXPECT_DOUBLE_EQ(left.max(), bulk.max());
    for (const double q : {0.1, 0.5, 0.9, 0.99}) {
        EXPECT_NEAR(left.quantile(q), percentile(values, q), 1.5)
            << "q = " << q;
    }
    // Self-merge doubles the weight without corrupting the digest.
    QuantileDigest self;
    self.add(1.0);
    self.add(3.0);
    self.merge(self);
    EXPECT_EQ(self.count(), 4u);
    EXPECT_DOUBLE_EQ(self.min(), 1.0);
    EXPECT_DOUBLE_EQ(self.max(), 3.0);
}

TEST(ObsRegistryTest, DigestKindAndDump)
{
    StatsRegistry registry;
    QuantileDigest& d =
        registry.digest("sim.accel0.latency.cycles_digest");
    EXPECT_THROW(
        registry.counter("sim.accel0.latency.cycles_digest"), Error);
    EXPECT_THROW(
        registry.digestValue("sim.accel0.latency.cycles_digest")
            .quantile(0.5),
        Error); // Snapshot of an empty digest has no quantiles.
    for (int i = 1; i <= 100; ++i) {
        d.add(static_cast<double>(i));
    }
    const QuantileDigest snapshot =
        registry.digestValue("sim.accel0.latency.cycles_digest");
    EXPECT_EQ(snapshot.count(), 100u);
    EXPECT_DOUBLE_EQ(snapshot.min(), 1.0);

    std::ostringstream os;
    registry.dumpJson(os);
    const JsonValue doc = parseJson(os.str());
    const JsonValue& entry =
        doc.at("sim.accel0.latency.cycles_digest");
    EXPECT_EQ(entry.at("kind").string_value, "digest");
    EXPECT_EQ(entry.at("count").number_value, 100.0);
    EXPECT_DOUBLE_EQ(entry.at("min").number_value, 1.0);
    EXPECT_DOUBLE_EQ(entry.at("max").number_value, 100.0);
    EXPECT_TRUE(entry.has("p50"));
    EXPECT_TRUE(entry.has("p99"));

    registry.reset();
    std::ostringstream os2;
    registry.dumpJson(os2);
    const JsonValue reset_doc = parseJson(os2.str());
    EXPECT_EQ(reset_doc.at("sim.accel0.latency.cycles_digest")
                  .at("count")
                  .number_value,
              0.0);
}

// --- Time series -----------------------------------------------------

TEST(ObsTimeSeriesTest, SpreadConservesIntegerValueExactly)
{
    TimeSeries ts(10);
    const std::size_t ch = ts.channel("stall.arbitration.busy_cycles");
    // 7 lane-cycles over [3, 24): crosses three bins, and the
    // telescoped rounding must hand out exactly 7 in total.
    ts.addSpread(ch, 3, 24, 7);
    const std::vector<double>& bins =
        ts.channelBins("stall.arbitration.busy_cycles");
    ASSERT_EQ(bins.size(), 3u);
    double sum = 0.0;
    for (const double b : bins) {
        EXPECT_GE(b, 0.0);
        sum += b;
    }
    EXPECT_EQ(sum, 7.0);
    EXPECT_EQ(
        ts.channelTotal("stall.arbitration.busy_cycles"), 7.0);
    // Proportional split on an exactly divisible span.
    const std::size_t even = ts.channel("queue.occupancy_cycles");
    ts.addSpread(even, 0, 20, 10);
    const std::vector<double>& even_bins =
        ts.channelBins("queue.occupancy_cycles");
    EXPECT_DOUBLE_EQ(even_bins[0], 5.0);
    EXPECT_DOUBLE_EQ(even_bins[1], 5.0);
}

TEST(ObsTimeSeriesTest, RealSpreadAndPointAdds)
{
    TimeSeries ts(16);
    const std::size_t ch = ts.channel("activity.hash_computation");
    ts.addSpreadReal(ch, 5, 37, 3.25);
    EXPECT_DOUBLE_EQ(
        ts.channelTotal("activity.hash_computation"), 3.25);
    const std::size_t marks = ts.channel("queries.completed");
    ts.addAt(marks, 31, 1.0);
    ts.addAt(marks, 32, 1.0);
    const std::vector<double>& bins =
        ts.channelBins("queries.completed");
    ASSERT_EQ(bins.size(), 3u);
    EXPECT_DOUBLE_EQ(bins[1], 1.0); // Cycle 31 is in bin [16, 32).
    EXPECT_DOUBLE_EQ(bins[2], 1.0); // Cycle 32 opens bin [32, 48).
    // A zero-length span degrades to a point add at `begin`.
    ts.addSpread(marks, 40, 40, 2);
    EXPECT_DOUBLE_EQ(ts.channelBins("queries.completed")[2], 3.0);
}

TEST(ObsTimeSeriesTest, MergeUnionsChannelsAndChecksBinWidth)
{
    TimeSeries a(8);
    const std::size_t a_ch = a.channel("queries.completed");
    a.addAt(a_ch, 0, 1.0);
    TimeSeries b(8);
    const std::size_t b_ch = b.channel("queue.occupancy_cycles");
    b.addSpread(b_ch, 0, 16, 4);
    b.addAt(b.channel("queries.completed"), 9, 2.0);
    a.merge(b);
    EXPECT_EQ(a.numChannels(), 2u);
    EXPECT_DOUBLE_EQ(a.channelTotal("queries.completed"), 3.0);
    EXPECT_DOUBLE_EQ(a.channelTotal("queue.occupancy_cycles"), 4.0);
    EXPECT_EQ(a.numBins(), 2u);

    TimeSeries mismatched(16);
    EXPECT_THROW(a.merge(mismatched), Error);
    EXPECT_THROW(TimeSeries(0), Error);
    TimeSeries bad(8);
    EXPECT_THROW(bad.channel("Bad.Name"), Error);
}

// --- JSON ------------------------------------------------------------

TEST(ObsJsonTest, WriterParserRoundTrip)
{
    std::ostringstream oss;
    JsonWriter w(oss, /*pretty=*/true);
    w.beginObject();
    w.kv("name", "elsa \"quoted\"\nline");
    w.kv("pi", 3.14159);
    w.kv("count", std::size_t{42});
    w.kv("flag", true);
    w.key("null_value").null();
    w.key("items").beginArray();
    w.value(1.0).value(2.0).value(3.0);
    w.endArray();
    w.key("nested").beginObject().kv("deep", -1.5).endObject();
    w.endObject();
    EXPECT_EQ(w.depth(), 0u);

    const JsonValue v = parseJson(oss.str());
    EXPECT_EQ(v.at("name").string_value, "elsa \"quoted\"\nline");
    EXPECT_DOUBLE_EQ(v.at("pi").number_value, 3.14159);
    EXPECT_DOUBLE_EQ(v.at("count").number_value, 42.0);
    EXPECT_TRUE(v.at("flag").bool_value);
    EXPECT_TRUE(v.at("null_value").isNull());
    ASSERT_EQ(v.at("items").array_items.size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("items").array_items[1].number_value, 2.0);
    EXPECT_DOUBLE_EQ(v.at("nested").at("deep").number_value, -1.5);
}

TEST(ObsJsonTest, CompactModeIsSingleLine)
{
    std::ostringstream oss;
    JsonWriter w(oss, /*pretty=*/false);
    w.beginObject().kv("a", 1.0).key("b").beginArray();
    w.value(true).endArray().endObject();
    const std::string text = oss.str();
    EXPECT_EQ(text.find('\n'), std::string::npos);
    EXPECT_EQ(text, "{\"a\":1,\"b\":[true]}");
}

TEST(ObsJsonTest, MalformedInputThrows)
{
    EXPECT_THROW(parseJson(""), Error);
    EXPECT_THROW(parseJson("{"), Error);
    EXPECT_THROW(parseJson("{\"a\": }"), Error);
    EXPECT_THROW(parseJson("[1, 2,]"), Error);
    EXPECT_THROW(parseJson("{} trailing"), Error);
    EXPECT_THROW(parseJson("\"unterminated"), Error);
    EXPECT_THROW(parseJson("nul"), Error);
}

TEST(ObsJsonTest, NonFiniteNumbersBecomeNull)
{
    EXPECT_EQ(obs::jsonNumber(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(obs::jsonNumber(
                  std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(obs::jsonNumber(0.25), "0.25");
}

// --- Registry dumps --------------------------------------------------

TEST(ObsRegistryTest, JsonDumpParsesBackWithAllKinds)
{
    StatsRegistry registry;
    registry.counter("c.value").add(7.0);
    obs::Distribution& d = registry.distribution("d.value");
    d.add(1.0);
    d.add(2.0);
    d.add(3.0);
    Histogram& h =
        registry.histogram("h.value", Histogram::linear(0, 4, 2));
    h.add(1.0);
    h.add(3.0);
    h.add(9.0);

    std::ostringstream oss;
    registry.dumpJson(oss);
    const JsonValue v = parseJson(oss.str());

    EXPECT_DOUBLE_EQ(v.at("c.value").number_value, 7.0);
    const JsonValue& dist = v.at("d.value");
    EXPECT_EQ(dist.at("kind").string_value, "distribution");
    EXPECT_DOUBLE_EQ(dist.at("count").number_value, 3.0);
    EXPECT_DOUBLE_EQ(dist.at("mean").number_value, 2.0);
    EXPECT_DOUBLE_EQ(dist.at("min").number_value, 1.0);
    EXPECT_DOUBLE_EQ(dist.at("max").number_value, 3.0);
    const JsonValue& hist = v.at("h.value");
    EXPECT_EQ(hist.at("kind").string_value, "histogram");
    EXPECT_DOUBLE_EQ(hist.at("overflow").number_value, 1.0);
    ASSERT_EQ(hist.at("edges").array_items.size(), 3u);
    ASSERT_EQ(hist.at("counts").array_items.size(), 2u);
    EXPECT_DOUBLE_EQ(hist.at("counts").array_items[0].number_value,
                     1.0);
}

TEST(ObsRegistryTest, CsvDumpHasHeaderAndRows)
{
    StatsRegistry registry;
    registry.counter("a.count").add(2.0);
    obs::Distribution& d = registry.distribution("b.dist");
    d.add(4.0);
    std::ostringstream oss;
    registry.dumpCsv(oss);
    const std::string csv = oss.str();
    EXPECT_NE(csv.find("name,kind,field,value\n"), std::string::npos);
    EXPECT_NE(csv.find("a.count,counter,value,2"), std::string::npos);
    EXPECT_NE(csv.find("b.dist,distribution,mean,4"),
              std::string::npos);
}

// --- Trace -----------------------------------------------------------

TEST(ObsTraceTest, DisabledWriterIsNoOp)
{
    TraceWriter trace;
    EXPECT_FALSE(trace.enabled());
    trace.completeEvent("x", "cat", 0, 0, 0, 5);
    trace.counterEvent("c", 0, 0, 1.0);
    EXPECT_EQ(trace.eventCount(), 0u);
    trace.close(); // No-op, no file side effects.
}

TEST(ObsTraceTest, EmittedJsonParsesBackWithRequiredFields)
{
    std::ostringstream oss;
    {
        TraceWriter trace("/dev/null");
        trace.processName(1, "accel1");
        trace.threadName(1, 0, "hash");
        trace.completeEvent("q0 scan", "execute", 1, 3, 100, 25);
        trace.completeEvent("zero-dur", "execute", 1, 3, 130, 0);
        trace.counterEvent("candidates", 1, 100, 12.0);
        trace.instantEvent("fallback", 1, 3, 110);
        trace.writeJson(oss);
    }
    const JsonValue v = parseJson(oss.str());
    const JsonValue& events = v.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_EQ(events.array_items.size(), 6u);
    for (const JsonValue& e : events.array_items) {
        EXPECT_TRUE(e.has("name"));
        EXPECT_TRUE(e.has("ph"));
        EXPECT_TRUE(e.has("pid"));
        EXPECT_TRUE(e.has("tid"));
    }
    const JsonValue& scan = events.array_items[2];
    EXPECT_EQ(scan.at("ph").string_value, "X");
    EXPECT_DOUBLE_EQ(scan.at("ts").number_value, 100.0);
    EXPECT_DOUBLE_EQ(scan.at("dur").number_value, 25.0);
    // Zero-duration events are widened so they stay visible.
    EXPECT_DOUBLE_EQ(
        events.array_items[3].at("dur").number_value, 1.0);
    const JsonValue& counter = events.array_items[4];
    EXPECT_EQ(counter.at("ph").string_value, "C");
    EXPECT_DOUBLE_EQ(counter.at("args").at("value").number_value,
                     12.0);
    EXPECT_EQ(events.array_items[5].at("ph").string_value, "i");
}

TEST(ObsTraceTest, CloseWritesFile)
{
    const std::string path = "obs_trace_test.json";
    {
        TraceWriter trace(path);
        trace.completeEvent("e", "c", 0, 0, 0, 1);
        trace.close();
        EXPECT_FALSE(trace.enabled());
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const JsonValue v = parseJson(buffer.str());
    EXPECT_EQ(v.at("traceEvents").array_items.size(), 1u);
    std::remove(path.c_str());
}

// --- Manifest --------------------------------------------------------

TEST(ObsManifestTest, JsonSchemaAndOverwrite)
{
    RunManifest manifest("unit_test");
    manifest.addBuildInfo();
    manifest.set("config", "d", std::size_t{64});
    manifest.set("config", "d", std::size_t{128}); // Overwrites.
    manifest.set("metrics", "speedup", 57.5);
    manifest.set("metrics", "approximate", true);

    const JsonValue v = parseJson(manifest.toJson());
    EXPECT_EQ(v.at("artifact").string_value, "unit_test");
    EXPECT_DOUBLE_EQ(v.at("schema_version").number_value, 1.0);
    EXPECT_TRUE(v.at("build").has("git_describe"));
    EXPECT_TRUE(v.at("build").has("build_type"));
    EXPECT_TRUE(v.at("build").has("compiler"));
    EXPECT_DOUBLE_EQ(v.at("config").at("d").number_value, 128.0);
    EXPECT_DOUBLE_EQ(v.at("metrics").at("speedup").number_value,
                     57.5);
    EXPECT_TRUE(v.at("metrics").at("approximate").bool_value);
}

TEST(ObsManifestTest, CompactFormIsOneLine)
{
    RunManifest manifest("bench");
    manifest.set("metrics", "x", 1.0);
    const std::string line = manifest.toJson(/*pretty=*/false);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const JsonValue v = parseJson(line);
    EXPECT_DOUBLE_EQ(v.at("metrics").at("x").number_value, 1.0);
}

// --- Profiling scopes ------------------------------------------------

TEST(ObsProfileTest, ScopeFeedsGlobalRegistryWhenEnabled)
{
    const bool was_enabled = obs::profilingEnabled();
    obs::setProfilingEnabled(true);
    {
        ELSA_PROF_SCOPE("unit.scope");
    }
    obs::setProfilingEnabled(was_enabled);
    StatsRegistry& registry = obs::globalRegistry();
    ASSERT_TRUE(registry.contains("host.unit.scope.seconds"));
    EXPECT_GE(registry.distribution("host.unit.scope.seconds")
                  .stat()
                  .count(),
              1u);
}

TEST(ObsProfileTest, DisabledScopeRecordsNothing)
{
    const bool was_enabled = obs::profilingEnabled();
    obs::setProfilingEnabled(false);
    {
        ELSA_PROF_SCOPE("unit.disabled_scope");
    }
    obs::setProfilingEnabled(was_enabled);
    EXPECT_FALSE(obs::globalRegistry().contains(
        "host.unit.disabled_scope.seconds"));
}

// --- Logging ---------------------------------------------------------

TEST(ObsLoggingTest, ThresholdGatesMessages)
{
    const LogLevel original = logLevel();
    setLogLevel(LogLevel::kWarn);
    EXPECT_FALSE(detail::logEnabled(LogLevel::kDebug));
    EXPECT_FALSE(detail::logEnabled(LogLevel::kInfo));
    EXPECT_TRUE(detail::logEnabled(LogLevel::kWarn));
    EXPECT_TRUE(detail::logEnabled(LogLevel::kError));
    setLogLevel(LogLevel::kNone);
    EXPECT_FALSE(detail::logEnabled(LogLevel::kError));
    setLogLevel(LogLevel::kDebug);
    EXPECT_TRUE(detail::logEnabled(LogLevel::kDebug));
    setLogLevel(original);
}

// --- Simulator integration -------------------------------------------

AttentionInput
randomInput(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    AttentionInput input;
    input.query = Matrix(n, 64);
    input.key = Matrix(n, 64);
    input.value = Matrix(n, 64);
    input.query.fillGaussian(rng);
    input.key.fillGaussian(rng);
    input.value.fillGaussian(rng);
    return input;
}

std::shared_ptr<const SrpHasher>
makeHasher()
{
    Rng rng(3);
    return std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng));
}

TEST(ObsSimTest, PublishedCountersMatchComputeUtilization)
{
    const AttentionInput input = randomInput(96, 7);
    SimConfig config = SimConfig::paperConfig();
    config.collect_query_trace = true;
    StatsRegistry registry;
    Accelerator accel(config, makeHasher(), kThetaBias64);
    accel.attachStats(&registry, "sim.accel0");
    const RunResult result = accel.run(input, 0.2);

    // The registry totals equal the RunResult's own counters...
    EXPECT_DOUBLE_EQ(
        registry.counterValue("sim.accel0.cycles.total"),
        static_cast<double>(result.totalCycles()));
    for (const HwModule module : allHwModules()) {
        const std::string name =
            std::string("sim.accel0.")
            + hwModuleMetricName(module) + ".active_cycles";
        EXPECT_DOUBLE_EQ(registry.counterValue(name),
                         result.activity.get(module))
            << name;
    }

    // ...and the utilization derived from them matches the report
    // path (which itself runs on a scratch registry).
    const UtilizationReport from_result =
        computeUtilization(result);
    const UtilizationReport from_registry =
        utilizationFromRegistry(registry, "sim.accel0");
    ASSERT_EQ(from_result.utilization.size(),
              allHwModules().size());
    for (const HwModule module : allHwModules()) {
        EXPECT_DOUBLE_EQ(from_registry.get(module),
                         from_result.get(module));
    }

    // Per-query distribution and histogram got one entry per query.
    EXPECT_EQ(registry
                  .distribution("sim.accel0.query.interval_cycles")
                  .stat()
                  .count(),
              96u);
    EXPECT_EQ(registry
                  .histogram("sim.accel0.query.candidate_fraction",
                             Histogram::linear(0, 1, 10))
                  .count(),
              96u);
}

TEST(ObsSimTest, BatchRunsAccumulateInOneRegistry)
{
    const AttentionInput input = randomInput(32, 5);
    SimConfig config = SimConfig::paperConfig();
    StatsRegistry registry;
    Accelerator accel(config, makeHasher(), kThetaBias64);
    accel.attachStats(&registry, "sim.accel0");
    const RunResult first = accel.run(input, 0.2);
    const RunResult second = accel.run(input, 0.2);
    EXPECT_DOUBLE_EQ(
        registry.counterValue("sim.accel0.invocations"), 2.0);
    EXPECT_DOUBLE_EQ(
        registry.counterValue("sim.accel0.cycles.total"),
        static_cast<double>(first.totalCycles()
                            + second.totalCycles()));
}

} // namespace
} // namespace elsa
