/**
 * @file
 * Tests for histograms (precision bounds, quantiles, merging),
 * counters, and table rendering.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "base/rng.h"
#include "stats/counters.h"
#include "stats/histogram.h"
#include "stats/table.h"

namespace musuite {
namespace {

TEST(HistogramTest, EmptyIsZero)
{
    Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.valueAtQuantile(0.5), 0);
    EXPECT_EQ(hist.summary().count, 0u);
}

TEST(HistogramTest, SingleValueExact)
{
    Histogram hist;
    hist.record(12345);
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_EQ(hist.minValue(), 12345);
    EXPECT_EQ(hist.maxValue(), 12345);
    EXPECT_EQ(hist.valueAtQuantile(0.5), 12345);
    EXPECT_EQ(hist.valueAtQuantile(1.0), 12345);
}

TEST(HistogramTest, SmallValuesExact)
{
    Histogram hist;
    for (int v = 0; v < 64; ++v)
        hist.record(v);
    // Values below 2^subBucketBits land in exact buckets.
    EXPECT_EQ(hist.valueAtQuantile(0.0), 0);
    EXPECT_EQ(hist.maxValue(), 63);
}

TEST(HistogramTest, QuantileRelativeErrorBounded)
{
    Histogram hist(6);
    Rng rng(5);
    std::vector<int64_t> values;
    for (int i = 0; i < 50000; ++i) {
        const int64_t v = int64_t(rng.nextExponential(1e-6)); // ~1ms.
        values.push_back(v);
        hist.record(v);
    }
    std::sort(values.begin(), values.end());
    for (double q : {0.5, 0.9, 0.99}) {
        const int64_t exact = values[size_t(q * (values.size() - 1))];
        const int64_t approx = hist.valueAtQuantile(q);
        EXPECT_NEAR(double(approx), double(exact),
                    std::max(4.0, double(exact) * 0.03))
            << "q=" << q;
    }
}

TEST(HistogramTest, MeanMatches)
{
    Histogram hist;
    for (int64_t v : {10, 20, 30, 40})
        hist.record(v);
    EXPECT_DOUBLE_EQ(hist.mean(), 25.0);
}

TEST(HistogramTest, MergeCombines)
{
    Histogram a, b;
    a.record(100);
    b.record(1000);
    b.record(1000000);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.minValue(), 100);
    EXPECT_EQ(a.maxValue(), 1000000);
}

TEST(HistogramTest, NegativeClampsToZero)
{
    Histogram hist;
    hist.record(-50);
    EXPECT_EQ(hist.minValue(), 0);
    EXPECT_EQ(hist.count(), 1u);
}

TEST(HistogramTest, ResetClears)
{
    Histogram hist;
    hist.record(42);
    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.maxValue(), 0);
}

TEST(HistogramTest, HugeValuesDoNotOverflow)
{
    Histogram hist;
    hist.record(int64_t(1) << 62);
    hist.record(123);
    EXPECT_EQ(hist.count(), 2u);
    EXPECT_EQ(hist.maxValue(), int64_t(1) << 62);
    EXPECT_GE(hist.valueAtQuantile(1.0), (int64_t(1) << 62) / 100 * 97);
}

TEST(HistogramTest, CsvListsBuckets)
{
    Histogram hist;
    hist.record(5);
    hist.record(5);
    const std::string csv = hist.toCsv();
    EXPECT_NE(csv.find("5,2"), std::string::npos);
}

TEST(HistogramTest, SummaryOrdering)
{
    Histogram hist;
    Rng rng(77);
    for (int i = 0; i < 20000; ++i)
        hist.record(int64_t(rng.nextBounded(1'000'000)));
    const DistributionSummary s = hist.summary();
    EXPECT_LE(s.min, s.p25);
    EXPECT_LE(s.p25, s.p50);
    EXPECT_LE(s.p50, s.p75);
    EXPECT_LE(s.p75, s.p90);
    EXPECT_LE(s.p90, s.p99);
    EXPECT_LE(s.p99, s.p999);
    EXPECT_LE(s.p999, s.max);
}

TEST(CounterTest, SnapshotAndDiff)
{
    CounterSet set;
    set.counter("reads").add(5);
    const CounterSnapshot before = set.snapshot();
    set.counter("reads").add(3);
    set.counter("writes").add(1);
    const CounterSnapshot delta =
        CounterSet::diff(before, set.snapshot());
    EXPECT_EQ(delta.at("reads"), 3u);
    EXPECT_EQ(delta.at("writes"), 1u);
    EXPECT_EQ(delta.size(), 2u);
}

TEST(CounterTest, StableReferences)
{
    CounterSet set;
    Counter &counter = set.counter("x");
    set.counter("y"); // Must not invalidate `counter`.
    counter.add(7);
    EXPECT_EQ(set.snapshot().at("x"), 7u);
}

TEST(TableTest, AlignedRendering)
{
    Table table({"name", "value"});
    table.row().cell("alpha").cell(int64_t(1));
    table.row().cell("b").cell(int64_t(22));
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(TableTest, CsvRendering)
{
    Table table({"a", "b"});
    table.row().cell("x").cell(3.14159, 2);
    std::ostringstream out;
    table.printCsv(out);
    EXPECT_EQ(out.str(), "a,b\nx,3.14\n");
}

TEST(TableTest, JsonRendering)
{
    Table table({"service", "qps", "note"});
    table.row().cell("HDSearch").cell(11500.4, 0).cell("-");
    table.row().cell("Router").cell(-2.5, 1).cell("12K");
    table.row().cell("Idle").cell("-inf").cell("nan");
    std::ostringstream out;
    table.printJson(out);
    EXPECT_EQ(out.str(),
              "[\n"
              "  {\"service\": \"HDSearch\", \"qps\": 11500, "
              "\"note\": \"-\"},\n"
              "  {\"service\": \"Router\", \"qps\": -2.5, "
              "\"note\": \"12K\"},\n"
              "  {\"service\": \"Idle\", \"qps\": \"-inf\", "
              "\"note\": \"nan\"}\n"
              "]");

    std::ostringstream empty;
    Table({"a"}).printJson(empty);
    EXPECT_EQ(empty.str(), "[]");
}

TEST(TableTest, NanosCells)
{
    Table table({"lat"});
    table.row().nanos(1500);
    std::ostringstream out;
    table.printCsv(out);
    EXPECT_NE(out.str().find("1.50us"), std::string::npos);
}

} // namespace
} // namespace musuite
