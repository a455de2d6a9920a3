/**
 * @file
 * Unit tests for the stats module: EWMA, rate meters, histograms,
 * time series, quantiles and formatting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "stats/ewma.hpp"
#include "stats/histogram.hpp"
#include "stats/table.hpp"
#include "stats/timeseries.hpp"

using namespace tmo;

TEST(EwmaTest, FirstSampleInitializes)
{
    stats::Ewma e(10 * sim::SEC);
    EXPECT_FALSE(e.initialized());
    EXPECT_DOUBLE_EQ(e.value(), 0.0);
    e.update(5.0, sim::SEC);
    EXPECT_TRUE(e.initialized());
    EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(EwmaTest, DecaysTowardsNewSamples)
{
    stats::Ewma e(10 * sim::SEC);
    e.update(0.0, 0);
    e.update(100.0, 10 * sim::SEC); // exactly one half life
    EXPECT_NEAR(e.value(), 50.0, 1e-9);
    e.update(100.0, 20 * sim::SEC);
    EXPECT_NEAR(e.value(), 75.0, 1e-9);
}

TEST(EwmaTest, LongGapConverges)
{
    stats::Ewma e(sim::SEC);
    e.update(0.0, 0);
    e.update(42.0, 100 * sim::SEC);
    EXPECT_NEAR(e.value(), 42.0, 1e-6);
}

TEST(EwmaTest, ResetForgets)
{
    stats::Ewma e(sim::SEC);
    e.update(10.0, 0);
    e.reset();
    EXPECT_FALSE(e.initialized());
    EXPECT_DOUBLE_EQ(e.value(), 0.0);
}

TEST(RateMeterTest, SteadyRate)
{
    stats::RateMeter meter(sim::SEC, 5 * sim::SEC);
    for (int s = 0; s < 60; ++s)
        meter.add(100.0, s * sim::SEC);
    EXPECT_NEAR(meter.rate(60 * sim::SEC), 100.0, 2.0);
    EXPECT_DOUBLE_EQ(meter.total(), 6000.0);
}

TEST(RateMeterTest, RateDropsWhenIdle)
{
    stats::RateMeter meter(sim::SEC, 2 * sim::SEC);
    for (int s = 0; s < 10; ++s)
        meter.add(100.0, s * sim::SEC);
    const double busy = meter.rate(10 * sim::SEC);
    const double idle = meter.rate(60 * sim::SEC);
    EXPECT_GT(busy, 50.0);
    EXPECT_LT(idle, 1.0);
}

TEST(HistogramTest, EmptyQuantiles)
{
    stats::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SingleValue)
{
    stats::Histogram h(1.0, 1e6);
    h.add(1000.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_NEAR(h.p50(), 1000.0, 150.0); // bucket resolution
    EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(HistogramTest, PercentileOrdering)
{
    stats::Histogram h(1.0, 1e6);
    for (int i = 1; i <= 10000; ++i)
        h.add(static_cast<double>(i));
    EXPECT_LE(h.p50(), h.p90());
    EXPECT_LE(h.p90(), h.p99());
    EXPECT_NEAR(h.p50(), 5000.0, 700.0);
    EXPECT_NEAR(h.p99(), 9900.0, 1300.0);
}

TEST(HistogramTest, OutOfRangeClamped)
{
    stats::Histogram h(10.0, 1000.0);
    h.add(0.5);    // below range
    h.add(1e9);    // above range
    EXPECT_EQ(h.count(), 2u);
    EXPECT_GT(h.quantile(1.0), 0.0);
}

// Regression: a latency spike far beyond max_value lands in the
// overflow bucket; tail quantiles must report the recorded spike, not
// a value interpolated from the bucket's (meaningless) log bounds.
TEST(HistogramTest, OverflowSpikeReportsRealMaximum)
{
    stats::Histogram h(10.0, 1000.0);
    for (int i = 0; i < 99; ++i)
        h.add(100.0);
    h.add(5e6); // SSD latency spike, 5000x past max_value
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 5e6);
    EXPECT_DOUBLE_EQ(h.max(), 5e6);
    // p99 selects the spike's bucket: must stay within the observed
    // sample range rather than the fabricated bucket midpoint.
    EXPECT_LE(h.p99(), 5e6);
    EXPECT_GE(h.p99(), 100.0);
}

// Regression: the symmetric underflow case — samples below min_value
// must bound low quantiles by the recorded minimum.
TEST(HistogramTest, UnderflowReportsRealMinimum)
{
    stats::Histogram h(10.0, 1000.0);
    h.add(0.5);
    h.add(100.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);
    EXPECT_GE(h.quantile(0.25), 0.5);
    EXPECT_LE(h.quantile(0.25), 100.0);
}

TEST(HistogramTest, SingleSampleAllQuantilesEqual)
{
    stats::Histogram h(1.0, 1e6);
    h.add(123.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 123.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 123.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 123.0);
}

// Property check: quantiles are monotone in q, bounded by the observed
// range, and track a sorted-vector reference within bucket resolution.
TEST(HistogramTest, MonotoneAndTracksExactQuantile)
{
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    stats::Histogram h(1.0, 1e6);
    std::vector<double> samples;
    for (int i = 0; i < 5000; ++i) {
        // Log-uniform in [0.1, 1e8]: exercises both edge buckets.
        const double u = static_cast<double>(next() % 1000000) / 1e6;
        const double v = std::pow(10.0, -1.0 + 9.0 * u);
        h.add(v);
        samples.push_back(v);
    }
    std::sort(samples.begin(), samples.end());
    double prev = -1.0;
    for (double q = 0.0; q <= 1.0; q += 0.01) {
        const double hq = h.quantile(q);
        EXPECT_GE(hq, prev) << "non-monotone at q=" << q;
        EXPECT_GE(hq, samples.front());
        EXPECT_LE(hq, samples.back());
        prev = hq;
        if (q >= 0.01 && q <= 0.99) {
            const double ref = stats::exactQuantile(samples, q);
            // One log bucket is ~12% wide; allow a generous 1.5x in
            // either direction plus interpolation slack.
            EXPECT_LE(hq, ref * 1.5) << "q=" << q;
            EXPECT_GE(hq, ref / 1.5) << "q=" << q;
        }
    }
    EXPECT_DOUBLE_EQ(h.quantile(1.0), samples.back());
    EXPECT_DOUBLE_EQ(h.quantile(0.0), samples.front());
}

TEST(HistogramTest, ResetClears)
{
    stats::Histogram h;
    h.add(5.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(HistogramTest, RejectsInvalidGeometryByName)
{
    const auto expectError = [](const std::function<void()> &make,
                                const std::string &name) {
        try {
            make();
            ADD_FAILURE() << "accepted a bad " << name;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(name),
                      std::string::npos)
                << e.what();
        }
    };
    const double nan = std::nan("");
    const double inf = HUGE_VAL;
    for (const double min_value : {0.0, -1.0, -inf, inf, nan})
        expectError([&] { stats::Histogram h(min_value, 1e7, 20); },
                    "min_value");
    for (const double max_value : {1e7, 1e8, -1.0, inf, nan})
        expectError([&] { stats::Histogram h(1e8, max_value, 20); },
                    "max_value");
    for (const int per_decade : {0, -20})
        expectError([&] { stats::Histogram h(0.1, 1e7, per_decade); },
                    "buckets_per_decade");

    // Through the registry, a refused geometry registers nothing.
    obs::MetricRegistry registry;
    expectError([&] { registry.histogram("lat_us", -1.0, 1e7, 20); },
                "min_value");
    expectError([&] { registry.histogram("lat_us", 0.1, 1e7, 0); },
                "buckets_per_decade");
    EXPECT_EQ(registry.size(), 0u);
    registry.histogram("lat_us", 0.1, 1e7, 20).add(3.0);
    std::vector<std::string> names;
    registry.visit([&](const std::string &name, double) {
        names.push_back(name);
    });
    EXPECT_EQ(names.size(), 4u);
}

namespace
{

/** A histogram geometry and its buckets under the log10 formula. */
struct Geometry {
    double minValue;
    double maxValue;
    int perDecade;

    double logMin() const { return std::log10(minValue); }
    double logStep() const { return 1.0 / perDecade; }

    std::size_t
    buckets() const
    {
        const double decades = std::log10(maxValue) - logMin();
        return static_cast<std::size_t>(
                   std::ceil(decades / logStep())) +
               1;
    }

    /** The formula add() used before its bound table:
     *  floor((log10(value) - logMin) / logStep), clamped to the edge
     *  buckets (0 for values <= 0). */
    std::size_t
    log10Bucket(double value) const
    {
        if (value <= 0.0)
            return 0;
        const double pos = (std::log10(value) - logMin()) / logStep();
        if (pos < 0.0)
            return 0;
        const std::size_t last = buckets() - 1;
        if (pos >= static_cast<double>(last))
            return last;
        return static_cast<std::size_t>(pos);
    }
};

double
fromBits(std::uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof value);
    return value;
}

} // namespace

TEST(HistogramTest, BucketTableMatchesLog10Formula)
{
    // The geometries src/ builds (SSD, app and request latencies; tier
    // move latencies; the MetricRegistry default) and a fine one.
    const Geometry geometries[] = {
        {0.1, 1e7, 20}, {0.1, 1e7, 10}, {1.0, 1e12, 20}, {0.5, 5e5, 200}};
    sim::Rng rng(2024);
    for (const Geometry &g : geometries) {
        SCOPED_TRACE(::testing::Message()
                     << "(" << g.minValue << ", " << g.maxValue << ", "
                     << g.perDecade << ")");
        const stats::Histogram h(g.minValue, g.maxValue, g.perDecade);
        const std::size_t buckets = g.buckets();
        std::uint64_t mismatches = 0;
        const auto check = [&](double value) {
            if (h.bucketOf(value) != g.log10Bucket(value) &&
                ++mismatches <= 5)
                ADD_FAILURE() << "value " << value << " (bits "
                              << std::hexfloat << value
                              << std::defaultfloat << "): table "
                              << h.bucketOf(value) << ", formula "
                              << g.log10Bucket(value);
        };

        // +-4096 ulps around every bucket's lower bound. The formula
        // must change to the bucket inside the window, so the window
        // holds the bound itself.
        for (std::size_t i = 1; i < buckets; ++i) {
            const double nominal = std::pow(
                10.0, g.logMin() + static_cast<double>(i) * g.logStep());
            double x = nominal;
            for (int k = 0; k < 4096; ++k)
                x = std::nextafter(x, 0.0);
            ASSERT_LT(g.log10Bucket(x), i);
            for (int k = 0; k <= 2 * 4096; ++k) {
                check(x);
                x = std::nextafter(x, HUGE_VAL);
            }
            ASSERT_GE(g.log10Bucket(x), i);
        }

        // Random positive doubles: bit patterns over the whole
        // exponent range, and log-uniform draws across the geometry.
        for (int k = 0; k < 1'000'000; ++k) {
            const std::uint64_t bits = rng.next() >> 1; // sign clear
            const double value = fromBits(bits);
            if (std::isfinite(value))
                check(value);
        }
        for (int k = 0; k < 200'000; ++k)
            check(std::pow(10.0, rng.uniform(g.logMin() - 1.0,
                                             std::log10(g.maxValue) +
                                                 1.0)));

        // Edges: zero, negatives, subnormals, the extremes.
        for (const double value :
             {0.0, -0.0, -1.0, -DBL_MAX, -HUGE_VAL, DBL_TRUE_MIN,
              DBL_MIN / 3.0, std::nextafter(DBL_MIN, 0.0), DBL_MIN,
              g.minValue, std::nextafter(g.minValue, 0.0), g.maxValue,
              std::nextafter(g.maxValue, HUGE_VAL), DBL_MAX, HUGE_VAL})
            check(value);
        EXPECT_EQ(h.bucketOf(HUGE_VAL), buckets - 1);
        EXPECT_EQ(h.bucketOf(-1.0), 0u);
        EXPECT_EQ(mismatches, 0u);
    }
}

TEST(TimeSeriesTest, Reductions)
{
    stats::TimeSeries ts("x");
    ts.record(0, 1.0);
    ts.record(sim::SEC, 3.0);
    ts.record(2 * sim::SEC, 5.0);
    EXPECT_EQ(ts.size(), 3u);
    EXPECT_DOUBLE_EQ(ts.mean(), 3.0);
    EXPECT_DOUBLE_EQ(ts.min(), 1.0);
    EXPECT_DOUBLE_EQ(ts.max(), 5.0);
    EXPECT_DOUBLE_EQ(ts.last(), 5.0);
}

TEST(TimeSeriesTest, MeanBetween)
{
    stats::TimeSeries ts;
    for (int s = 0; s < 10; ++s)
        ts.record(s * sim::SEC, static_cast<double>(s));
    EXPECT_DOUBLE_EQ(ts.meanBetween(2 * sim::SEC, 5 * sim::SEC), 3.0);
    EXPECT_DOUBLE_EQ(ts.meanBetween(100 * sim::SEC, 200 * sim::SEC), 0.0);
}

TEST(TimeSeriesTest, EmptyIsSafe)
{
    stats::TimeSeries ts;
    EXPECT_TRUE(ts.empty());
    EXPECT_DOUBLE_EQ(ts.mean(), 0.0);
    EXPECT_DOUBLE_EQ(ts.quantile(0.5), 0.0);
}

TEST(QuantileTest, ExactQuantiles)
{
    std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_DOUBLE_EQ(stats::exactQuantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(stats::exactQuantile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(stats::exactQuantile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(stats::exactQuantile(v, 0.25), 2.0);
}

TEST(QuantileTest, Interpolates)
{
    std::vector<double> v = {0.0, 10.0};
    EXPECT_DOUBLE_EQ(stats::exactQuantile(v, 0.5), 5.0);
    EXPECT_DOUBLE_EQ(stats::exactQuantile(v, 0.9), 9.0);
}

// Pin the edge conventions fleet reporting relies on: an empty value
// set (every host failed) is 0.0 from exactQuantile but "no data"
// from the formatting helpers; a 1-host fleet answers every q with
// its single value; a 2-host fleet interpolates between closest
// ranks.
TEST(QuantileTest, EmptySetIsZeroNotOutOfBounds)
{
    const std::vector<double> empty;
    EXPECT_DOUBLE_EQ(stats::exactQuantile(empty, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(stats::exactQuantile(empty, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(stats::exactQuantile(empty, 0.99), 0.0);
    EXPECT_DOUBLE_EQ(stats::exactQuantile(empty, 1.0), 0.0);
}

TEST(QuantileTest, SingleHostAnswersEveryQuantileWithItself)
{
    const std::vector<double> one = {42.0};
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(stats::exactQuantile(one, q), 42.0);
}

TEST(QuantileTest, TwoHostConvention)
{
    const std::vector<double> two = {10.0, 30.0};
    EXPECT_DOUBLE_EQ(stats::exactQuantile(two, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(stats::exactQuantile(two, 0.25), 15.0);
    EXPECT_DOUBLE_EQ(stats::exactQuantile(two, 0.5), 20.0);
    EXPECT_DOUBLE_EQ(stats::exactQuantile(two, 0.99), 29.8);
    EXPECT_DOUBLE_EQ(stats::exactQuantile(two, 1.0), 30.0);
}

TEST(QuantileTest, FmtQuantileReportsNoDataWhenEmpty)
{
    const std::vector<double> empty;
    EXPECT_EQ(stats::fmtQuantile(empty, 0.5, 2), "no data");
    EXPECT_EQ(stats::fmtQuantilePercent(empty, 0.5, 1), "no data");
    const std::vector<double> v = {1.0, 3.0};
    EXPECT_EQ(stats::fmtQuantile(v, 0.5, 2), "2.00");
    EXPECT_EQ(stats::fmtQuantilePercent(v, 0.0, 1), "100.0%");
}

TEST(TableTest, PrintsAlignedColumns)
{
    stats::Table t("demo");
    t.setHeader({"a", "bb"});
    t.addRow({"1", "2"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("1"), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows)
{
    stats::Table t;
    t.setHeader({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), std::invalid_argument);
}

TEST(TableTest, CsvFormat)
{
    stats::Table t;
    t.setHeader({"x", "y"});
    t.addRow({"1", "2"});
    std::ostringstream oss;
    t.printCsv(oss);
    EXPECT_EQ(oss.str(), "x,y\n1,2\n");
}

TEST(FormatTest, Helpers)
{
    EXPECT_EQ(stats::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(stats::fmtPercent(0.1234, 1), "12.3%");
    EXPECT_EQ(stats::fmtBytes(1536.0 * 1024 * 1024), "1.50 GiB");
    EXPECT_EQ(stats::fmtBytes(512.0), "512.0 B");
}

TEST(SeriesPrintTest, AlignedCsvColumns)
{
    stats::TimeSeries a("alpha"), b("beta");
    a.record(0, 1.0);
    a.record(sim::SEC, 2.0);
    b.record(0, 3.0);
    b.record(sim::SEC, 4.0);
    std::ostringstream oss;
    stats::printSeries(oss, {&a, &b}, 1);
    const std::string out = oss.str();
    EXPECT_NE(out.find("time_s,alpha,beta"), std::string::npos);
    EXPECT_NE(out.find("0.0,1.0,3.0"), std::string::npos);
    EXPECT_NE(out.find("1.0,2.0,4.0"), std::string::npos);
}

TEST(SeriesPrintTest, EmptyInputIsSafe)
{
    std::ostringstream oss;
    stats::printSeries(oss, {});
    EXPECT_TRUE(oss.str().empty());
}
