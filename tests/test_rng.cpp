/**
 * @file
 * Unit and statistical tests for the deterministic RNG and the Zipf
 * sampler.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/rng.hpp"

using namespace tmo;

TEST(RngTest, DeterministicForSameSeed)
{
    sim::Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    sim::Rng a(123), b(124);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(RngTest, ReseedResets)
{
    sim::Rng a(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 10; ++i)
        first.push_back(a.next());
    a.seed(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.next(), first[i]);
}

TEST(RngTest, UniformInUnitInterval)
{
    sim::Rng rng(1);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, UniformRange)
{
    sim::Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(5.0, 9.0);
        ASSERT_GE(u, 5.0);
        ASSERT_LT(u, 9.0);
    }
}

TEST(RngTest, UniformIntBounds)
{
    sim::Rng rng(3);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[rng.uniformInt(10)];
    for (const int c : counts)
        EXPECT_NEAR(c, 10000, 600);
}

namespace
{

/** uniformInt as first written: the rejection threshold is computed,
 *  with a second divide, on every call. */
std::uint64_t
referenceUniformInt(sim::Rng &rng, std::uint64_t n)
{
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        const std::uint64_t r = rng.next();
        if (r >= threshold)
            return r % n;
    }
}

} // namespace

TEST(RngTest, UniformIntMatchesTwoDivideReference)
{
    // uniformInt must accept exactly the draws the reference accepts,
    // so every simulated sequence stays bit-identical. The n above
    // 2^32 make r < n common, the only case that computes the
    // threshold.
    const std::uint64_t p32 = 1ull << 32, p63 = 1ull << 63;
    const std::uint64_t ns[] = {1, 2, 3, 6151, p32 + 15, p63, p63 + 1, ~0ull};
    for (const std::uint64_t n : ns) {
        sim::Rng rng(99), reference(99);
        for (int i = 0; i < 100000; ++i)
            ASSERT_EQ(rng.uniformInt(n), referenceUniformInt(reference, n))
                << "n = " << n << ", draw " << i;
        // Same number of rejected draws: the streams stay aligned.
        EXPECT_EQ(rng.next(), reference.next()) << "n = " << n;
    }
}

TEST(RngTest, ChanceExtremes)
{
    sim::Rng rng(4);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngTest, ChanceProbability)
{
    sim::Rng rng(5);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean)
{
    sim::Rng rng(6);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.exponential(40.0);
        ASSERT_GE(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / 100000.0, 40.0, 1.5);
}

TEST(RngTest, NormalMoments)
{
    sim::Rng rng(7);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(10.0, 2.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, LognormalMedianAndTail)
{
    sim::Rng rng(8);
    std::vector<double> samples;
    const int n = 200000;
    samples.reserve(n);
    for (int i = 0; i < n; ++i)
        samples.push_back(rng.lognormalMedianP99(100.0, 10.0));
    std::sort(samples.begin(), samples.end());
    const double median = samples[n / 2];
    const double p99 = samples[static_cast<int>(n * 0.99)];
    EXPECT_NEAR(median, 100.0, 3.0);
    EXPECT_NEAR(p99 / median, 10.0, 1.0);
}

TEST(ZipfTest, RejectsEmpty)
{
    EXPECT_THROW(sim::ZipfSampler(0, 1.0), std::invalid_argument);
}

TEST(ZipfTest, PmfSumsToOne)
{
    sim::ZipfSampler zipf(100, 0.9);
    double sum = 0.0;
    for (std::size_t i = 0; i < zipf.size(); ++i)
        sum += zipf.pmf(i);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroIsHottest)
{
    sim::ZipfSampler zipf(1000, 1.0);
    EXPECT_GT(zipf.pmf(0), zipf.pmf(1));
    EXPECT_GT(zipf.pmf(1), zipf.pmf(999));
}

TEST(ZipfTest, ZeroSkewIsUniform)
{
    sim::ZipfSampler zipf(50, 0.0);
    for (std::size_t i = 0; i < 50; ++i)
        EXPECT_NEAR(zipf.pmf(i), 1.0 / 50.0, 1e-12);
}

TEST(ZipfTest, SamplingMatchesPmf)
{
    sim::Rng rng(9);
    sim::ZipfSampler zipf(20, 0.8);
    std::vector<int> counts(20, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(rng)];
    for (std::size_t i = 0; i < 20; ++i) {
        const double expected = zipf.pmf(i) * n;
        EXPECT_NEAR(counts[i], expected, 5.0 * std::sqrt(expected) + 10);
    }
}
