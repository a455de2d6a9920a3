/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Every source of randomness in the simulator flows through an Rng
 * instance that is explicitly seeded, so paired A/B experiment tiers can
 * share identical access streams and every run is reproducible.
 *
 * The core generator is xoshiro256** (public domain, Blackman & Vigna),
 * chosen over std::mt19937_64 for speed and a tiny, copyable state.
 */

#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace tmo::sim
{

/** Parameters of a lognormal: the mean and standard deviation of its
 *  logarithm. */
struct LognormalParams {
    double mu = 0.0;
    double sigma = 0.0;
};

/**
 * Deterministic pseudo-random generator with the distributions the
 * simulator needs (uniform, exponential, normal, lognormal, Zipf).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Re-seed the generator, resetting all state. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value (the xoshiro256** core step). */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random mantissa bits -> [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t
    uniformInt(std::uint64_t n)
    {
        assert(n > 0);
        // Rejection sampling to avoid modulo bias: reject r below
        // (2^64 - n) % n. That threshold is below n, so any r >= n is
        // accepted without the divide computing it.
        for (;;) {
            const std::uint64_t r = next();
            if (r >= n || r >= (0 - n) % n)
                return r % n;
        }
    }

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /** Standard normal via Box-Muller (cached pair). */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Lognormal e^(mu + sigma * N(0, 1)). */
    double lognormal(double mu, double sigma);

    /**
     * The (mu, sigma) of the lognormal with the given median and
     * p99/median ratio, which is how SSD latency specs are usually
     * quoted. A device with a fixed spec computes them once and draws
     * through lognormal().
     *
     * @param median The distribution median (same units as the result).
     * @param p99_over_median Ratio of the 99th percentile to the median;
     *        must be >= 1.
     */
    static LognormalParams lognormalParams(double median,
                                           double p99_over_median);

    /** lognormal() with lognormalParams(median, p99_over_median). */
    double lognormalMedianP99(double median, double p99_over_median);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
    double cachedNormal_;
    bool hasCachedNormal_;
};

/**
 * Zipf(s) sampler over ranks [0, n) using precomputed cumulative
 * weights and binary search. O(log n) per sample, O(n) setup.
 *
 * Rank 0 is the hottest item. s = 0 degenerates to uniform.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of items; must be > 0.
     * @param s Zipf skew exponent (>= 0). Typical workloads: 0.6-1.1.
     */
    ZipfSampler(std::size_t n, double s);

    /** Draw one rank in [0, n). */
    std::size_t sample(Rng &rng) const;

    /** Number of items. */
    std::size_t size() const { return cdf_.size(); }

    /** Probability mass of a single rank. */
    double pmf(std::size_t rank) const;

  private:
    std::vector<double> cdf_;
};

} // namespace tmo::sim
