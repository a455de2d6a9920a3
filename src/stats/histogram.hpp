/**
 * @file
 * Log-bucketed histogram for latency-style distributions.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace tmo::stats
{

/**
 * Histogram with logarithmically spaced buckets, suitable for values
 * spanning several orders of magnitude (device latencies in ns).
 * Percentile queries interpolate within the matched bucket.
 *
 * A sample's bucket is floor((log10(value) - log10(min_value)) / step)
 * with step = 1 / buckets_per_decade, clamped to the edge buckets.
 * add() finds it without a log10: it looks the value up in a table of
 * the smallest double of each bucket under that formula. One table
 * serves every histogram of the same geometry in the process; the
 * first add() of a geometry builds it.
 */
class Histogram
{
  public:
    /**
     * @param min_value Lower bound of the first bucket (finite, > 0).
     * @param max_value Upper bound of the last regular bucket (finite,
     *        > min_value).
     * @param buckets_per_decade Resolution (> 0; default 20: ~12% wide
     *        buckets).
     * @throws std::invalid_argument naming the first argument out of
     *         range.
     */
    Histogram(double min_value = 1.0, double max_value = 1e12,
              int buckets_per_decade = 20);

    /** Record one sample. Out-of-range samples clamp to the edge buckets. */
    void add(double value);

    /**
     * The bucket add() counts @p value in: 0 for zero, negative and
     * NaN values, the last bucket for values at or above its lower
     * bound (+inf included), and otherwise the bucket of the log10
     * formula above.
     */
    std::size_t bucketOf(double value) const;

    /** Number of recorded samples. */
    std::uint64_t count() const { return count_; }

    /** Mean of recorded samples. */
    double mean() const;

    /**
     * Approximate quantile, q in [0, 1]. Returns 0 when empty.
     *
     * Results are monotone in q and bounded by the observed sample
     * range [min(), max()]: out-of-range samples clamp into the edge
     * buckets on add(), so the edge buckets interpolate against the
     * recorded extremes instead of the log-spaced bucket bounds (a
     * p99/p100 of a latency spike beyond max_value reports the spike,
     * not a fabricated in-range value). q = 1 returns exactly max().
     */
    double quantile(double q) const;

    /** Shorthand percentiles. */
    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p99() const { return quantile(0.99); }
    double p999() const { return quantile(0.999); }

    /**
     * Fold another histogram's samples into this one. Both histograms
     * must share the same bucket geometry (min/max/resolution);
     * otherwise std::invalid_argument. Quantiles of the merged
     * histogram equal those of a histogram fed both sample streams —
     * the basis for fleet-level latency percentiles, where merging
     * per-host histograms in host-index order keeps results
     * independent of the job count.
     */
    void merge(const Histogram &other);

    /** Largest recorded sample. */
    double max() const { return maxSeen_; }

    /** Smallest recorded sample (0 when empty). */
    double min() const { return count_ ? minSeen_ : 0.0; }

    /** Drop all samples. */
    void reset();

  private:
    /** Per-geometry lookup table (histogram.cpp). */
    struct BoundTable;

    /** The process-wide table of one geometry, built on first use. */
    static const BoundTable &sharedTable(double log_min, double log_step,
                                         std::size_t buckets);

    /** bucketOf() through @p table. */
    static std::size_t indexFor(const BoundTable &table, double value);

    double logMin_;
    double logStep_;
    /** This geometry's shared bound table; set by the first add(). */
    const BoundTable *table_ = nullptr;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double maxSeen_ = 0.0;
    double minSeen_ = 0.0;
};

} // namespace tmo::stats
