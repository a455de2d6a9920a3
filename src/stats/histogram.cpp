#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "sim/thread_annotations.hpp"

namespace tmo::stats
{

/**
 * Exact bucket lookup for one geometry. bound[i] is the smallest
 * double that log10Bucket() puts in bucket i or above (i >= 1). A
 * positive double's bit pattern grows with its value, so its top bits
 * name a cell of the value line. A cell is under a quarter of a
 * bucket wide, so it holds at most one bound; cellBucket holds the
 * bucket of each cell's smallest value, and at most one step over
 * bound[] finishes a lookup.
 */
struct Histogram::BoundTable {
    double logMin = 0.0;
    double logStep = 0.0;
    std::size_t buckets = 0;
    /** A value's cell is (its bits >> shift) - firstCell, clamped. */
    int shift = 0;
    std::uint64_t firstCell = 0;
    std::uint64_t lastCell = 0;
    std::vector<std::uint32_t> cellBucket;
    std::vector<double> bound;
};

namespace
{

/**
 * The bucket formula: floor((log10(value) - log_min) / log_step),
 * clamped to [0, buckets - 1]. Values at or below 0 and NaN go to
 * bucket 0. The upper clamp is tested before the cast, so +inf and
 * huge values never convert out of range.
 */
std::size_t
log10Bucket(double value, double log_min, double log_step,
            std::size_t buckets)
{
    if (!(value > 0.0))
        return 0;
    const double pos = (std::log10(value) - log_min) / log_step;
    if (pos < 0.0)
        return 0;
    if (pos >= static_cast<double>(buckets - 1))
        return buckets - 1;
    return static_cast<std::size_t>(pos);
}

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

double
valueOf(std::uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof value);
    return value;
}

} // namespace

const Histogram::BoundTable &
Histogram::sharedTable(double log_min, double log_step,
                       std::size_t buckets)
{
    // Every table built so far. Tables are never freed, so a
    // histogram keeps a plain pointer to its own.
    struct Registry {
        std::mutex mutex;
        std::vector<std::unique_ptr<const BoundTable>> tables
            GUARDED_BY(mutex);
    };
    static Registry registry;
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (const auto &table : registry.tables)
        if (table->logMin == log_min && table->logStep == log_step &&
            table->buckets == buckets)
            return *table;

    auto table = std::make_unique<BoundTable>();
    table->logMin = log_min;
    table->logStep = log_step;
    table->buckets = buckets;
    const auto bucket = [&](double value) {
        return log10Bucket(value, log_min, log_step, buckets);
    };
    // Each bound starts at 10^(log_min + i * log_step), a few ulps
    // from where the formula changes bucket, and steps one ulp at a
    // time to the smallest double the formula puts at i or above. The
    // walk ends: the formula gives 0 at 0 and buckets - 1 at +inf.
    table->bound.assign(buckets, 0.0);
    for (std::size_t i = 1; i < buckets; ++i) {
        double x = std::pow(
            10.0, log_min + static_cast<double>(i) * log_step);
        if (bucket(x) >= i) {
            while (bucket(std::nextafter(x, 0.0)) >= i)
                x = std::nextafter(x, 0.0);
        } else {
            while (bucket(x) < i)
                x = std::nextafter(x, HUGE_VAL);
        }
        table->bound[i] = x;
    }

    // Cells: keep enough mantissa bits that a cell spans at most a
    // quarter of the narrowest bucket (ratio 10^log_step).
    const double cell_width = (std::pow(10.0, log_step) - 1.0) / 4.0;
    int mantissa_bits = 0;
    while (mantissa_bits < 52 &&
           std::ldexp(1.0, -mantissa_bits) > cell_width)
        ++mantissa_bits;
    table->shift = 52 - mantissa_bits;
    if (buckets > 1) {
        // The first cell ends below bound[1], so every value clamped
        // into it starts at bucket 0; values above the last cell scan
        // forward from its bucket.
        table->firstCell = (bitsOf(table->bound[1]) - 1) >> table->shift;
        table->lastCell = bitsOf(table->bound[buckets - 1]) >> table->shift;
    }
    table->cellBucket.resize(table->lastCell - table->firstCell + 1);
    std::size_t idx = 0;
    for (std::uint64_t cell = table->firstCell; cell <= table->lastCell;
         ++cell) {
        const double lowest = valueOf(cell << table->shift);
        while (idx + 1 < buckets && table->bound[idx + 1] <= lowest)
            ++idx;
        table->cellBucket[cell - table->firstCell] =
            static_cast<std::uint32_t>(idx);
    }
    registry.tables.push_back(std::move(table));
    return *registry.tables.back();
}

Histogram::Histogram(double min_value, double max_value,
                     int buckets_per_decade)
{
    if (!std::isfinite(min_value) || min_value <= 0.0)
        throw std::invalid_argument(
            "Histogram: min_value must be finite and > 0, got " +
            std::to_string(min_value));
    if (!std::isfinite(max_value) || max_value <= min_value)
        throw std::invalid_argument(
            "Histogram: max_value must be finite and > min_value " +
            std::to_string(min_value) + ", got " +
            std::to_string(max_value));
    if (buckets_per_decade <= 0)
        throw std::invalid_argument(
            "Histogram: buckets_per_decade must be > 0, got " +
            std::to_string(buckets_per_decade));
    logMin_ = std::log10(min_value);
    logStep_ = 1.0 / buckets_per_decade;
    const double decades = std::log10(max_value) - logMin_;
    counts_.assign(
        static_cast<std::size_t>(std::ceil(decades / logStep_)) + 1, 0);
}

std::size_t
Histogram::indexFor(const BoundTable &table, double value)
{
    if (!(value > 0.0))
        return 0;
    const std::uint64_t cell =
        std::clamp(bitsOf(value) >> table.shift, table.firstCell,
                   table.lastCell);
    std::size_t idx = table.cellBucket[cell - table.firstCell];
    while (idx + 1 < table.buckets && value >= table.bound[idx + 1])
        ++idx;
    return idx;
}

std::size_t
Histogram::bucketOf(double value) const
{
    return indexFor(sharedTable(logMin_, logStep_, counts_.size()), value);
}

void
Histogram::add(double value)
{
    if (!table_)
        table_ = &sharedTable(logMin_, logStep_, counts_.size());
    ++counts_[indexFor(*table_, value)];
    minSeen_ = count_ ? std::min(minSeen_, value) : value;
    ++count_;
    sum_ += value;
    maxSeen_ = std::max(maxSeen_, value);
}

double
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double next = cumulative + static_cast<double>(counts_[i]);
        if (next >= target && counts_[i] > 0) {
            const double frac =
                (target - cumulative) / static_cast<double>(counts_[i]);
            // Bucket bounds in value space. The edge buckets absorb
            // out-of-range samples, so their log-spaced bounds lie:
            // interpolate the overflow bucket up to the largest sample
            // actually seen and the underflow bucket down from the
            // smallest, instead of fabricating an in-range value.
            const double lo_log = logMin_ + static_cast<double>(i) * logStep_;
            double lo = std::pow(10.0, lo_log);
            double hi = std::pow(10.0, lo_log + logStep_);
            if (i + 1 == counts_.size())
                hi = std::max(maxSeen_, lo);
            if (i == 0)
                lo = std::min(minSeen_, hi);
            // Interpolate in log space when possible (log-spaced
            // buckets), linearly when the edge extends to <= 0.
            double value;
            if (lo > 0.0)
                value = std::pow(10.0, std::log10(lo) +
                                           frac * (std::log10(hi) -
                                                   std::log10(lo)));
            else
                value = lo + frac * (hi - lo);
            // Never report outside the observed sample range; this
            // also makes q -> 1 return exactly the recorded maximum.
            return std::clamp(value, minSeen_, maxSeen_);
        }
        cumulative = next;
    }
    return maxSeen_;
}

void
Histogram::merge(const Histogram &other)
{
    if (logMin_ != other.logMin_ || logStep_ != other.logStep_ ||
        counts_.size() != other.counts_.size())
        throw std::invalid_argument(
            "Histogram::merge: bucket geometry mismatch");
    if (other.count_ == 0)
        return;
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    minSeen_ = count_ ? std::min(minSeen_, other.minSeen_)
                      : other.minSeen_;
    maxSeen_ = std::max(maxSeen_, other.maxSeen_);
    count_ += other.count_;
    sum_ += other.sum_;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    maxSeen_ = 0.0;
    minSeen_ = 0.0;
}

} // namespace tmo::stats
