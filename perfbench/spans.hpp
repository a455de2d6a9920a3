/**
 * @file
 * Wall-clock spans the benchmark records around its own calls into the
 * simulator's layers, and the self-time arithmetic over them.
 */

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tmo::perfbench
{

/** One timed call, [start, end) in ns since the run's origin. */
struct Span {
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** Index of the enclosing span in the same log; -1 for the root. */
    int parent = -1;
};

/**
 * Self time of every span: its duration minus the part of it that its
 * direct children cover. Children may overlap one another (spans
 * recorded on several executor lanes) or run past their parent; each
 * covered nanosecond inside the parent counts once.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** Nearest-rank quantile of @p sorted (ascending, non-empty). */
std::int64_t quantile(const std::vector<std::int64_t> &sorted, double q);

/**
 * The tail percentile for @p n samples: the highest of p99.9, p99,
 * p95, p90, p75 and p50 with at least ten samples beyond it. Below 20
 * samples none qualifies and the tail is the maximum (q = 1).
 */
double tailQuantile(std::size_t n);

/** The spans of one run, opened and closed on the calling thread. */
class SpanLog
{
  public:
    /** @param on When false, open/close/add record nothing. */
    explicit SpanLog(bool on)
        : on_(on), origin_(std::chrono::steady_clock::now())
    {}

    /** Nanoseconds since the log was created; safe from any thread. */
    std::int64_t now() const;

    /** Open a span under @p parent; returns its index (-1 when off). */
    int open(const char *name, int parent);

    /** Close span @p id (no-op for -1). */
    void close(int id);

    /** Record a span closed elsewhere, e.g. on an executor lane. */
    void add(const Span &span);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool on_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
};

} // namespace tmo::perfbench
