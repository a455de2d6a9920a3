#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace tmo::perfbench
{

namespace
{

/** 1-based nearest rank of quantile @p q among @p n > 0 samples. */
std::size_t
rankOf(double q, std::size_t n)
{
    // The epsilon keeps q * n from rounding up past an exact rank
    // (p90 of 100 samples is rank 90, not 91).
    const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(
        static_cast<std::size_t>(std::max(rank, 1.0)), 1, n);
}

} // namespace

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &span : spans)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.start, span.end);

    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        // End of the union of the children visited so far.
        std::int64_t reach = spans[i].start;
        for (const auto &[begin, end] : kids) {
            const std::int64_t from = std::max(begin, reach);
            const std::int64_t to = std::min(end, spans[i].end);
            if (to > from) {
                covered += to - from;
                reach = to;
            }
        }
        self[i] = spans[i].end - spans[i].start - covered;
    }
    return self;
}

std::int64_t
quantile(const std::vector<std::int64_t> &sorted, double q)
{
    return sorted[rankOf(q, sorted.size()) - 1];
}

double
tailQuantile(std::size_t n)
{
    if (n < 20)
        return 1.0;
    for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75})
        if (n - rankOf(q, n) >= 10)
            return q;
    return 0.5;
}

std::int64_t
SpanLog::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
SpanLog::open(const char *name, int parent)
{
    if (!on_)
        return -1;
    spans_.push_back(Span{name, now(), 0, parent});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::close(int id)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].end = now();
}

void
SpanLog::add(const Span &span)
{
    if (on_)
        spans_.push_back(span);
}

} // namespace tmo::perfbench
