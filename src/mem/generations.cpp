#include "mem/generations.hpp"

#include <cassert>

namespace tmo::mem
{

namespace
{

/** First generation whose pages are idle for at most @p limit at the
 *  whole second @p q. */
std::uint64_t
idleSince(std::uint64_t q, sim::SimTime limit)
{
    const std::uint64_t secs = limit / sim::SEC;
    return q > secs ? q - secs : 0;
}

} // namespace

IdleBreakdown
IdleCounts::fractions() const
{
    IdleBreakdown breakdown;
    if (live == 0)
        return breakdown;
    const auto t = static_cast<double>(live);
    breakdown.used1min = static_cast<double>(used1min) / t;
    breakdown.used2min = static_cast<double>(used2min) / t;
    breakdown.used5min = static_cast<double>(used5min) / t;
    breakdown.cold =
        std::max(0.0, 1.0 - breakdown.used1min - breakdown.used2min -
                          breakdown.used5min);
    return breakdown;
}

void
GenerationCounts::start(const std::vector<Page> &pages,
                        std::size_t memcg_count)
{
    assert(memcg_count > 0);
    memcgs_.assign(memcg_count, MemcgCounts{});
    head_ = 0;
    newestStart_ = 0;
    for (const Page &page : pages)
        if (page.memcg != 0xffff) // free slot
            add(page.memcg, page.lastAccess);
}

void
GenerationCounts::addMemcg()
{
    if (active())
        memcgs_.emplace_back();
}

void
GenerationCounts::move(std::uint16_t memcg, sim::SimTime from,
                       sim::SimTime to)
{
    --slot(memcg, from);
    ++slot(memcg, to);
}

std::uint32_t &
GenerationCounts::slot(std::uint16_t memcg, sim::SimTime stamp)
{
    const std::uint64_t gen = stamp / sim::SEC;
    if (gen > head_)
        advance(gen);
    MemcgCounts &counts = memcgs_[memcg];
    return gen + RING > head_ ? counts.ring[gen % RING] : counts.older;
}

void
GenerationCounts::advance(std::uint64_t gen)
{
    // Slot (head_ + k) % RING held generation head_ + k - RING, which
    // leaves the ring once gen reaches head_ + k.
    const std::uint64_t steps = std::min(gen - head_, RING);
    for (MemcgCounts &counts : memcgs_)
        for (std::uint64_t k = 1; k <= steps; ++k) {
            std::uint32_t &leaving = counts.ring[(head_ + k) % RING];
            counts.older += leaving;
            leaving = 0;
        }
    head_ = gen;
    newestStart_ = gen * sim::SEC;
}

std::optional<IdleCounts>
GenerationCounts::at(std::uint16_t memcg, sim::SimTime now) const
{
    if (!active() || now % sim::SEC != 0)
        return std::nullopt;
    const std::uint64_t q = now / sim::SEC;
    const std::uint64_t since1 = idleSince(q, 1 * sim::MINUTE);
    const std::uint64_t since2 = idleSince(q, 2 * sim::MINUTE);
    const std::uint64_t since5 = idleSince(q, 5 * sim::MINUTE);
    if (since5 + RING <= head_)
        return std::nullopt; // the window reaches below the ring
    const MemcgCounts &counts = memcgs_[memcg];
    // Pages of generations [first, end), all inside the ring.
    const auto sum = [&](std::uint64_t first, std::uint64_t end) {
        std::uint64_t pages = 0;
        for (std::uint64_t g = first; g < std::min(end, head_ + 1); ++g)
            pages += counts.ring[g % RING];
        return pages;
    };
    IdleCounts idle;
    idle.live = counts.live;
    // Up to the newest generation: a stamp later than now counts as
    // just touched.
    idle.used1min = sum(since1, head_ + 1);
    idle.used2min = sum(since2, since1);
    idle.used5min = sum(since5, since2);
    return idle;
}

} // namespace tmo::mem
