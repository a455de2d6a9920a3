/**
 * @file
 * Idle-age accounting (Fig. 2): page counts by idle age, and the
 * per-memcg generation counts that answer idle-age queries without a
 * page-table walk.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/page.hpp"
#include "sim/time.hpp"

namespace tmo::mem
{

/** Fraction of a cgroup's pages by idle age (Fig. 2). */
struct IdleBreakdown {
    double used1min = 0.0;
    double used2min = 0.0; ///< additional fraction (1, 2] min
    double used5min = 0.0; ///< additional fraction (2, 5] min
    double cold = 0.0;     ///< untouched for > 5 min (incl. offloaded)
};

/** Page counts behind one cgroup's IdleBreakdown. */
struct IdleCounts {
    /** Every live page, resident or not. */
    std::uint64_t live = 0;
    std::uint64_t used1min = 0; ///< idle for at most 1 min
    std::uint64_t used2min = 0; ///< idle for (1, 2] min
    std::uint64_t used5min = 0; ///< idle for (2, 5] min

    /** Count one live page last touched at @p last_access. A stamp
     *  later than @p now counts as just touched. */
    void
    add(sim::SimTime last_access, sim::SimTime now)
    {
        const sim::SimTime age = now >= last_access ? now - last_access : 0;
        ++live;
        if (age <= 1 * sim::MINUTE)
            ++used1min;
        else if (age <= 2 * sim::MINUTE)
            ++used2min;
        else if (age <= 5 * sim::MINUTE)
            ++used5min;
    }

    /** The counts as fractions of the live pages (all zero when the
     *  cgroup has none). */
    IdleBreakdown fractions() const;
};

/**
 * Live pages of every memcg counted by generation, the whole second
 * of Page::lastAccess (MGLRU style), so an idle-age query sums a few
 * hundred counters instead of walking the page table.
 *
 * Each memcg keeps a ring of the RING newest generations, ending at
 * the newest counted stamp's; a page whose generation fell out of the
 * ring is counted as older, which every query it serves calls cold.
 * The MemoryManager moves a page's count at every stamp change, and
 * adds and removes pages as they are created and freed. Counting is
 * off until start() fills the counts from the page table.
 *
 * At a whole-second instant q·SEC, a page is idle for at most s whole
 * seconds exactly when its generation is at least q − s, because
 * floor(lastAccess / SEC) >= q − s holds exactly when
 * q·SEC − lastAccess <= s·SEC. So at() is exact at whole seconds; at
 * any other instant, and when the five-minute window reaches below
 * the ring, it has no answer and the caller walks the page table.
 */
class GenerationCounts
{
  public:
    /** Generations each memcg keeps apart (a power of two). */
    static constexpr std::uint64_t RING = 512;

    /** True once start() ran. */
    bool active() const { return !memcgs_.empty(); }

    /** The newest generation's first instant; only a move, advancing
     *  the rings, changes it. */
    sim::SimTime newestStart() const { return newestStart_; }

    /** After start(): true when a stamp moving from @p from to @p to
     *  changes a count, because either lies outside the newest
     *  generation, which starts at @p newest_start (newestStart()). */
    static bool
    moves(sim::SimTime from, sim::SimTime to, sim::SimTime newest_start)
    {
        return std::max(from - newest_start, to - newest_start) >=
               sim::SEC;
    }

    /** Start counting: @p memcg_count memcgs (at least one), filled
     *  from the live pages of @p pages. */
    void start(const std::vector<Page> &pages, std::size_t memcg_count);

    /** Append a memcg with no pages (a later attach). No-op before
     *  start(). */
    void addMemcg();

    /** Count @p pages new live pages of @p memcg stamped @p stamp.
     *  No-op before start(). */
    void
    add(std::uint16_t memcg, sim::SimTime stamp, std::uint32_t pages = 1)
    {
        if (!active())
            return;
        memcgs_[memcg].live += pages;
        slot(memcg, stamp) += pages;
    }

    /** Uncount a freed page of @p memcg stamped @p stamp. No-op
     *  before start(). */
    void
    remove(std::uint16_t memcg, sim::SimTime stamp)
    {
        if (!active())
            return;
        --memcgs_[memcg].live;
        --slot(memcg, stamp);
    }

    /** Move a page of @p memcg from stamp @p from to @p to. Only
     *  after start(). */
    void
    move(std::uint16_t memcg, sim::SimTime from, sim::SimTime to)
    {
        --slot(memcg, from);
        ++slot(memcg, to);
    }

    /** @p memcg's idle counts at @p now, or nullopt when they are not
     *  exact there (see the class comment) or before start(). */
    std::optional<IdleCounts> at(std::uint16_t memcg,
                                 sim::SimTime now) const;

  private:
    /** One memcg's counts. A memcg holds fewer than 2^32 pages
     *  (PageIdx is 32-bit), so 32-bit counters cannot wrap. */
    struct MemcgCounts {
        std::uint32_t live = 0;
        /** Pages whose generation fell out of the ring. */
        std::uint32_t older = 0;
        /** Pages by generation g, at g % RING. */
        std::array<std::uint32_t, RING> ring{};
    };

    /** The counter of @p memcg's pages stamped @p stamp, after
     *  advancing the rings to the stamp's generation if it is newer. */
    std::uint32_t &
    slot(std::uint16_t memcg, sim::SimTime stamp)
    {
        const std::uint64_t gen = stamp / sim::SEC;
        if (gen > head_)
            advance(gen);
        MemcgCounts &counts = memcgs_[memcg];
        return gen + RING > head_ ? counts.ring[gen % RING] : counts.older;
    }

    /** Make @p gen the newest generation: the ring slots it and the
     *  generations before it take over fold into older. */
    void advance(std::uint64_t gen);

    std::vector<MemcgCounts> memcgs_;
    /** Newest generation in the rings: no counted stamp is later. */
    std::uint64_t head_ = 0;
    /** The newest generation's first instant, head_ seconds. */
    sim::SimTime newestStart_ = 0;
};

} // namespace tmo::mem
