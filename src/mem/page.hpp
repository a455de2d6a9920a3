/**
 * @file
 * Page representation.
 *
 * The simulator models memory at page granularity. A Page object
 * represents a *logical* page of a workload for its whole lifetime,
 * whether it is resident in DRAM, compressed in zswap, in a swap slot
 * on the SSD, or (for file pages) only on the filesystem. This lets
 * shadow-entry information for refault detection live directly in the
 * page instead of in a separate radix tree.
 */

#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace tmo::mem
{

/** Index of a page within the host's page array. */
using PageIdx = std::uint32_t;

/** Sentinel: no page / end of list. */
inline constexpr PageIdx NO_PAGE = 0xffffffffu;

/** Where the page's current authoritative copy lives. */
enum class Where : std::uint8_t {
    /** Resident in DRAM (on an LRU list). */
    RAM,
    /** Compressed in the zswap pool. */
    ZSWAP,
    /** In a swap slot on the SSD. */
    SWAP,
    /** File page not in the page cache (only on the filesystem). */
    FS,
    /** The page's only copy died with an unsavable tier: the next
     *  access is a hard major fault that re-creates the page
     *  (zero-fill after an IO error). */
    LOST,
};

/** Page flag bits. */
enum PageFlags : std::uint8_t {
    /** Anonymous (swap-backed) rather than file-backed. */
    PG_ANON = 1u << 0,
    /** Referenced since the last LRU scan (second-chance bit). */
    PG_REFERENCED = 1u << 1,
    /** Was part of the working set when last evicted. */
    PG_WORKINGSET = 1u << 2,
    /** Dirty file page: eviction requires writeback. */
    PG_DIRTY = 1u << 3,
    /** Offloaded page linked on a per-(memcg, tier) list of its
     *  owning TierChain (background promotion/demotion scans). */
    PG_TIER_LISTED = 1u << 4,
};

/** The LRU list a resident page is on. */
enum class LruKind : std::uint8_t {
    INACTIVE_ANON = 0,
    ACTIVE_ANON = 1,
    INACTIVE_FILE = 2,
    ACTIVE_FILE = 3,
    NONE = 4,
};

/** Number of real LRU lists. */
inline constexpr std::size_t NUM_LRU_LISTS = 4;

/** True for the two anon lists. */
inline constexpr bool
lruIsAnon(LruKind kind)
{
    return kind == LruKind::INACTIVE_ANON || kind == LruKind::ACTIVE_ANON;
}

/** True for the two active lists. */
inline constexpr bool
lruIsActive(LruKind kind)
{
    return kind == LruKind::ACTIVE_ANON || kind == LruKind::ACTIVE_FILE;
}

/**
 * One logical page — the *hot* per-page state only. Kept small (32
 * bytes, pinned below) because hosts hold millions of them and reclaim
 * walks them by the cache line. Cold, rarely-touched state lives in
 * parallel arrays owned by the MemoryManager (SoA layout): the shadow
 * age (refault detection, read only on eviction and refault) is in
 * `MemoryManager::shadowAges_`, addressed by the same PageIdx.
 */
struct Page {
    /** LRU linkage (indices into the host page array). */
    PageIdx prev = NO_PAGE;
    PageIdx next = NO_PAGE;
    /** Owning memory-cgroup id (index into the manager's table). */
    std::uint16_t memcg = 0;
    std::uint8_t flags = 0;
    /** Offload store holding this page while it is offloaded (index
     *  into the manager's backend registry; 0xff = none). Kept per
     *  page so faults resolve correctly across backend switches. */
    std::uint8_t store = 0xff;
    Where where = Where::FS;
    LruKind lru = LruKind::NONE;
    /**
     * Saturating hotness counter for tiered placement (TPP-style):
     * bumped on faults and activations, halved per elapsed decay
     * epoch (see decayedHeat). Lives in what used to be struct
     * padding, so it costs the Page no bytes.
     */
    std::uint8_t heat = 0;
    /** Decay epoch heat was last normalized to (wrapping uint8; a
     *  wrap after 256 idle epochs reads as fresh heat 0 — benign). */
    std::uint8_t heatEpoch = 0;
    /** Bytes occupied in the offload backend while offloaded. */
    std::uint32_t storedBytes = 0;
    /** Last access time, for idle/coldness tracking (Fig. 2): the
     *  page's one recency stamp outside the LRU order, written by
     *  every access. Its whole second is the page's generation in
     *  the GenerationCounts behind MemoryManager::idleBreakdown, so
     *  only the manager may write it once those counts started. */
    sim::SimTime lastAccess = 0;

    bool isAnon() const { return flags & PG_ANON; }
    bool referenced() const { return flags & PG_REFERENCED; }
    bool resident() const { return where == Where::RAM; }
};

/**
 * Fleet-scale footprint pin: 8 bytes of LRU linkage, 8 bytes of
 * packed ids and state, 4 bytes storedBytes (+4 padding), 8 bytes
 * lastAccess. A size bump here multiplies across every page of every
 * host — split new cold fields into a manager-side array instead.
 */
static_assert(sizeof(Page) == 32, "Page grew past 32 bytes; "
                                  "move cold fields to SoA arrays");

/**
 * Length of one hotness decay epoch: a page's heat counter is halved
 * per elapsed epoch (tiered placement, TPP-style). Only consulted
 * when a cgroup runs a TierChain.
 */
inline constexpr sim::SimTime HEAT_DECAY_PERIOD = 30 * sim::SEC;

/** Decay epoch at @p now. */
inline std::uint8_t
heatEpochAt(sim::SimTime now)
{
    return static_cast<std::uint8_t>(now / HEAT_DECAY_PERIOD);
}

/**
 * The page's heat normalized to @p epoch: halved once per elapsed
 * decay epoch (right shift), zero after 8 idle epochs. Pure — does
 * not rewrite the stored counter.
 */
inline unsigned
decayedHeat(const Page &page, std::uint8_t epoch)
{
    const std::uint8_t delta =
        static_cast<std::uint8_t>(epoch - page.heatEpoch);
    return delta >= 8 ? 0u
                      : static_cast<unsigned>(page.heat) >> delta;
}

/** Age the page's heat to @p epoch and add @p increment (saturating). */
inline void
touchHeat(Page &page, std::uint8_t epoch, unsigned increment)
{
    const unsigned heat = decayedHeat(page, epoch) + increment;
    page.heat = static_cast<std::uint8_t>(heat > 0xff ? 0xff : heat);
    page.heatEpoch = epoch;
}

} // namespace tmo::mem
