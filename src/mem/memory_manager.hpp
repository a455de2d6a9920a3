/**
 * @file
 * Host memory management: allocation, fault handling, and reclaim.
 *
 * This is the simulator's stand-in for the Linux MM subsystem the
 * paper modifies (§3.4): per-cgroup active/inactive LRU lists,
 * non-resident (shadow entry) tracking with refault detection, and a
 * reclaim algorithm that — in TMO mode — reclaims exclusively from
 * file cache until refaults occur and then balances file reclaim
 * against anonymous swap by relative IO cost. A legacy mode reproduces
 * the historic swap-as-emergency-overflow behaviour for ablation.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/backend.hpp"
#include "cgroup/cgroup.hpp"
#include "mem/generations.hpp"
#include "mem/lru.hpp"
#include "mem/page.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "stats/ewma.hpp"

namespace tmo::obs
{
class TraceRing;
}

namespace tmo::tier
{
class TierChain;
}

namespace tmo::mem
{

/** Reclaim algorithm selection. */
enum class ReclaimMode {
    /**
     * TMO (§3.4): file-only until refaults appear, then balance file
     * vs. anon scanning by relative refault / swap-in cost.
     */
    TMO_BALANCED,
    /**
     * Pre-TMO kernel behaviour: skew heavily towards file cache and
     * touch swap only when file cache is nearly exhausted.
     */
    LEGACY_FILE_FIRST,
};

/** Static memory-manager configuration. */
struct MemoryConfig {
    /** Host DRAM capacity. */
    std::uint64_t ramBytes = 4ull << 30;
    /** Page size (coarser than 4 KiB to keep page counts tractable;
     *  all reported quantities are bytes/ratios, so this is benign). */
    std::uint32_t pageBytes = 64 * 1024;
    /** Reclaim algorithm (TMO vs. legacy). */
    ReclaimMode mode = ReclaimMode::TMO_BALANCED;
    /** kswapd keeps free memory above this fraction of capacity. */
    double kswapdWatermark = 0.02;
    /** CPU time per scanned page charged to direct reclaim. */
    double reclaimUsPerPage = 0.3;
    /** Pages scanned per reclaim batch. */
    std::uint32_t scanBatch = 32;
    /** Demote when inactive < active * inactiveRatio. */
    double inactiveRatio = 0.5;
    /** Half life of the anon/file cost balance (seconds). */
    double costHalfLifeSec = 120.0;
    /**
     * LRU mis-aging: probability, per evicted page, that a page from
     * the active tail is demoted straight to the inactive tail. Models
     * the sampling-based LRU ordering the paper describes (§5.3: "we
     * rely on sampling in software to maintain the LRU ordering...
     * the overhead scales with the targeted paging rate") — working-
     * set evictions grow with reclaim volume, which is what makes
     * over-aggressive configurations hurt (Fig. 13).
     */
    double lruMisagingRate = 0.10;
    /**
     * Length of one hotness decay epoch: a page's heat counter is
     * halved per elapsed epoch (tiered placement, TPP-style). Only
     * consulted when a cgroup runs a TierChain.
     */
    sim::SimTime heatDecayPeriod = 30 * sim::SEC;
};

/** Outcome of one page access. */
struct AccessResult {
    /** Page was not resident and had to be brought in. */
    bool faulted = false;
    /** The fault was a refault of recently evicted working set. */
    bool refault = false;
    /** Stall time counting towards memory pressure. */
    sim::SimTime memStall = 0;
    /** Stall time counting towards IO pressure. */
    sim::SimTime ioStall = 0;
};

/** Result of a reclaim pass. */
struct ReclaimOutcome {
    std::uint64_t reclaimedBytes = 0;
    std::uint64_t scannedPages = 0;
    std::uint64_t anonPages = 0;
    std::uint64_t filePages = 0;
    /** CPU time consumed (charged as memstall on direct reclaim). */
    sim::SimTime cpuTime = 0;
};

/** Result of one background tier-maintenance pass. */
struct TierMaintainOutcome {
    /** Pages moved down the chain (heat decayed below their tier). */
    std::uint64_t demotedPages = 0;
    /** Pages moved up the chain (hot but stuck low after an earlier
     *  fall-through). */
    std::uint64_t promotedPages = 0;
    /** Pages drained off evacuating (offline / long-FAILED) tiers. */
    std::uint64_t evacuatedPages = 0;
    /** Pages whose only copy died with an unsavable tier. */
    std::uint64_t lostPages = 0;
    /** Uncompressed bytes moved (counts against the chain budget). */
    std::uint64_t movedBytes = 0;
    /** Device time consumed by the moves (store + load latencies). */
    sim::SimTime deviceTime = 0;
    /** CPU time for the scans (reclaimUsPerPage per examined page). */
    sim::SimTime cpuTime = 0;
};

/** Per-cgroup memory breakdown for reports. */
struct CgMemInfo {
    std::uint64_t anonBytes = 0;
    std::uint64_t fileBytes = 0;
    std::uint64_t zswapBytes = 0;  ///< DRAM held by compressed pages
    std::uint64_t swapBytes = 0;   ///< SSD swap slots in use
    std::uint64_t residentBytes = 0;
};

/**
 * Per-cgroup memory state (the kernel's mem_cgroup + lruvec).
 * Exposed for tests and the reclaim implementation.
 */
struct MemCg {
    cgroup::Cgroup *cg = nullptr;
    /** This memcg's slot in the manager's table — cached at attach
     *  time so per-page paths never scan the table (Page::memcg holds
     *  the same value). */
    std::uint16_t index = 0;
    LruVec lru;
    /**
     * The tier chain behind this cgroup's anon pages; nullptr =
     * file-only mode (no swapping). Reclaim places pages by hotness
     * (or the working-set rule) and falls through rejected stores
     * down the chain (§5.2); controllers read its aggregate status
     * and utilization. A one-tier chain is a single backend.
     */
    tier::TierChain *anonChain = nullptr;
    /**
     * Per-tier lists of this cgroup's offloaded pages (index =
     * chain tier), insertion-ordered newest first: every page the
     * current chain stored. They reuse Page::prev/next — free while
     * a page is off the resident LRUs — so background
     * demotion/promotion scans touch only this cgroup's pages on the
     * affected tier. Sized by attach() and setAnonChain().
     */
    std::vector<LruList> tierLists;
    /** Bytes this cgroup stores per chain tier (occupancy metrics). */
    std::vector<std::uint64_t> tierBytes;
    /** Filesystem backend for file pages. */
    backend::OffloadBackend *fileBackend = nullptr;
    /** Mean compression ratio of this workload's anon data. */
    double compressibility = 3.0;

    /** Non-resident age: bumped on every file eviction (shadow entries). */
    std::uint64_t nonresidentAge = 0;
    /** Anon-side non-resident age (workingset detection for anonymous
     *  pages, as in kernels >= 5.9). */
    std::uint64_t nonresidentAgeAnon = 0;

    /** Decaying reclaim-cost balance (kernel lru_note_cost). */
    double anonCost = 0.0;
    double fileCost = 0.0;
    sim::SimTime lastCostDecay = 0;

    /** Smoothed swap-in (promotion) rate, pages/s. */
    stats::RateMeter swapinRate;
    /** Smoothed file refault rate, pages/s. */
    stats::RateMeter refaultRate;
    /** Smoothed swap-out rate, bytes/s (write-endurance view). */
    stats::RateMeter swapoutBytes;

    /** Bytes of offloaded pages in host-DRAM tiers (zswap) and in
     *  the other tiers (swap, NVM); written only by
     *  MemoryManager::chargeOffload/unchargeOffload. */
    std::uint64_t zswapBytes = 0;
    std::uint64_t swapBytes = 0;
    /** Pages the backend refused (incompressible / swap full). */
    std::uint64_t storeRejects = 0;
    /** Pages currently in Where::LOST (copy died with its tier). */
    std::uint64_t lostPages = 0;
};

/**
 * The host memory manager.
 *
 * Thread model: single-threaded, driven by the simulation loop.
 * All byte amounts are multiples of pageBytes internally.
 */
class MemoryManager
{
  public:
    MemoryManager(MemoryConfig config, std::uint64_t seed = 3);

    MemoryManager(const MemoryManager &) = delete;
    MemoryManager &operator=(const MemoryManager &) = delete;

    // --- setup ---------------------------------------------------------

    /**
     * Put a cgroup under memory management and install its
     * memory.reclaim hook.
     *
     * Registers tier 0, the file backend, then the other tiers (the
     * order fixes every Page::store value) before anything else
     * changes, so a full backend registry throws std::length_error
     * with the manager as it was.
     *
     * @param cg The container.
     * @param chain Tier chain for anon pages (nullptr: file-only).
     *        Reclaim places pages across its tiers and tierMaintain()
     *        moves them as their hotness changes.
     * @param file_backend Backend for file pages (required to create
     *        file pages).
     * @param compressibility Mean anon compression ratio.
     */
    MemCg &attach(cgroup::Cgroup &cg, tier::TierChain *chain,
                  backend::OffloadBackend *file_backend,
                  double compressibility = 3.0);

    /**
     * Switch a cgroup onto another tier chain, or file-only with
     * nullptr (phase changes, e.g. Fig. 11). Pages offloaded under
     * the old chain drop off the tier lists and stay put until
     * faulted back. The new tiers are registered first: a full
     * registry throws std::length_error and leaves the cgroup on its
     * old chain, tier lists included.
     */
    void setAnonChain(cgroup::Cgroup &cg, tier::TierChain *chain);

    // --- page lifecycle -------------------------------------------------

    /**
     * Create one page owned by @p cg.
     *
     * Anonymous pages are created resident (allocation is the first
     * touch) and may trigger direct reclaim when memory is tight; the
     * stall is reported through @p result. File pages can be created
     * non-resident (@p resident = false), modelling files not yet read.
     */
    PageIdx newPage(cgroup::Cgroup &cg, bool anon, bool resident,
                    sim::SimTime now, AccessResult *result = nullptr);

    /**
     * Pre-size the page table (and its parallel cold arrays) for
     * @p page_count total pages so steady-state growth never
     * reallocates mid-run. Called by the Host for each app's declared
     * footprint; growing past the reservation stays correct (newPage
     * reallocates as before), just slower. Capped at NO_PAGE.
     */
    void reservePages(std::uint64_t page_count);

    /**
     * Touch a page: LRU bookkeeping on hit, full fault path on miss
     * (backend read, refault detection, residency charge).
     *
     * Inline for the common case, a resident page that stays on its
     * list: an active page, or an inactive one on its first touch
     * since the last scan. It only gets its stamp and the referenced
     * bit, at no stall; the stamp moves its generation count only
     * when the old stamp or @p now leaves the newest generation, and
     * never on a host idleBreakdown() has not queried. A second touch
     * while inactive (activation) and every non-resident page take
     * accessSlow().
     */
    AccessResult
    access(PageIdx idx, sim::SimTime now)
    {
        Page &page = pages_[idx];
        const bool inactive = page.lru == LruKind::INACTIVE_ANON ||
                              page.lru == LruKind::INACTIVE_FILE;
        if (page.where != Where::RAM || (inactive && page.referenced()))
            return accessSlow(idx, now);
        stamp(page, now);
        page.flags |= PG_REFERENCED;
        return AccessResult{};
    }

    /** Release a page entirely (workload freed the memory). */
    void freePage(PageIdx idx);

    // --- reclaim ---------------------------------------------------------

    /**
     * Reclaim up to @p bytes from @p cg's subtree. This implements the
     * memory.reclaim control file; Senpai's proactive reclaim enters
     * here and does NOT stall the workload (the cost shows up later as
     * refaults, exactly as in production).
     */
    ReclaimOutcome reclaim(cgroup::Cgroup &cg, std::uint64_t bytes,
                           sim::SimTime now);

    /**
     * Background reclaim: if free memory is below the watermark, shrink
     * the largest cgroups until it recovers. Call periodically.
     */
    void kswapd(sim::SimTime now);

    /**
     * One budgeted tier-maintenance pass for @p cg (TPP-style):
     * demote offloaded pages whose decayed heat places them below
     * their current tier, promote pages stuck below their warmth
     * (fall-through victims), both bounded by the chain's
     * moveBudgetBytes and tier::MOVE_SCAN_BATCH. No-op without a
     * chain or with a zero budget (working-set chains). The Host
     * schedules this every tier::MOVE_PERIOD; movement cost is
     * returned so callers can charge it.
     */
    TierMaintainOutcome tierMaintain(cgroup::Cgroup &cg,
                                     sim::SimTime now);

    // --- accounting & introspection --------------------------------------

    std::uint64_t ramCapacity() const { return config_.ramBytes; }

    /**
     * Resize host DRAM mid-run (fault injection: ballooning, bank
     * offlining). A shrink below current usage is recovered by the
     * next kswapd pass; the floor keeps the host minimally viable.
     */
    void
    setRamBytes(std::uint64_t bytes)
    {
        config_.ramBytes = std::max<std::uint64_t>(
            bytes, 16ull * config_.pageBytes);
    }

    /** Resident pages plus the DRAM that compressed copies hold. */
    std::uint64_t
    ramUsed() const
    {
        return residentPages_ * config_.pageBytes + zswapBytes_;
    }

    std::uint64_t
    freeBytes() const
    {
        const std::uint64_t used = ramUsed();
        return used >= config_.ramBytes ? 0 : config_.ramBytes - used;
    }

    std::uint32_t pageBytes() const { return config_.pageBytes; }
    const MemoryConfig &config() const { return config_; }

    /** Per-cgroup byte breakdown. */
    CgMemInfo info(const cgroup::Cgroup &cg) const;

    /**
     * Idle-age breakdown of a cgroup's pages by Page::lastAccess
     * (Fig. 2), exact at every @p now.
     *
     * Generation rule: the first call walks the page table once and
     * starts the host's GenerationCounts; from then on attach(),
     * newPage(), access() and freePage() keep them current, and
     * nothing else changes a page's lastAccess or owner. A call at a
     * whole-second @p now (the profilers' cadence) sums at most a few
     * hundred generations. Any other @p now, or one more than ~200 s
     * before the newest stamp, walks the page table instead, with the
     * same result. A caller that writes lastAccess or memcg through
     * pages() leaves the counts stale; fault::auditHost reports that.
     */
    IdleBreakdown idleBreakdown(const cgroup::Cgroup &cg,
                                sim::SimTime now) const;

    /** Number of emergency situations where reclaim found nothing. */
    std::uint64_t oomEvents() const { return oomEvents_; }

    /** The page table (tests and benches). */
    std::vector<Page> &pages() { return pages_; }
    const std::vector<Page> &pages() const { return pages_; }

    /**
     * Shadow entry of page @p idx (SoA cold array): the cgroup's
     * non-resident age when the page was last evicted, 0 = never
     * evicted. Refault distance is the difference to the cgroup's
     * current age (§3.4). Kept out of struct Page so the hot
     * LRU/reclaim path stays one cache line per page.
     */
    std::uint64_t shadowAge(PageIdx idx) const { return shadowAges_[idx]; }

    /** Overwrite a page's shadow entry (tests). */
    void setShadowAge(PageIdx idx, std::uint64_t age)
    {
        shadowAges_[idx] = age;
    }

    /** Per-cgroup state; cg must be attached. */
    MemCg &memcgOf(const cgroup::Cgroup &cg);
    const MemCg &memcgOf(const cgroup::Cgroup &cg) const;

    // --- invariant-auditor views (read-only) ------------------------------

    /** Attached memcgs, in attach order (invariant auditing). */
    std::size_t memcgCount() const { return memcgs_.size(); }
    const MemCg &memcgAt(std::size_t i) const { return *memcgs_[i]; }

    /** Every backend pages can reference via Page::store. */
    const std::vector<backend::OffloadBackend *> &
    backendRegistry() const
    {
        return backends_;
    }

    /** Global resident-page count (must equal the LRU sums). */
    std::uint64_t residentPages() const { return residentPages_; }

    /** Record a RECLAIM_PASS event (anon/file split, cost balance)
     *  per shrink pass into @p ring; nullptr detaches. */
    void setTrace(obs::TraceRing *ring) { trace_ = ring; }

  private:
    friend struct ReclaimPass;

    /** access() for a touch that moves the page: the activation of a
     *  referenced inactive page, or the fault of a non-resident one. */
    AccessResult accessSlow(PageIdx idx, sim::SimTime now);

    /** Set @p page's lastAccess to @p now, moving its generation count
     *  when that changes one. On a host never queried the one test is
     *  the never-true active() check. */
    void
    stamp(Page &page, sim::SimTime now)
    {
        if (gens_.active() && gens_.moves(page.lastAccess, now))
            gens_.move(page.memcg, page.lastAccess, now);
        page.lastAccess = now;
    }

    /** Direct-reclaim path: make room for @p bytes of new residency. */
    sim::SimTime ensureRoom(std::uint64_t bytes, sim::SimTime now);

    /** Enforce @p cg's memory.max on a new charge of @p bytes. */
    sim::SimTime enforceLimit(cgroup::Cgroup &cg, std::uint64_t bytes,
                              sim::SimTime now);

    /**
     * Make page @p idx resident and charge it. Takes the index, not a
     * Page reference: callers typically arrive here after reclaim or
     * backend calls that may have grown pages_ and invalidated any
     * outstanding reference.
     */
    void makeResident(PageIdx idx, MemCg &mcg, LruKind kind);

    /** Core shrink loop, shared by all reclaim entry points. */
    ReclaimOutcome shrinkMemCg(MemCg &mcg, std::uint64_t target_bytes,
                               sim::SimTime now);

    /** Decay the anon/file cost balance towards zero. */
    void decayCosts(MemCg &mcg, sim::SimTime now);

    /** Register a backend; returns its stable registry index. */
    std::uint8_t registerBackend(backend::OffloadBackend *be);

    /**
     * Account page @p idx as offloaded to @p be in @p stored bytes:
     * Where::ZSWAP with the copy charged to the cgroup when @p be
     * keeps pages in host DRAM, Where::SWAP otherwise (a block
     * device also counts the write towards swapoutBytes). Event
     * counters (pswpout, zswpout) stay with the callers.
     */
    void chargeOffload(MemCg &mcg, PageIdx idx,
                       backend::OffloadBackend *be, std::uint64_t stored,
                       sim::SimTime now);

    /** Undo chargeOffload() for offloaded page @p idx (its where and
     *  storedBytes still set); the page's fields are left as they are. */
    void unchargeOffload(MemCg &mcg, PageIdx idx);

    /** Drop every page off @p mcg's tier lists (chain switch). */
    void clearTierLists(MemCg &mcg);

    /** Unlink an offloaded page from its tier list, if listed. */
    void tierListRemove(MemCg &mcg, PageIdx idx, Page &page);

    /** tierMovePage() result when no tier accepted the page. */
    static constexpr sim::SimTime NO_MOVE = ~sim::SimTime{0};

    /**
     * Move one offloaded page into the tier accepting it among
     * [target, stop): store into the destination first (acceptance
     * check), then load-free the source copy, keeping all cgroup
     * byte accounting (zswap DRAM charge, swap slots, endurance)
     * consistent across the move. Returns the device time, or
     * NO_MOVE when no tier accepted. Addressed by index only: the
     * virtual store/load calls may allocate pages (reallocating
     * pages_), so no Page reference survives them.
     */
    sim::SimTime tierMovePage(MemCg &mcg, PageIdx idx,
                              std::size_t from, std::size_t target,
                              std::size_t stop, sim::SimTime now);

    /**
     * Declare an offloaded page's copy unrecoverable (its tier is
     * being evacuated and no survivor accepted it): release the dead
     * tier's accounting and park the page in Where::LOST, where the
     * next access is a hard major fault instead of silent corruption.
     */
    void losePage(MemCg &mcg, PageIdx idx);

    MemoryConfig config_;
    sim::Rng rng_;
    std::vector<Page> pages_;
    /**
     * Cold SoA companion to pages_ (same indexing): shadow entries for
     * refault detection. Touched only on eviction and refault, so the
     * hot reclaim scan stays within the 32-byte Page.
     */
    std::vector<std::uint64_t> shadowAges_;
    /** Recycled page-table slots (freed pages). */
    std::vector<PageIdx> freeSlots_;
    /**
     * Scratch for the batched reclaim scan: the tail indices gathered
     * per shrink batch. A member (not a local) so the hot loop never
     * allocates; sized scanBatch. Single-threaded like everything here.
     */
    std::vector<PageIdx> scanScratch_;
    /** Scratch for reclaim(): the subtree memcgs it spreads a request
     *  over. Reclaim never re-enters itself. */
    std::vector<MemCg *> reclaimTargets_;
    std::vector<std::unique_ptr<MemCg>> memcgs_;
    /**
     * Cgroup -> memcg index, filled at attach time: memcgOf() and the
     * page hot paths are O(1) lookups instead of linear scans of
     * memcgs_.
     */
    std::unordered_map<const cgroup::Cgroup *, std::uint16_t> indexOf_;
    /**
     * For every cgroup on the path from an attached memcg to the
     * root: the attached memcg indices inside that cgroup's subtree,
     * in attach order. Lets reclaim()/info() enumerate a subtree
     * directly instead of testing every memcg for ancestry. Attach
     * order equals memcgs_ index order, so proportional reclaim
     * visits targets exactly as the historical linear scan did.
     */
    std::unordered_map<const cgroup::Cgroup *, std::vector<std::uint16_t>>
        subtree_;
    std::vector<backend::OffloadBackend *> backends_;
    obs::TraceRing *trace_ = nullptr;
    std::uint64_t residentPages_ = 0;
    /** The sum of every memcg's zswapBytes: chargeOffload() and
     *  unchargeOffload() move it with them. */
    std::uint64_t zswapBytes_ = 0;
    std::uint64_t oomEvents_ = 0;
    /**
     * idleBreakdown()'s counts of live pages by generation, per memcg
     * index; inactive until the first query. Mutable: that const
     * query starts them (see the generation rule there).
     */
    mutable GenerationCounts gens_;
};

} // namespace tmo::mem
