/**
 * @file
 * Core reclaim loop (the kernel's shrink_lruvec, §3.4).
 *
 * TMO_BALANCED mode implements the paper's upstreamed algorithm:
 * reclaim exclusively from file cache while no refaults occur; once
 * refaults appear, balance file scanning against anonymous swap by the
 * relative (decaying) refault vs. swap-in cost. LEGACY_FILE_FIRST
 * reproduces the historic behaviour where swap is an emergency
 * overflow only.
 */

#include <algorithm>
#include <cassert>

#include "mem/memory_manager.hpp"
#include "obs/trace.hpp"
#include "tier/tier_chain.hpp"

namespace tmo::mem
{

namespace
{

/** Demotion batch when rebalancing active/inactive lists. */
constexpr std::uint32_t AGE_BATCH = 32;

} // namespace

ReclaimOutcome
MemoryManager::shrinkMemCg(MemCg &mcg, std::uint64_t target_bytes,
                           sim::SimTime now)
{
    ReclaimOutcome outcome;
    const std::uint64_t target_pages =
        std::max<std::uint64_t>(1, target_bytes / config_.pageBytes);

    decayCosts(mcg, now);

    // Swap can become unavailable mid-pass (partition full). A chain
    // that reports FAILED (every tier offline or exhausted) is treated
    // like no chain at all: reclaim falls back to file-only instead
    // of spinning on rejected stores (§4 graceful degradation).
    bool anon_blocked =
        mcg.anonChain == nullptr ||
        mcg.anonChain->status() == backend::BackendStatus::FAILED;

    auto anon_fraction = [&]() -> double {
        if (anon_blocked || mcg.lru.anonPages() == 0)
            return 0.0;
        if (mcg.lru.filePages() == 0)
            return 1.0;
        switch (config_.mode) {
          case ReclaimMode::TMO_BALANCED:
            // No observed refault cost: the file cache still holds
            // cold tail pages, keep reclaiming only those.
            if (mcg.fileCost < 0.5)
                return 0.0;
            return std::clamp(
                mcg.fileCost / (mcg.fileCost + mcg.anonCost + 1e-9),
                0.05, 0.95);
          case ReclaimMode::LEGACY_FILE_FIRST: {
            // Swap only when file cache is nearly gone.
            const double file_frac =
                static_cast<double>(mcg.lru.filePages()) /
                static_cast<double>(mcg.lru.totalPages());
            return file_frac < 0.125 ? 0.5 : 0.0;
          }
        }
        return 0.0;
    };

    // Demote from the active list when the inactive list is too short
    // to give pages a fair second chance.
    auto age_lists = [&](bool anon) {
        const LruKind active_kind =
            anon ? LruKind::ACTIVE_ANON : LruKind::ACTIVE_FILE;
        const LruKind inactive_kind =
            anon ? LruKind::INACTIVE_ANON : LruKind::INACTIVE_FILE;
        LruList &active = mcg.lru.list(active_kind);
        LruList &inactive = mcg.lru.list(inactive_kind);
        std::uint32_t moved = 0;
        while (moved < AGE_BATCH && !active.empty() &&
               static_cast<double>(inactive.size()) <
                   config_.inactiveRatio *
                       static_cast<double>(active.size())) {
            const PageIdx idx = active.tail();
            Page &page = pages_[idx];
            page.flags &= ~PG_REFERENCED;
            mcg.lru.detach(pages_, idx);
            mcg.lru.attachHead(pages_, idx, inactive_kind);
            ++mcg.cg->stats().pgdeactivate;
            ++moved;
        }
    };

    const std::uint8_t heat_epoch =
        heatEpochAt(now, config_.heatDecayPeriod);

    auto evict_anon = [&](PageIdx idx) -> bool {
        // Tiered placement (§5.2): the chain picks an entry tier from
        // the page's decayed heat (or the working-set rule under
        // placement=workingset) and a rejected store — incompressible
        // data, pool cap, full partition — falls through down the chain.
        // The victim is addressed by index only: the virtual store()
        // below may allocate pages and reallocate the page table, so
        // no Page reference is held across it. Only reached with a
        // chain: without one anon_blocked keeps anon scanning off.
        tier::TierChain &chain = *mcg.anonChain;
        const int start = chain.placementIndex(
            decayedHeat(pages_[idx], heat_epoch),
            pages_[idx].flags & PG_WORKINGSET);
        const auto cs =
            chain.storeFrom(static_cast<std::size_t>(start),
                            config_.pageBytes, mcg.compressibility, now);
        if (!cs.result.accepted) {
            // cs.tier is the last tier tried; nullptr = all offline.
            if (!cs.tier || cs.tier->isBlockDevice()) {
                anon_blocked = true; // swap partition full
            }
            ++mcg.storeRejects;
            // Keep the page resident; activate so it is not rescanned
            // immediately.
            mcg.lru.detach(pages_, idx);
            mcg.lru.attachHead(pages_, idx, LruKind::ACTIVE_ANON);
            return false;
        }
        mcg.lru.detach(pages_, idx);
        mcg.cg->uncharge(config_.pageBytes);
        assert(residentPages_ > 0);
        --residentPages_;
        // Anon shadow entry for workingset detection on swap-in.
        shadowAges_[idx] = ++mcg.nonresidentAgeAnon;
        chargeOffload(mcg, idx, cs.tier, cs.result.storedBytes, now);
        Page &page = pages_[idx]; // fresh past the virtual store
        if (page.where == Where::ZSWAP)
            ++mcg.cg->stats().zswpout;
        ++mcg.cg->stats().pswpout;
        // Track the page on its tier's movement list so background
        // maintenance can demote/promote it later.
        const auto t = static_cast<std::size_t>(cs.tierIndex);
        mcg.tierLists[t].addHead(pages_, idx);
        mcg.tierBytes[t] += cs.result.storedBytes;
        page.flags |= PG_TIER_LISTED;
        return true;
    };

    auto evict_file = [&](PageIdx idx) -> bool {
        // Dirty pages need writeback first (compressibility < 0 flags
        // writeback to the filesystem backend). A failed or erroring
        // device rejects the writeback: the page must then stay dirty
        // AND resident — dropping it would lose the only up-to-date
        // copy (§4 graceful degradation, mirroring the anon path).
        // Index-addressed across the virtual store(), like evict_anon.
        if (pages_[idx].flags & PG_DIRTY) {
            const auto wb =
                mcg.fileBackend->store(config_.pageBytes, -1.0, now);
            if (!wb.accepted) {
                ++mcg.storeRejects;
                // Rotate to the active list so the next scan batch
                // does not spin on the same unwritable page.
                mcg.lru.detach(pages_, idx);
                mcg.lru.attachHead(pages_, idx, LruKind::ACTIVE_FILE);
                return false;
            }
            pages_[idx].flags &= ~PG_DIRTY;
        }
        mcg.lru.detach(pages_, idx);
        mcg.cg->uncharge(config_.pageBytes);
        assert(residentPages_ > 0);
        --residentPages_;
        pages_[idx].where = Where::FS;
        // Shadow entry: remember the eviction age for refault
        // detection on the next fault of this page.
        shadowAges_[idx] = ++mcg.nonresidentAge;
        ++mcg.cg->stats().pgfilesteal;
        return true;
    };

    std::uint64_t reclaimed_pages = 0;
    const std::uint64_t max_scan =
        4 * mcg.lru.totalPages() + config_.scanBatch;

    // Scan one type's inactive tail for up to `want` evictions,
    // bounded by one batch of scanning. Returns pages evicted.
    auto shrink_list = [&](bool anon, std::uint64_t want) {
        std::uint64_t evicted = 0;
        if (want == 0)
            return evicted;
        age_lists(anon);
        const LruKind inactive_kind = anon ? LruKind::INACTIVE_ANON
                                           : LruKind::INACTIVE_FILE;
        LruList &inactive = mcg.lru.list(inactive_kind);
        const std::uint32_t batch = static_cast<std::uint32_t>(
            std::min<std::size_t>(config_.scanBatch, inactive.size()));
        // Batched scan: gather the batch's indices in one prefetched
        // pointer walk from the cold tail, then evict from the local
        // batch — each Page cache line is pulled once, up front,
        // instead of a dependent tail() chase per iteration. The visit
        // order is identical to re-reading tail() every time: second-
        // chance rotation, eviction, and store-reject activation only
        // relink the page just consumed (or an active-list victim),
        // never the uncollected remainder of the inactive chain.
        scanScratch_.clear();
        if (scanScratch_.capacity() < batch)
            scanScratch_.reserve(config_.scanBatch);
        for (PageIdx cur = inactive.tail();
             cur != NO_PAGE && scanScratch_.size() < batch;) {
            const PageIdx warmer = pages_[cur].prev;
#if defined(__GNUC__) || defined(__clang__)
            if (warmer != NO_PAGE)
                __builtin_prefetch(&pages_[warmer]);
#endif
            scanScratch_.push_back(cur);
            cur = warmer;
        }
        for (std::uint32_t i = 0; i < batch && evicted < want; ++i) {
            const PageIdx idx = scanScratch_[i];
            ++outcome.scannedPages;
            ++mcg.cg->stats().pgscan;

            if (pages_[idx].referenced()) {
                // Second chance: clear and rotate to the list head.
                pages_[idx].flags &= ~PG_REFERENCED;
                inactive.moveToHead(pages_, idx);
                ++mcg.cg->stats().pgrotate;
                continue;
            }

            // Latch the type before eviction: the outcome accounting
            // below must not dereference a page whose eviction may
            // have reallocated the table.
            const bool is_anon = pages_[idx].isAnon();
            const bool ok =
                is_anon ? evict_anon(idx) : evict_file(idx);
            if (ok) {
                ++evicted;
                ++mcg.cg->stats().pgsteal;
                if (is_anon)
                    ++outcome.anonPages;
                else
                    ++outcome.filePages;
                // Sampling-based LRU mis-aging: occasionally a
                // working-set page is misjudged cold and evicted
                // outright; collateral damage scales with reclaim
                // volume, which is what makes over-aggressive
                // configurations hurt (Fig. 13).
                if (rng_.chance(config_.lruMisagingRate)) {
                    const LruKind active_kind =
                        anon ? LruKind::ACTIVE_ANON
                             : LruKind::ACTIVE_FILE;
                    LruList &active = mcg.lru.list(active_kind);
                    if (!active.empty()) {
                        const PageIdx victim = active.tail();
                        pages_[victim].flags &= ~PG_REFERENCED;
                        // The victim is examined and evicted like any
                        // scanned page: it must count towards the
                        // scan totals, or max_scan and the
                        // reclaimUsPerPage CPU model undercount the
                        // work actually done.
                        ++outcome.scannedPages;
                        ++mcg.cg->stats().pgscan;
                        ++mcg.cg->stats().pgdeactivate;
                        const bool victim_anon =
                            pages_[victim].isAnon();
                        const bool vok = victim_anon
                                             ? evict_anon(victim)
                                             : evict_file(victim);
                        if (vok) {
                            ++evicted;
                            ++mcg.cg->stats().pgsteal;
                            if (victim_anon)
                                ++outcome.anonPages;
                            else
                                ++outcome.filePages;
                        }
                    }
                }
            } else if (anon && anon_blocked) {
                break; // swap filled up mid-batch
            }
        }
        return evicted;
    };

    while (reclaimed_pages < target_pages &&
           outcome.scannedPages < max_scan) {
        // Deterministic per-type scan targets from the cost balance,
        // like the kernel's get_scan_count().
        double fa = anon_fraction();
        const std::uint64_t remaining = target_pages - reclaimed_pages;
        if (mcg.lru.filePages() == 0)
            fa = (anon_blocked || mcg.lru.anonPages() == 0) ? 0.0 : 1.0;
        std::uint64_t want_anon = static_cast<std::uint64_t>(
            fa * static_cast<double>(remaining) + 0.5);
        if (fa > 0.0 && want_anon == 0)
            want_anon = 1; // nonzero balance scans at least one page
        const std::uint64_t want_file = remaining - std::min(
            remaining, want_anon);

        const std::uint64_t scanned_before = outcome.scannedPages;
        reclaimed_pages += shrink_list(true, want_anon);
        reclaimed_pages += shrink_list(false, want_file);
        if (outcome.scannedPages == scanned_before)
            break; // both lists empty or unusable: no progress possible
    }

    outcome.reclaimedBytes = reclaimed_pages * config_.pageBytes;
    outcome.cpuTime = sim::fromUsec(
        static_cast<double>(outcome.scannedPages) *
        config_.reclaimUsPerPage);
    if (trace_) {
        trace_->record(
            now, obs::TraceEventType::RECLAIM_PASS,
            anon_blocked ? 1 : 0,
            static_cast<std::uint16_t>(mcg.cg->id()),
            {static_cast<double>(target_bytes),
             static_cast<double>(outcome.reclaimedBytes),
             static_cast<double>(outcome.anonPages),
             static_cast<double>(outcome.filePages), mcg.fileCost,
             mcg.anonCost, static_cast<double>(outcome.scannedPages),
             sim::toUsec(outcome.cpuTime)});
    }
    return outcome;
}

} // namespace tmo::mem
