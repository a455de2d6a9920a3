#include "mem/memory_manager.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/trace.hpp"
#include "tier/tier_chain.hpp"

namespace tmo::mem
{

namespace
{

/** Stall for a major fault on a LOST page: the kernel retries the
 *  read against the dead tier, times out, and zero-fills — a fixed,
 *  deterministic penalty far above any healthy device latency. */
constexpr std::uint64_t LOST_REFAULT_PENALTY_US = 50'000;

} // namespace

MemoryManager::MemoryManager(MemoryConfig config, std::uint64_t seed)
    : config_(config), rng_(seed)
{
    assert(config_.pageBytes > 0);
    assert(config_.ramBytes >= config_.pageBytes);
    assert(config_.heatDecayPeriod > 0);
}

MemCg &
MemoryManager::attach(cgroup::Cgroup &cg, tier::TierChain *chain,
                      backend::OffloadBackend *file_backend,
                      double compressibility)
{
    // Page::memcg is 16 bits and 0xffff is the free-slot sentinel:
    // one more attach would silently wrap the id and corrupt every
    // page it tags, so refuse loudly with the offender's name.
    if (memcgs_.size() >= 0xffff)
        throw std::length_error(
            "memcg table full (65535 cgroups): cannot attach '" +
            cg.name() + "' — Page::memcg is 16-bit with 0xffff "
                        "reserved as the free-slot sentinel");
    if (indexOf_.count(&cg))
        throw std::invalid_argument("cgroup already attached: " +
                                    cg.name());
    // Register every backend before the memcg exists, so a full
    // registry throws with the manager unchanged. The order (tier 0,
    // the file backend, the other tiers) fixes the Page::store values.
    if (chain)
        registerBackend(chain->tier(0));
    registerBackend(file_backend);
    for (std::size_t i = 1; chain && i < chain->size(); ++i)
        registerBackend(chain->tier(i));
    auto mcg = std::make_unique<MemCg>();
    mcg->cg = &cg;
    mcg->index = static_cast<std::uint16_t>(memcgs_.size());
    mcg->fileBackend = file_backend;
    mcg->compressibility = compressibility;
    memcgs_.push_back(std::move(mcg));
    gens_.addMemcg();
    MemCg &ref = *memcgs_.back();
    indexOf_.emplace(&cg, ref.index);
    // Index this memcg under every ancestor, so subtree enumeration
    // (reclaim, info) is a direct lookup. Appending in attach order
    // preserves the visit order of the old whole-table scan.
    for (const cgroup::Cgroup *node = &cg; node; node = node->parent())
        subtree_[node].push_back(ref.index);
    setAnonChain(cg, chain);

    // Wire the memory.reclaim control file to the reclaimer.
    cg.setReclaimFn([this](cgroup::Cgroup &target, std::uint64_t bytes,
                           sim::SimTime now) {
        return reclaim(target, bytes, now).reclaimedBytes;
    });
    return ref;
}

void
MemoryManager::setAnonChain(cgroup::Cgroup &cg, tier::TierChain *chain)
{
    MemCg &mcg = memcgOf(cg);
    // Register the tiers first: a full registry throws with the memcg
    // still on its old chain.
    for (std::size_t i = 0; chain && i < chain->size(); ++i)
        registerBackend(chain->tier(i));
    clearTierLists(mcg);
    mcg.anonChain = chain;
    if (chain) {
        mcg.tierLists.assign(chain->size(), LruList{});
        mcg.tierBytes.assign(chain->size(), 0);
    }
}

void
MemoryManager::clearTierLists(MemCg &mcg)
{
    for (auto &list : mcg.tierLists) {
        while (!list.empty()) {
            const PageIdx idx = list.head();
            list.remove(pages_, idx);
            pages_[idx].flags &= ~PG_TIER_LISTED;
        }
    }
    mcg.tierLists.clear();
    mcg.tierBytes.clear();
}

void
MemoryManager::tierListRemove(MemCg &mcg, PageIdx idx, Page &page)
{
    if (!(page.flags & PG_TIER_LISTED))
        return;
    assert(mcg.anonChain && page.store < backends_.size());
    const int t = mcg.anonChain->indexOf(backends_[page.store]);
    assert(t >= 0 &&
           static_cast<std::size_t>(t) < mcg.tierLists.size());
    mcg.tierLists[static_cast<std::size_t>(t)].remove(pages_, idx);
    auto &bytes = mcg.tierBytes[static_cast<std::size_t>(t)];
    bytes -= std::min<std::uint64_t>(bytes, page.storedBytes);
    page.flags &= ~PG_TIER_LISTED;
}

std::uint8_t
MemoryManager::registerBackend(backend::OffloadBackend *be)
{
    if (!be)
        return 0xff;
    const auto it = std::find(backends_.begin(), backends_.end(), be);
    if (it != backends_.end())
        return static_cast<std::uint8_t>(it - backends_.begin());
    // Page::store is 8 bits and 0xff is the "no backend" sentinel:
    // registering past it would alias the sentinel and misroute every
    // fault on pages stored there, so reject at registration time
    // (tier registries included — chains register each tier here).
    if (backends_.size() >= 0xff)
        throw std::length_error(
            "offload backend registry full (255 backends): cannot "
            "register '" + be->name() + "' — Page::store is 8-bit "
            "with 0xff reserved as the none sentinel");
    backends_.push_back(be);
    return static_cast<std::uint8_t>(backends_.size() - 1);
}

MemCg &
MemoryManager::memcgOf(const cgroup::Cgroup &cg)
{
    const auto it = indexOf_.find(&cg);
    if (it == indexOf_.end())
        throw std::invalid_argument("cgroup not attached: " + cg.name());
    return *memcgs_[it->second];
}

const MemCg &
MemoryManager::memcgOf(const cgroup::Cgroup &cg) const
{
    const auto it = indexOf_.find(&cg);
    if (it == indexOf_.end())
        throw std::invalid_argument("cgroup not attached: " + cg.name());
    return *memcgs_[it->second];
}

void
MemoryManager::makeResident(PageIdx idx, MemCg &mcg, LruKind kind)
{
    // Fetch by index: callers reach this after reclaim/backend calls
    // that may have reallocated the page table.
    Page &page = pages_[idx];
    page.where = Where::RAM;
    page.storedBytes = 0;
    page.store = 0xff;
    mcg.lru.attachHead(pages_, idx, kind);
    mcg.cg->charge(config_.pageBytes);
    ++residentPages_;
}

void
MemoryManager::reservePages(std::uint64_t page_count)
{
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(page_count, NO_PAGE));
    if (want <= pages_.capacity())
        return;
    pages_.reserve(want);
    shadowAges_.reserve(want);
}

sim::SimTime
MemoryManager::enforceLimit(cgroup::Cgroup &cg, std::uint64_t bytes,
                            sim::SimTime now)
{
    sim::SimTime stall = 0;
    // Walk up looking for a limited ancestor without headroom and
    // reclaim inside that subtree, as the kernel does on charge.
    for (int round = 0; round < 8; ++round) {
        if (cg.headroom() >= bytes)
            break;
        cgroup::Cgroup *limited = &cg;
        while (limited && limited->memMax() == cgroup::NO_LIMIT)
            limited = limited->parent();
        if (!limited)
            break;
        const auto outcome =
            reclaim(*limited, std::max<std::uint64_t>(
                                  bytes, 8 * config_.pageBytes),
                    now);
        stall += outcome.cpuTime;
        if (outcome.reclaimedBytes == 0) {
            ++oomEvents_;
            break;
        }
    }
    return stall;
}

sim::SimTime
MemoryManager::ensureRoom(std::uint64_t bytes, sim::SimTime now)
{
    sim::SimTime stall = 0;
    for (int round = 0; round < 16 && freeBytes() < bytes; ++round) {
        // Global direct reclaim: shrink the biggest consumer. Cgroups
        // within their memory.low protection are skipped while any
        // unprotected memory exists (second pass ignores protection,
        // as the kernel does under real shortage).
        MemCg *victim = nullptr;
        for (const bool honour_low : {true, false}) {
            for (auto &mcg : memcgs_) {
                if (mcg->lru.totalPages() == 0)
                    continue;
                if (honour_low && mcg->cg->lowProtected())
                    continue;
                if (!victim ||
                    mcg->lru.totalPages() > victim->lru.totalPages())
                    victim = mcg.get();
            }
            if (victim)
                break;
        }
        if (!victim) {
            ++oomEvents_;
            break;
        }
        const std::uint64_t want = std::max<std::uint64_t>(
            bytes, 16 * config_.pageBytes);
        const auto outcome = shrinkMemCg(*victim, want, now);
        stall += outcome.cpuTime;
        if (outcome.reclaimedBytes == 0) {
            ++oomEvents_;
            break;
        }
    }
    return stall;
}

PageIdx
MemoryManager::newPage(cgroup::Cgroup &cg, bool anon, bool resident,
                       sim::SimTime now, AccessResult *result)
{
    MemCg &mcg = memcgOf(cg);
    if (anon && !resident)
        throw std::invalid_argument("anon pages are created resident");
    if (!anon && !mcg.fileBackend)
        throw std::invalid_argument("file pages need a file backend");

    PageIdx idx;
    if (!freeSlots_.empty()) {
        idx = freeSlots_.back();
        freeSlots_.pop_back();
        pages_[idx] = Page{};
        shadowAges_[idx] = 0;
    } else {
        if (pages_.size() >= NO_PAGE)
            throw std::length_error("page table full");
        idx = static_cast<PageIdx>(pages_.size());
        pages_.emplace_back();
        shadowAges_.push_back(0);
    }
    {
        Page &page = pages_[idx];
        page.memcg = mcg.index;
        page.flags = anon ? PG_ANON : 0;
        page.lastAccess = now;
        gens_.add(mcg.index, now);
        if (!resident) {
            page.where = Where::FS;
            return idx;
        }
    }

    AccessResult local;
    local.memStall += enforceLimit(cg, config_.pageBytes, now);
    local.memStall += ensureRoom(config_.pageBytes, now);
    // No Page reference may be held across the reclaim above: evicting
    // into a backend can allocate pages (growing pages_), so residency
    // is applied by index.
    // New pages start on the inactive list and earn activation by
    // reference, like the post-5.x kernel.
    makeResident(idx, mcg,
                 anon ? LruKind::INACTIVE_ANON : LruKind::INACTIVE_FILE);
    if (result)
        *result = local;
    return idx;
}

AccessResult
MemoryManager::accessSlow(PageIdx idx, sim::SimTime now)
{
    AccessResult result;
    Page &page = pages_[idx];
    MemCg &mcg = *memcgs_[page.memcg];
    stamp(page, now);

    if (page.where == Where::RAM) {
        // Second touch while inactive: promote. access() took every
        // other resident touch.
        const LruKind active =
            page.isAnon() ? LruKind::ACTIVE_ANON : LruKind::ACTIVE_FILE;
        mcg.lru.detach(pages_, idx);
        mcg.lru.attachHead(pages_, idx, active);
        page.flags &= ~PG_REFERENCED;
        ++mcg.cg->stats().pgactivate;
        // Activation is the cheap warmth signal feeding tiered
        // placement (a fault later adds more heat).
        if (page.isAnon() && mcg.anonChain)
            touchHeat(page, heatEpochAt(now, config_.heatDecayPeriod), 1);
        return result;
    }

    // --- fault path ---------------------------------------------------
    // The virtual backend load() calls below may allocate pages and
    // reallocate pages_, so `page` must not be dereferenced past them:
    // everything after them goes through pages_[idx].
    result.faulted = true;

    backend::LoadResult load;
    LruKind target = LruKind::INACTIVE_FILE;

    switch (page.where) {
      case Where::ZSWAP:
      case Where::SWAP: {
        assert(page.store < backends_.size() &&
               "offloaded anon page without backend");
        // Leaving the offload tier: drop off the movement list and
        // bump heat — a re-faulted page is hot and the next eviction
        // will place it in a faster tier (promotion via refault).
        tierListRemove(mcg, idx, page);
        if (mcg.anonChain)
            touchHeat(page, heatEpochAt(now, config_.heatDecayPeriod),
                      2);
        const bool in_zswap = page.where == Where::ZSWAP;
        load = backends_[page.store]->load(page.storedBytes, now);
        unchargeOffload(mcg, idx);
        if (in_zswap)
            ++mcg.cg->stats().zswpin;
        ++mcg.cg->stats().pswpin;
        mcg.swapinRate.add(1.0, now);
        // Swap-in IO is the anon side of the reclaim cost balance
        // (kernel lru_note_cost), mirroring refaults on the file side.
        decayCosts(mcg, now);
        mcg.anonCost += 1.0;
        // Swap-in waits are memory stalls; disk swap also blocks on IO.
        result.memStall += load.latency;
        if (load.blockIo)
            result.ioStall += load.latency;
        // Anon workingset detection (kernel >= 5.9): only refaults
        // within the reuse distance re-activate; colder swap-ins go
        // inactive so they do not pollute the active list. The
        // working-set flag doubles as the warmth signal for tiered
        // placement (§5.2).
        if (shadowAges_[idx] != 0 &&
            mcg.nonresidentAgeAnon - shadowAges_[idx] <=
                mcg.lru.totalPages()) {
            result.refault = true;
            ++mcg.cg->stats().wsRefaultAnon;
            pages_[idx].flags |= PG_WORKINGSET;
            target = LruKind::ACTIVE_ANON;
        } else {
            target = LruKind::INACTIVE_ANON;
        }
        break;
      }
      case Where::FS: {
        assert(!page.isAnon());
        load = mcg.fileBackend->load(config_.pageBytes, now);
        ++mcg.cg->stats().pgfilefault;
        result.ioStall += load.latency;
        // Refault detection via shadow entry (§3.4).
        if (shadowAges_[idx] != 0) {
            const std::uint64_t distance =
                mcg.nonresidentAge - shadowAges_[idx];
            const std::uint64_t workingset = mcg.lru.totalPages();
            if (distance <= workingset) {
                result.refault = true;
                ++mcg.cg->stats().wsRefault;
                ++mcg.cg->stats().wsActivate;
                mcg.refaultRate.add(1.0, now);
                decayCosts(mcg, now);
                mcg.fileCost += 1.0;
                // Waiting for recently evicted cache is lost work due
                // to lack of memory, not merely IO.
                result.memStall += load.latency;
                pages_[idx].flags |= PG_WORKINGSET;
                target = LruKind::ACTIVE_FILE;
            } else {
                target = LruKind::INACTIVE_FILE;
            }
        } else {
            // First-ever read: plain IO wait, inactive list.
            target = LruKind::INACTIVE_FILE;
        }
        break;
      }
      case Where::LOST: {
        // The only copy died with its evacuated tier. The kernel's
        // IO-error path times out and hands the task a fresh
        // zero-filled page: a hard major fault, far costlier than any
        // healthy device read, and pure memory stall (no device IO).
        assert(mcg.lostPages > 0);
        --mcg.lostPages;
        ++mcg.cg->stats().lostRefault;
        result.memStall +=
            sim::fromUsec(static_cast<double>(LOST_REFAULT_PENALTY_US));
        if (page.isAnon() && mcg.anonChain)
            touchHeat(page, heatEpochAt(now, config_.heatDecayPeriod),
                      2);
        target = page.isAnon() ? LruKind::INACTIVE_ANON
                               : LruKind::INACTIVE_FILE;
        break;
      }
      case Where::RAM:
        break; // unreachable
    }

    result.memStall += enforceLimit(*mcg.cg, config_.pageBytes, now);
    result.memStall += ensureRoom(config_.pageBytes, now);
    makeResident(idx, mcg, target);
    return result;
}

void
MemoryManager::freePage(PageIdx idx)
{
    MemCg &mcg = *memcgs_[pages_[idx].memcg];
    tierListRemove(mcg, idx, pages_[idx]);
    // Addressed by index across the virtual release() call — backend
    // implementations must not be trusted to leave the page table's
    // allocation alone.
    const std::uint8_t store = pages_[idx].store;
    switch (pages_[idx].where) {
      case Where::RAM:
        mcg.lru.detach(pages_, idx);
        mcg.cg->uncharge(config_.pageBytes);
        assert(residentPages_ > 0);
        --residentPages_;
        break;
      case Where::ZSWAP:
      case Where::SWAP:
        if (store < backends_.size())
            backends_[store]->release(pages_[idx].storedBytes);
        unchargeOffload(mcg, idx);
        break;
      case Where::FS:
        break;
      case Where::LOST:
        assert(mcg.lostPages > 0);
        --mcg.lostPages;
        break;
    }
    Page &page = pages_[idx];
    gens_.remove(page.memcg, page.lastAccess);
    page.where = Where::FS;
    page.storedBytes = 0;
    page.store = 0xff;
    page.flags &= ~(PG_REFERENCED | PG_WORKINGSET | PG_DIRTY |
                    PG_TIER_LISTED);
    page.memcg = 0xffff; // detached from any cgroup until reused
    freeSlots_.push_back(idx);
}

ReclaimOutcome
MemoryManager::reclaim(cgroup::Cgroup &cg, std::uint64_t bytes,
                       sim::SimTime now)
{
    // Reclaim from the subtree: this cgroup if attached, plus any
    // attached descendants, proportional to their size. The subtree
    // index gives the members directly, in attach order — no scan of
    // the whole memcg table.
    ReclaimOutcome total;
    const auto sub = subtree_.find(&cg);
    if (sub == subtree_.end())
        return total;
    std::vector<MemCg *> &targets = reclaimTargets_;
    targets.clear();
    std::uint64_t resident = 0;
    for (const std::uint16_t index : sub->second) {
        MemCg *mcg = memcgs_[index].get();
        // Descendants inside their memory.low protection are
        // skipped; the explicitly targeted cgroup itself is not
        // (memory.reclaim semantics).
        if (mcg->lru.totalPages() > 0 &&
            (mcg->cg == &cg || !mcg->cg->lowProtected())) {
            targets.push_back(mcg);
            resident += mcg->lru.totalPages();
        }
    }
    if (targets.empty() || resident == 0)
        return total;

    // Distribute the request by running-error accumulation: each
    // target's exact share plus the residual of its predecessors,
    // rounded to whole pages. Nonzero shares are floored at one page,
    // so a request spread over many small cgroups still reclaims the
    // asked-for total instead of rounding every share down to zero.
    double carry = 0.0;
    for (MemCg *mcg : targets) {
        const double share = static_cast<double>(mcg->lru.totalPages()) /
                             static_cast<double>(resident);
        const double exact =
            share * static_cast<double>(bytes) + carry;
        auto want = static_cast<std::uint64_t>(
                        std::max(exact, 0.0) /
                        static_cast<double>(config_.pageBytes)) *
                    config_.pageBytes;
        if (want == 0 && exact > 0.0)
            want = config_.pageBytes;
        carry = exact - static_cast<double>(want);
        if (want == 0)
            continue;
        const auto outcome = shrinkMemCg(*mcg, want, now);
        total.reclaimedBytes += outcome.reclaimedBytes;
        total.scannedPages += outcome.scannedPages;
        total.anonPages += outcome.anonPages;
        total.filePages += outcome.filePages;
        total.cpuTime += outcome.cpuTime;
    }
    return total;
}

void
MemoryManager::kswapd(sim::SimTime now)
{
    const auto watermark = static_cast<std::uint64_t>(
        config_.kswapdWatermark * static_cast<double>(config_.ramBytes));
    if (freeBytes() >= watermark)
        return;
    ensureRoom(2 * watermark, now);
}

CgMemInfo
MemoryManager::info(const cgroup::Cgroup &cg) const
{
    CgMemInfo info;
    const auto sub = subtree_.find(&cg);
    if (sub == subtree_.end())
        return info;
    for (const std::uint16_t index : sub->second) {
        const MemCg &mcg = *memcgs_[index];
        info.anonBytes += mcg.lru.anonPages() * config_.pageBytes;
        info.fileBytes += mcg.lru.filePages() * config_.pageBytes;
        info.zswapBytes += mcg.zswapBytes;
        info.swapBytes += mcg.swapBytes;
    }
    info.residentBytes = info.anonBytes + info.fileBytes;
    return info;
}

IdleBreakdown
MemoryManager::idleBreakdown(const cgroup::Cgroup &cg,
                             sim::SimTime now) const
{
    const MemCg &mcg = memcgOf(cg);
    if (!gens_.active())
        gens_.start(pages_, memcgs_.size());
    if (const auto counts = gens_.at(mcg.index, now))
        return counts->fractions();
    // Not exact at this instant: count this memcg's pages directly.
    IdleCounts counts;
    for (const Page &page : pages_)
        if (page.memcg == mcg.index)
            counts.add(page.lastAccess, now);
    return counts.fractions();
}

sim::SimTime
MemoryManager::tierMovePage(MemCg &mcg, PageIdx idx,
                            std::size_t from, std::size_t target,
                            std::size_t stop, sim::SimTime now)
{
    tier::TierChain *chain = mcg.anonChain;
    // Store into the destination first: acceptance (compressibility,
    // caps, offline tiers) is checked before the source copy is
    // touched, so a failed move leaves the page exactly where it was.
    const auto cs = chain->storeFrom(target, stop, config_.pageBytes,
                                     mcg.compressibility, now);
    if (!cs.result.accepted)
        return NO_MOVE;
    // Addressed by index past the virtual load: both device calls may
    // allocate pages and reallocate the page table.
    const std::uint32_t src_bytes = pages_[idx].storedBytes;
    assert(pages_[idx].store < backends_.size());
    const auto load =
        backends_[pages_[idx].store]->load(src_bytes, now);

    // Ownership of storedBytes transfers atomically: uncharge the
    // source representation, then charge the destination's (a
    // demotion to a block device is a physical write the endurance
    // regulator must see, same as an eviction). Workload-visible
    // counters (pswpin, zswpout & co.) stay untouched — moves are
    // background work, not faults.
    unchargeOffload(mcg, idx);
    mcg.tierLists[from].remove(pages_, idx);
    auto &from_bytes = mcg.tierBytes[from];
    from_bytes -= std::min<std::uint64_t>(from_bytes, src_bytes);

    const auto to = static_cast<std::size_t>(cs.tierIndex);
    chargeOffload(mcg, idx, cs.tier, cs.result.storedBytes, now);
    mcg.tierLists[to].addHead(pages_, idx);
    mcg.tierBytes[to] += cs.result.storedBytes;
    return load.latency + cs.result.latency;
}

void
MemoryManager::chargeOffload(MemCg &mcg, PageIdx idx,
                             backend::OffloadBackend *be,
                             std::uint64_t stored, sim::SimTime now)
{
    Page &page = pages_[idx];
    page.storedBytes = static_cast<std::uint32_t>(stored);
    page.store = registerBackend(be);
    if (be->storesInHostDram()) {
        page.where = Where::ZSWAP;
        mcg.zswapBytes += stored;
        zswapBytes_ += stored;
        // The compressed copy still occupies DRAM in the pool.
        mcg.cg->charge(stored);
    } else {
        page.where = Where::SWAP;
        mcg.swapBytes += stored;
        // Physical SSD writes are what endurance regulation watches;
        // byte-addressable tiers do no block IO.
        if (be->isBlockDevice())
            mcg.swapoutBytes.add(static_cast<double>(config_.pageBytes),
                                 now);
    }
}

void
MemoryManager::unchargeOffload(MemCg &mcg, PageIdx idx)
{
    const Page &page = pages_[idx];
    assert(page.where == Where::ZSWAP || page.where == Where::SWAP);
    const std::uint64_t stored = page.storedBytes;
    if (page.where == Where::ZSWAP) {
        mcg.zswapBytes -= std::min(mcg.zswapBytes, stored);
        zswapBytes_ -= std::min(zswapBytes_, stored);
        // Compressed copy freed: uncharge its DRAM share.
        mcg.cg->uncharge(stored);
    } else {
        mcg.swapBytes -= std::min(mcg.swapBytes, stored);
    }
}

void
MemoryManager::losePage(MemCg &mcg, PageIdx idx)
{
    // Drop the dead copy's accounting but keep the logical page alive
    // (still owned by its cgroup): the loss is explicit — the next access
    // is a hard major fault, never silent corruption. Addressed by
    // index across the virtual release() call, like every other path
    // that talks to a backend.
    tierListRemove(mcg, idx, pages_[idx]);
    const std::uint8_t store = pages_[idx].store;
    if (store < backends_.size())
        backends_[store]->release(pages_[idx].storedBytes);
    unchargeOffload(mcg, idx);
    Page &page = pages_[idx];
    page.where = Where::LOST;
    page.store = 0xff;
    page.storedBytes = 0;
    shadowAges_[idx] = 0;
    ++mcg.lostPages;
    ++mcg.cg->stats().tierLost;
}

TierMaintainOutcome
MemoryManager::tierMaintain(cgroup::Cgroup &cg, sim::SimTime now)
{
    TierMaintainOutcome outcome;
    MemCg &mcg = memcgOf(cg);
    tier::TierChain *chain = mcg.anonChain;
    if (!chain || chain->config().moveBudgetBytes == 0 ||
        chain->size() < 2)
        return outcome;
    const std::uint8_t epoch =
        heatEpochAt(now, config_.heatDecayPeriod);
    const std::uint32_t batch = tier::MOVE_SCAN_BATCH;
    std::uint64_t budget = chain->config().moveBudgetBytes;
    std::uint64_t scanned = 0;

    // Evacuation pass (runs first — saving data from a dying tier
    // outranks rebalancing): re-evaluate tier health, then drain
    // every evacuating tier's list to whatever survivor accepts the
    // pages, within the same move budget. A page no survivor takes is
    // declared LOST: the copy is gone, but the loss is accounted and
    // the next access faults hard instead of corrupting silently.
    chain->updateHealth(now);
    for (std::size_t i = 0;
         i < chain->size() && budget >= config_.pageBytes; ++i) {
        if (!chain->tierEvacuating(i))
            continue;
        std::uint32_t examined = 0;
        PageIdx cur = mcg.tierLists[i].tail();
        while (cur != NO_PAGE && examined < batch &&
               budget >= config_.pageBytes) {
            // Walk pointer first: the move below talks to backends and
            // may reallocate the page table.
            const PageIdx warmer = pages_[cur].prev;
            ++examined;
            ++scanned;
            const auto latency = tierMovePage(mcg, cur, i, 0,
                                              chain->size(), now);
            if (latency == NO_MOVE) {
                losePage(mcg, cur);
                ++outcome.lostPages;
                chain->noteLost(1);
            } else {
                ++outcome.evacuatedPages;
                outcome.movedBytes += config_.pageBytes;
                outcome.deviceTime += latency;
                budget -= config_.pageBytes;
                ++mcg.cg->stats().tierEvacuate;
                chain->noteEvacuate(1);
            }
            cur = warmer;
        }
    }

    // Demote pass: walk each tier's list from the tail (oldest
    // stores, coldest by construction) and push pages whose decayed
    // heat places them below their current tier straight to their
    // target tier (falling further down if the target rejects).
    for (std::size_t i = 0;
         i + 1 < chain->size() && budget >= config_.pageBytes; ++i) {
        std::uint32_t examined = 0;
        PageIdx cur = mcg.tierLists[i].tail();
        while (cur != NO_PAGE && examined < batch &&
               budget >= config_.pageBytes) {
            const PageIdx warmer = pages_[cur].prev;
            ++examined;
            ++scanned;
            const int target = chain->placementIndex(
                decayedHeat(pages_[cur], epoch),
                pages_[cur].flags & PG_WORKINGSET);
            if (target > static_cast<int>(i)) {
                const auto latency = tierMovePage(
                    mcg, cur, i,
                    static_cast<std::size_t>(target), chain->size(),
                    now);
                if (latency == NO_MOVE)
                    break; // nothing below will take pages right now
                ++outcome.demotedPages;
                outcome.movedBytes += config_.pageBytes;
                outcome.deviceTime += latency;
                budget -= config_.pageBytes;
                ++mcg.cg->stats().tierDemote;
                chain->noteDemote(1, sim::toUsec(latency));
            }
            cur = warmer;
        }
    }

    // Promote pass: walk lower tiers from the head (newest stores,
    // warmest) and pull pages whose heat says they belong higher —
    // typically fall-through victims stored low because a faster
    // tier was full at eviction time.
    for (std::size_t i = chain->size();
         i-- > 1 && budget >= config_.pageBytes;) {
        std::uint32_t examined = 0;
        PageIdx cur = mcg.tierLists[i].head();
        while (cur != NO_PAGE && examined < batch &&
               budget >= config_.pageBytes) {
            const PageIdx colder = pages_[cur].next;
            ++examined;
            ++scanned;
            const int target = chain->placementIndex(
                decayedHeat(pages_[cur], epoch),
                pages_[cur].flags & PG_WORKINGSET);
            if (target < static_cast<int>(i)) {
                const auto latency = tierMovePage(
                    mcg, cur, i,
                    static_cast<std::size_t>(target), i, now);
                if (latency == NO_MOVE)
                    break; // faster tiers still full
                ++outcome.promotedPages;
                outcome.movedBytes += config_.pageBytes;
                outcome.deviceTime += latency;
                budget -= config_.pageBytes;
                ++mcg.cg->stats().tierPromote;
                chain->notePromote(1, sim::toUsec(latency));
            }
            cur = colder;
        }
    }

    outcome.cpuTime = sim::fromUsec(static_cast<double>(scanned) *
                                    config_.reclaimUsPerPage);
    if (trace_ &&
        (outcome.demotedPages || outcome.promotedPages ||
         outcome.evacuatedPages || outcome.lostPages)) {
        trace_->record(now, obs::TraceEventType::TIER_MOVE, 0,
                       static_cast<std::uint16_t>(mcg.cg->id()),
                       {static_cast<double>(outcome.demotedPages),
                        static_cast<double>(outcome.promotedPages),
                        static_cast<double>(outcome.movedBytes),
                        sim::toUsec(outcome.deviceTime),
                        sim::toUsec(outcome.cpuTime),
                        static_cast<double>(outcome.evacuatedPages),
                        static_cast<double>(outcome.lostPages)});
    }
    return outcome;
}

void
MemoryManager::decayCosts(MemCg &mcg, sim::SimTime now)
{
    if (now <= mcg.lastCostDecay) {
        mcg.lastCostDecay = now;
        return;
    }
    const double dt = sim::toSeconds(now - mcg.lastCostDecay);
    const double factor = std::exp2(-dt / config_.costHalfLifeSec);
    mcg.anonCost *= factor;
    mcg.fileCost *= factor;
    mcg.lastCostDecay = now;
}

} // namespace tmo::mem
