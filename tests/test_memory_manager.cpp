/**
 * @file
 * Tests for the memory manager: allocation, fault paths, refault
 * detection, charge accounting and limits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/filesystem.hpp"
#include "backend/ssd.hpp"
#include "backend/swap_backend.hpp"
#include "backend/zswap.hpp"
#include "cgroup/cgroup.hpp"
#include "mem/memory_manager.hpp"
#include "tier/tier_chain.hpp"

using namespace tmo;

namespace
{

constexpr std::uint32_t PAGE = 64 * 1024;

/** One touch of page @p idx at @p now, through access() or through
 *  the batch loop. */
using Toucher = std::function<mem::AccessResult(
    mem::MemoryManager &, mem::PageIdx, sim::SimTime)>;

mem::AccessResult
touchByAccess(mem::MemoryManager &mm, mem::PageIdx idx, sim::SimTime now)
{
    return mm.access(idx, now);
}

/** A batch of one touch, its sums turned back into an AccessResult. */
mem::AccessResult
touchByBatch(mem::MemoryManager &mm, mem::PageIdx idx, sim::SimTime now)
{
    const mem::TouchTotals totals = mm.touch(
        1, now, [idx] { return idx; }, mem::NO_STALL_BUDGET, false);
    EXPECT_EQ(totals.touches, 1u);
    mem::AccessResult result;
    result.faulted = totals.faults == 1;
    result.refault = totals.refaults == 1;
    result.memStall = totals.stalls.memOnly + totals.stalls.memAndIo;
    result.ioStall = totals.stalls.ioOnly + totals.stalls.memAndIo;
    return result;
}

/** Shared fixture wiring a manager to one cgroup with all backends. */
class MemoryManagerTest : public ::testing::Test
{
  protected:
    MemoryManagerTest()
        : ssd(backend::ssdSpecForClass('C'), 1),
          swap(ssd, 256ull << 20),
          fs(ssd),
          zswap({}, 2),
          swapChain("swap", {&swap}, {}),
          zswapChain("zswap", {&zswap}, {}),
          mm(makeConfig(), 3),
          cg(&tree.create("app"))
    {}

    static mem::MemoryConfig
    makeConfig()
    {
        mem::MemoryConfig config;
        config.ramBytes = 64ull << 20; // 1024 pages
        config.pageBytes = PAGE;
        return config;
    }

    cgroup::CgroupTree tree;
    backend::SsdDevice ssd;
    backend::SwapBackend swap;
    backend::FilesystemBackend fs;
    backend::ZswapPool zswap;
    /** One-tier chains: a cgroup offloads only through a chain. */
    tier::TierChain swapChain;
    tier::TierChain zswapChain;
    mem::MemoryManager mm;
    cgroup::Cgroup *cg;

    /** One touch, made by @p touch, from every state a page can be
     *  in (AccessTransitionTable). */
    void transitionTable(const Toucher &touch);
};

} // namespace

TEST_F(MemoryManagerTest, AttachInstallsReclaimHook)
{
    mm.attach(*cg, &swapChain, &fs);
    // memory.reclaim now reaches the reclaimer (nothing resident yet).
    EXPECT_EQ(cg->memoryReclaim(PAGE, 0), 0u);
}

TEST_F(MemoryManagerTest, UnattachedCgroupThrows)
{
    EXPECT_THROW(mm.memcgOf(*cg), std::invalid_argument);
}

TEST_F(MemoryManagerTest, AnonAllocationChargesCgroup)
{
    mm.attach(*cg, &swapChain, &fs);
    mm.newPage(*cg, true, true, 0);
    mm.newPage(*cg, true, true, 0);
    EXPECT_EQ(cg->memCurrent(), 2ull * PAGE);
    EXPECT_EQ(mm.ramUsed(), 2ull * PAGE);
    const auto info = mm.info(*cg);
    EXPECT_EQ(info.anonBytes, 2ull * PAGE);
    EXPECT_EQ(info.fileBytes, 0u);
}

TEST_F(MemoryManagerTest, NonResidentAnonRejected)
{
    mm.attach(*cg, &swapChain, &fs);
    EXPECT_THROW(mm.newPage(*cg, true, false, 0),
                 std::invalid_argument);
}

TEST_F(MemoryManagerTest, FilePageCanStartOnDisk)
{
    mm.attach(*cg, &swapChain, &fs);
    const auto idx = mm.newPage(*cg, false, false, 0);
    EXPECT_EQ(cg->memCurrent(), 0u);
    // First access is a cold read: IO stall only, no refault.
    const auto result = mm.access(idx, sim::SEC);
    EXPECT_TRUE(result.faulted);
    EXPECT_FALSE(result.refault);
    EXPECT_GT(result.ioStall, 0u);
    EXPECT_EQ(result.memStall, 0u);
    EXPECT_EQ(cg->memCurrent(), static_cast<std::uint64_t>(PAGE));
    EXPECT_EQ(cg->stats().pgfilefault, 1u);
}

TEST_F(MemoryManagerTest, ResidentAccessIsFree)
{
    mm.attach(*cg, &swapChain, &fs);
    const auto idx = mm.newPage(*cg, true, true, 0);
    const auto result = mm.access(idx, sim::SEC);
    EXPECT_FALSE(result.faulted);
    EXPECT_EQ(result.memStall, 0u);
    EXPECT_EQ(result.ioStall, 0u);
}

TEST_F(MemoryManagerTest, SecondTouchActivates)
{
    mm.attach(*cg, &swapChain, &fs);
    const auto idx = mm.newPage(*cg, true, true, 0);
    EXPECT_EQ(mm.pages()[idx].lru, mem::LruKind::INACTIVE_ANON);
    mm.access(idx, sim::SEC);       // sets referenced
    EXPECT_EQ(cg->stats().pgactivate, 0u);
    mm.access(idx, 2 * sim::SEC);   // promotes
    EXPECT_EQ(mm.pages()[idx].lru, mem::LruKind::ACTIVE_ANON);
    EXPECT_EQ(cg->stats().pgactivate, 1u);
}

namespace
{

/** One row of the access() transition table: the state of a page
 *  before one touch, and what the touch leaves. The page is a file
 *  page on the file lists and in FS, and anonymous everywhere else. */
struct AccessRow {
    const char *state;
    // Before the touch.
    mem::Where where;
    /** NONE unless resident. */
    mem::LruKind lru;
    bool referenced;
    /** Evicted earlier, so the page holds a shadow entry. */
    bool shadow;
    // After it. The touch also makes the page resident and stamps
    // it; it faults exactly when the page was not resident, and
    // counts an activation exactly when a resident page moves lists.
    mem::LruKind lruAfter;
    std::uint8_t flagsAfter;
    bool refault;
};

} // namespace

void
MemoryManagerTest::transitionTable(const Toucher &touch)
{
    using enum mem::Where;
    constexpr auto IA = mem::LruKind::INACTIVE_ANON;
    constexpr auto AA = mem::LruKind::ACTIVE_ANON;
    constexpr auto IF = mem::LruKind::INACTIVE_FILE;
    constexpr auto AF = mem::LruKind::ACTIVE_FILE;
    constexpr auto NONE = mem::LruKind::NONE;
    constexpr std::uint8_t ANON = mem::PG_ANON;
    constexpr std::uint8_t REF = mem::PG_REFERENCED;
    constexpr std::uint8_t WS = mem::PG_WORKINGSET;
    const AccessRow rows[] = {
        // Resident (+ref: PG_REFERENCED set): the inline hit path,
        // except a second touch while inactive, which activates.
        {"inactive anon", RAM, IA, false, false, IA, ANON | REF, false},
        {"inactive anon+ref", RAM, IA, true, false, AA, ANON, false},
        {"active anon", RAM, AA, false, false, AA, ANON | REF, false},
        {"active anon+ref", RAM, AA, true, false, AA, ANON | REF, false},
        {"inactive file", RAM, IF, false, false, IF, REF, false},
        {"inactive file+ref", RAM, IF, true, false, AF, 0, false},
        {"active file", RAM, AF, false, false, AF, REF, false},
        {"active file+ref", RAM, AF, true, false, AF, REF, false},
        // Not resident: the fault path. A swap-in or file read within
        // the reuse distance is a working-set refault.
        {"zswap", ZSWAP, NONE, false, true, AA, ANON | WS, true},
        {"swap", SWAP, NONE, false, true, AA, ANON | WS, true},
        {"fs evicted", FS, NONE, false, true, AF, WS, true},
        {"fs never read", FS, NONE, false, false, IF, 0, false},
        {"lost", LOST, NONE, false, false, IA, ANON, false},
    };

    // Two tiers, so that maintenance evacuates them once both go
    // offline: the only way a page becomes LOST.
    tier::TierChain chain("zswap+swap", {&zswap, &swap},
                          tier::TierPlacement::HOTNESS);
    const sim::SimTime now = sim::MINUTE;
    int n = 0;
    for (const AccessRow &row : rows) {
        SCOPED_TRACE(row.state);
        // A cgroup per row, so that reclaim takes exactly its page.
        auto &c = tree.create("row" + std::to_string(n++));
        if (row.where == LOST)
            mm.attach(c, &chain, &fs);
        else if (row.where == SWAP)
            mm.attach(c, &swapChain, &fs);
        else
            mm.attach(c, &zswapChain, &fs);

        mem::PageIdx idx = mem::NO_PAGE;
        if (row.where == FS && !row.shadow) {
            idx = mm.newPage(c, false, false, 0);
        } else {
            // New pages start inactive and unreferenced.
            const bool file =
                row.where == FS || row.lru == IF || row.lru == AF;
            idx = mm.newPage(c, !file, true, 0);
            if (mem::lruIsActive(row.lru)) {
                mm.access(idx, 1 * sim::SEC); // referenced
                mm.access(idx, 2 * sim::SEC); // activated, bit cleared
            }
            if (row.referenced)
                mm.access(idx, 3 * sim::SEC);
            if (row.where != RAM) {
                ASSERT_EQ(mm.reclaim(c, PAGE, 4 * sim::SEC).reclaimedBytes,
                          PAGE);
            }
            if (row.where == LOST) {
                // Neither tier survives to take the page.
                chain.setTierOffline(0, true, 5 * sim::SEC);
                chain.setTierOffline(1, true, 5 * sim::SEC);
                mm.tierMaintain(c, 5 * sim::SEC);
            }
        }
        const mem::Page &before = mm.pages()[idx];
        ASSERT_EQ(before.where, row.where);
        ASSERT_EQ(before.lru, row.lru);
        ASSERT_EQ(before.referenced(), row.referenced);
        ASSERT_EQ(mm.shadowAge(idx) != 0, row.shadow);

        const auto activations = c.stats().pgactivate;
        const auto result = touch(mm, idx, now);
        const mem::Page &after = mm.pages()[idx];
        EXPECT_EQ(after.where, RAM);
        EXPECT_EQ(after.lru, row.lruAfter);
        EXPECT_EQ(static_cast<unsigned>(after.flags),
                  static_cast<unsigned>(row.flagsAfter));
        EXPECT_EQ(after.lastAccess, now);
        const bool activates = row.where == RAM && row.lruAfter != row.lru;
        EXPECT_EQ(c.stats().pgactivate - activations, activates ? 1u : 0u);
        EXPECT_EQ(result.faulted, row.where != RAM);
        EXPECT_EQ(result.refault, row.refault);
        if (row.where == RAM) {
            EXPECT_EQ(result.memStall, 0u);
            EXPECT_EQ(result.ioStall, 0u);
        }
    }
}

TEST_F(MemoryManagerTest, AccessTransitionTable)
{
    // One touch from every state a page can be in. The expected
    // transitions are those of access() as one function, before its
    // hit path moved inline: the inline path and accessSlow() must
    // split them without changing any.
    transitionTable(touchByAccess);
}

TEST_F(MemoryManagerTest, AccessTransitionTableThroughTouch)
{
    // The batch loop's hit path is its own copy of access()'s: every
    // row must come out of a batch of one touch as it does above.
    transitionTable(touchByBatch);
}

TEST_F(MemoryManagerTest, SwapOutAndSwapInSsd)
{
    mm.attach(*cg, &swapChain, &fs);
    const auto idx = mm.newPage(*cg, true, true, 0);
    const auto outcome = mm.reclaim(*cg, PAGE, sim::SEC);
    EXPECT_EQ(outcome.reclaimedBytes, static_cast<std::uint64_t>(PAGE));
    EXPECT_EQ(mm.pages()[idx].where, mem::Where::SWAP);
    EXPECT_EQ(cg->memCurrent(), 0u);
    EXPECT_EQ(cg->stats().pswpout, 1u);
    EXPECT_EQ(swap.usedBytes(), static_cast<std::uint64_t>(PAGE));

    // Fault back: memstall AND iostall (block device).
    const auto result = mm.access(idx, 2 * sim::SEC);
    EXPECT_TRUE(result.faulted);
    EXPECT_GT(result.memStall, 0u);
    EXPECT_GT(result.ioStall, 0u);
    EXPECT_EQ(cg->stats().pswpin, 1u);
    EXPECT_EQ(mm.pages()[idx].where, mem::Where::RAM);
    EXPECT_EQ(swap.usedBytes(), 0u);
    EXPECT_EQ(cg->memCurrent(), static_cast<std::uint64_t>(PAGE));
}

TEST_F(MemoryManagerTest, ZswapChargesCompressedBytes)
{
    mm.attach(*cg, &zswapChain, &fs, 4.0);
    const auto idx = mm.newPage(*cg, true, true, 0);
    mm.reclaim(*cg, PAGE, sim::SEC);
    ASSERT_EQ(mm.pages()[idx].where, mem::Where::ZSWAP);
    const auto stored = mm.pages()[idx].storedBytes;
    EXPECT_GT(stored, 0u);
    EXPECT_LT(stored, PAGE / 2);
    // cgroup holds just the compressed copy; host RAM reflects the pool.
    EXPECT_EQ(cg->memCurrent(), stored);
    EXPECT_EQ(mm.ramUsed(), stored);
    EXPECT_EQ(cg->stats().zswpout, 1u);

    // zswap fault: memstall but NO block IO.
    const auto result = mm.access(idx, 2 * sim::SEC);
    EXPECT_GT(result.memStall, 0u);
    EXPECT_EQ(result.ioStall, 0u);
    EXPECT_EQ(cg->stats().zswpin, 1u);
    EXPECT_EQ(cg->memCurrent(), static_cast<std::uint64_t>(PAGE));
    EXPECT_EQ(zswap.usedBytes(), 0u);
}

TEST_F(MemoryManagerTest, FileEvictionSetsShadowAndRefaults)
{
    mm.attach(*cg, &swapChain, &fs);
    const auto idx = mm.newPage(*cg, false, true, 0);
    mm.reclaim(*cg, PAGE, sim::SEC);
    EXPECT_EQ(mm.pages()[idx].where, mem::Where::FS);
    EXPECT_GT(mm.shadowAge(idx), 0u);
    EXPECT_EQ(cg->stats().pgfilesteal, 1u);

    // Immediate re-read: reuse distance 0 <= workingset -> refault,
    // counted as memory pressure.
    const auto result = mm.access(idx, 2 * sim::SEC);
    EXPECT_TRUE(result.refault);
    EXPECT_GT(result.memStall, 0u);
    EXPECT_GT(result.ioStall, 0u);
    EXPECT_EQ(cg->stats().wsRefault, 1u);
    // Refaulting working set is activated directly.
    EXPECT_EQ(mm.pages()[idx].lru, mem::LruKind::ACTIVE_FILE);
}

TEST_F(MemoryManagerTest, DistantRefaultIsColdRead)
{
    mm.attach(*cg, &swapChain, &fs);
    // Allocate a working set, evict one page, then cycle many other
    // file pages through to push the reuse distance out.
    const auto victim = mm.newPage(*cg, false, true, 0);
    mm.reclaim(*cg, PAGE, sim::SEC); // evicts victim

    for (int i = 0; i < 64; ++i) {
        const auto idx = mm.newPage(*cg, false, true, sim::SEC);
        mm.reclaim(*cg, PAGE, sim::SEC);
        (void)idx;
    }
    // Reuse distance (64) > resident working set (0) -> not a refault.
    const auto result = mm.access(victim, 2 * sim::SEC);
    EXPECT_TRUE(result.faulted);
    EXPECT_FALSE(result.refault);
    EXPECT_EQ(result.memStall, 0u);
}

TEST_F(MemoryManagerTest, FreePageReleasesEverywhere)
{
    mm.attach(*cg, &zswapChain, &fs, 4.0);
    const auto resident = mm.newPage(*cg, true, true, 0);
    const auto compressed = mm.newPage(*cg, true, true, 0);
    mm.access(resident, sim::SEC);
    mm.access(resident, sim::SEC); // activate so reclaim takes the other
    mm.reclaim(*cg, PAGE, sim::SEC);
    ASSERT_EQ(mm.pages()[compressed].where, mem::Where::ZSWAP);

    mm.freePage(resident);
    mm.freePage(compressed);
    EXPECT_EQ(cg->memCurrent(), 0u);
    EXPECT_EQ(mm.ramUsed(), 0u);
    EXPECT_EQ(zswap.usedBytes(), 0u);
}

TEST_F(MemoryManagerTest, MemoryLimitTriggersDirectReclaim)
{
    mm.attach(*cg, &swapChain, &fs);
    cg->setMemMax(4 * PAGE);
    for (int i = 0; i < 8; ++i)
        mm.newPage(*cg, true, true, 0);
    // Charge stayed at/below the limit thanks to direct reclaim.
    EXPECT_LE(cg->memCurrent(), 4ull * PAGE);
    EXPECT_GT(cg->stats().pswpout, 0u);
}

TEST_F(MemoryManagerTest, HostPressureTriggersGlobalReclaim)
{
    mm.attach(*cg, &swapChain, &fs);
    const int total_pages = 1024; // == RAM capacity
    for (int i = 0; i < total_pages + 64; ++i)
        mm.newPage(*cg, true, true, 0);
    EXPECT_LE(mm.ramUsed(), mm.ramCapacity());
    EXPECT_GT(cg->stats().pswpout, 0u);
    EXPECT_EQ(mm.oomEvents(), 0u);
}

TEST_F(MemoryManagerTest, FileOnlyModeNeverSwaps)
{
    mm.attach(*cg, nullptr, &fs); // TMO file-only deployment mode
    for (int i = 0; i < 10; ++i) {
        mm.newPage(*cg, true, true, 0);
        mm.newPage(*cg, false, true, 0);
    }
    mm.reclaim(*cg, 5 * PAGE, sim::SEC);
    EXPECT_EQ(cg->stats().pswpout, 0u);
    EXPECT_GT(cg->stats().pgfilesteal, 0u);
}

TEST_F(MemoryManagerTest, KswapdMaintainsWatermark)
{
    mm.attach(*cg, &swapChain, &fs);
    for (int i = 0; i < 1020; ++i)
        mm.newPage(*cg, true, true, 0);
    EXPECT_LT(mm.freeBytes(), static_cast<std::uint64_t>(
                                  0.02 * 64 * (1 << 20)));
    mm.kswapd(sim::SEC);
    EXPECT_GE(mm.freeBytes(), static_cast<std::uint64_t>(
                                  0.02 * 64 * (1 << 20)));
}

TEST_F(MemoryManagerTest, IdleBreakdownBucketsAges)
{
    mm.attach(*cg, &swapChain, &fs);
    const auto now = 10 * sim::MINUTE;
    const auto recent = mm.newPage(*cg, true, true, 0);
    const auto warm = mm.newPage(*cg, true, true, 0);
    const auto old = mm.newPage(*cg, true, true, 0);
    mm.access(recent, now - 30 * sim::SEC);
    mm.access(warm, now - 90 * sim::SEC);
    mm.access(old, now - 8 * sim::MINUTE);

    const auto breakdown = mm.idleBreakdown(*cg, now);
    EXPECT_NEAR(breakdown.used1min, 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(breakdown.used2min, 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(breakdown.used5min, 0.0, 1e-9);
    EXPECT_NEAR(breakdown.cold, 1.0 / 3.0, 1e-9);
}

TEST_F(MemoryManagerTest, SubtreeReclaimCoversDescendants)
{
    auto &parent = tree.create("parent");
    auto &child_a = tree.create("a", &parent);
    auto &child_b = tree.create("b", &parent);
    mm.attach(child_a, &swapChain, &fs);
    mm.attach(child_b, &swapChain, &fs);
    for (int i = 0; i < 8; ++i) {
        mm.newPage(child_a, true, true, 0);
        mm.newPage(child_b, true, true, 0);
    }
    const auto outcome = mm.reclaim(parent, 8 * PAGE, sim::SEC);
    EXPECT_GT(outcome.reclaimedBytes, 0u);
    // Both children contributed.
    EXPECT_GT(child_a.stats().pgsteal, 0u);
    EXPECT_GT(child_b.stats().pgsteal, 0u);
}

TEST_F(MemoryManagerTest, SwitchAnonBackendAffectsNewEvictionsOnly)
{
    mm.attach(*cg, &swapChain, &fs);
    const auto first = mm.newPage(*cg, true, true, 0);
    mm.reclaim(*cg, PAGE, sim::SEC);
    ASSERT_EQ(mm.pages()[first].where, mem::Where::SWAP);

    mm.setAnonChain(*cg, &zswapChain);
    const auto second = mm.newPage(*cg, true, true, 2 * sim::SEC);
    mm.reclaim(*cg, PAGE, 2 * sim::SEC);
    EXPECT_EQ(mm.pages()[second].where, mem::Where::ZSWAP);
}

TEST_F(MemoryManagerTest, DoubleAttachRejected)
{
    mm.attach(*cg, &swapChain, &fs);
    EXPECT_THROW(mm.attach(*cg, &zswapChain, &fs), std::invalid_argument);
}

TEST_F(MemoryManagerTest, AttachIndexMatchesAttachOrder)
{
    // The cached index is the contract between Page::memcg, the
    // Cgroup->index map, and the subtree enumeration order: it must
    // equal the attach position, for every cgroup, at any tree depth.
    auto &parent = tree.create("parent");
    std::vector<cgroup::Cgroup *> cgs;
    for (int g = 0; g < 3; ++g) {
        auto &mid = tree.create("g" + std::to_string(g), &parent);
        cgs.push_back(&mid);
        mm.attach(mid, &swapChain, &fs);
        for (int i = 0; i < 7; ++i) {
            cgs.push_back(
                &tree.create("n" + std::to_string(i), &mid));
            mm.attach(*cgs.back(), &swapChain, &fs);
        }
    }
    for (std::size_t i = 0; i < cgs.size(); ++i) {
        const auto &mcg = mm.memcgOf(*cgs[i]);
        EXPECT_EQ(mcg.index, i);
        EXPECT_EQ(mcg.cg, cgs[i]);
        // Pages inherit the same slot.
        const auto idx = mm.newPage(*cgs[i], true, true, 0);
        EXPECT_EQ(mm.pages()[idx].memcg, i);
    }
}

namespace
{

/** Expect @p cg's idleBreakdown at @p now to equal a brute-force
 *  recount over @p live, the test's own list of its live pages. */
void
expectIdleRecount(const mem::MemoryManager &mm, const cgroup::Cgroup &cg,
                  const std::vector<mem::PageIdx> &live, sim::SimTime now)
{
    std::uint64_t used1 = 0, used2 = 0, used5 = 0;
    for (const auto idx : live) {
        const auto last = mm.pages()[idx].lastAccess;
        const auto age = now > last ? now - last : 0;
        if (age <= 1 * sim::MINUTE)
            ++used1;
        else if (age <= 2 * sim::MINUTE)
            ++used2;
        else if (age <= 5 * sim::MINUTE)
            ++used5;
    }
    const auto breakdown = mm.idleBreakdown(cg, now);
    if (live.empty()) {
        const double sum = breakdown.used1min + breakdown.used2min +
                           breakdown.used5min + breakdown.cold;
        EXPECT_EQ(sum, 0.0) << cg.name();
        return;
    }
    const auto t = static_cast<double>(live.size());
    const auto fraction = [t](std::uint64_t n) {
        return static_cast<double>(n) / t;
    };
    EXPECT_NEAR(breakdown.used1min, fraction(used1), 1e-12) << cg.name();
    EXPECT_NEAR(breakdown.used2min, fraction(used2), 1e-12) << cg.name();
    EXPECT_NEAR(breakdown.used5min, fraction(used5), 1e-12) << cg.name();
    EXPECT_NEAR(breakdown.cold, 1.0 - fraction(used1 + used2 + used5), 1e-12)
        << cg.name();
}

} // namespace

TEST_F(MemoryManagerTest, IdleBreakdownMatchesBruteForceRecount)
{
    // One sweep of the page table fills every memcg's counts, so each
    // of three cgroups must agree with a brute-force recount over its
    // own live pages, under a deliberately messy history:
    // out-of-order access times, offloaded pages, and frees.
    std::vector<cgroup::Cgroup *> cgs = {cg};
    for (const char *name : {"b", "c"})
        cgs.push_back(&tree.create(name));
    for (auto *c : cgs)
        mm.attach(*c, &zswapChain, &fs, 4.0);
    std::vector<std::vector<mem::PageIdx>> live(cgs.size());
    sim::Rng rng(11);
    const auto now = 20 * sim::MINUTE;
    // Uneven sizes (150/100/50), interleaved in the page table.
    for (int i = 0; i < 300; ++i) {
        const auto slot = static_cast<std::size_t>(i % 6);
        const std::size_t c = slot < 3 ? 0 : (slot < 5 ? 1 : 2);
        live[c].push_back(mm.newPage(*cgs[c], i % 2 == 0, true, 0));
    }
    for (int round = 0; round < 600; ++round) {
        const auto &pages = live[rng.uniformInt(live.size())];
        // Access times jump around within [0, 20min] — NOT monotone.
        mm.access(pages[rng.uniformInt(pages.size())], rng.uniformInt(now));
    }
    for (auto *c : cgs)
        mm.reclaim(*c, 15 * PAGE, now); // some pages offloaded/evicted
    for (int i = 0; i < 30; ++i) {
        auto &pages = live[static_cast<std::size_t>(i % 3)];
        const auto victim = rng.uniformInt(pages.size());
        mm.freePage(pages[victim]);
        pages.erase(pages.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    for (std::size_t c = 0; c < cgs.size(); ++c)
        expectIdleRecount(mm, *cgs[c], live[c], now);
}

TEST_F(MemoryManagerTest, IdleGenerationsMatchRecountAfterEveryStep)
{
    // idleBreakdown() answers a whole-second query from generation
    // counts that every page change moves, and walks the page table
    // at any other instant. After each step below, queries at whole
    // seconds on both sides of every bucket edge, one before the
    // clock and one at a sub-second instant must all equal a
    // brute-force recount, over more history than the 512-generation
    // ring holds.
    tier::TierChain chain("zswap+swap", {&zswap, &swap},
                          tier::TierPlacement::HOTNESS);
    auto &lossy = tree.create("lossy");
    mm.attach(*cg, &zswapChain, &fs, 4.0);
    mm.attach(lossy, &chain, &fs);
    struct Group {
        cgroup::Cgroup *cg;
        std::vector<mem::PageIdx> live;
    };
    std::vector<Group> groups = {{cg, {}}, {&lossy, {}}};
    groups.reserve(3); // the late memcg's group keeps `live` valid
    for (int i = 0; i < 60; ++i) {
        Group &group = groups[i % 3 == 0 ? 1 : 0];
        group.live.push_back(mm.newPage(*group.cg, true, true, 0));
    }
    sim::SimTime clock = 0;
    const auto check = [&](const char *step) {
        SCOPED_TRACE(step);
        for (const Group &group : groups) {
            for (const sim::SimTime after :
                 {0, 1, 30, 59, 60, 61, 119, 120, 121, 299, 300, 301, 450})
                expectIdleRecount(mm, *group.cg, group.live,
                                  clock + after * sim::SEC);
            expectIdleRecount(mm, *group.cg, group.live,
                              clock + 500 * sim::MSEC);
            if (clock >= 90 * sim::SEC)
                expectIdleRecount(mm, *group.cg, group.live,
                                  clock - 90 * sim::SEC);
        }
    };
    check("the first query starts the counts");

    // The inline hit path, within the stamp's generation and into a
    // later one; then a second touch activates through accessSlow().
    auto &live = groups[0].live;
    mm.access(live[0], 400 * sim::MSEC);
    check("a hit in the same generation");
    clock = 3 * sim::SEC;
    mm.access(live[1], clock);
    check("a hit in a later generation");
    mm.access(live[1], clock + 4 * sim::SEC);
    ASSERT_EQ(mm.pages()[live[1]].lru, mem::LruKind::ACTIVE_ANON);
    check("an activation");

    // 700 s of touches at sub-second stamps: the ring wraps, and the
    // first ten pages of each group, never touched again, leave it.
    sim::Rng rng(5);
    for (int round = 1; clock < 700 * sim::SEC; ++round) {
        clock += 7 * sim::SEC;
        for (int i = 0; i < 6; ++i) {
            const auto &pages = groups[rng.uniformInt(2)].live;
            mm.access(pages[10 + rng.uniformInt(pages.size() - 10)],
                      clock + rng.uniformInt(sim::SEC));
        }
        if (round % 7 == 0)
            check("700 s of touches");
    }
    mm.access(live[3], clock);
    check("a hit on a page older than the ring");

    // Stamps moving backwards, within the ring and out of it, and one
    // later than the queries at the clock.
    mm.access(live[12], clock - 400 * sim::SEC);
    mm.access(groups[1].live[12], 100 * sim::SEC);
    check("stamps moved backwards");
    mm.access(live[13], clock + 5 * sim::SEC);
    check("a stamp later than the queries");

    // Reclaim moves no stamp; a zswap swap-in does.
    mm.reclaim(*cg, 8 * PAGE, clock);
    const auto swapped =
        std::find_if(live.begin(), live.end(), [this](mem::PageIdx idx) {
            return mm.pages()[idx].where == mem::Where::ZSWAP;
        });
    ASSERT_NE(swapped, live.end());
    check("a reclaim");
    const auto pswpin = cg->stats().pswpin;
    clock += 2 * sim::SEC;
    mm.access(*swapped, clock);
    ASSERT_EQ(cg->stats().pswpin, pswpin + 1);
    check("a zswap swap-in");

    // Both tiers of the chain die under offloaded pages: the next
    // touch of a LOST page is a hard refault.
    ASSERT_GT(mm.reclaim(lossy, 4 * PAGE, clock).reclaimedBytes, 0u);
    chain.setTierOffline(0, true, clock);
    chain.setTierOffline(1, true, clock);
    for (int pass = 0; pass < 16 && mm.memcgOf(lossy).lostPages == 0;
         ++pass)
        mm.tierMaintain(lossy, clock);
    const auto &lossy_live = groups[1].live;
    const auto lost = std::find_if(
        lossy_live.begin(), lossy_live.end(), [this](mem::PageIdx idx) {
            return mm.pages()[idx].where == mem::Where::LOST;
        });
    ASSERT_NE(lost, lossy_live.end());
    check("pages lost with their tiers");
    clock += sim::SEC;
    mm.access(*lost, clock);
    ASSERT_EQ(lossy.stats().lostRefault, 1u);
    check("a LOST refault");

    // A page older than the ring is freed, and its slot is reused by
    // a page of the other memcg.
    const mem::PageIdx freed = live[2];
    mm.freePage(freed);
    live.erase(live.begin() + 2);
    check("a free");
    clock += sim::SEC;
    const auto reused = mm.newPage(lossy, true, true, clock);
    ASSERT_EQ(reused, freed);
    groups[1].live.push_back(reused);
    check("a reused slot");

    // A memcg attached after counting began.
    auto &late = tree.create("late");
    mm.attach(late, &zswapChain, &fs, 4.0);
    groups.push_back({&late, {}});
    check("an attach");
    clock += sim::SEC;
    groups[2].live.push_back(mm.newPage(late, true, true, clock));
    check("a page of the late memcg");

    // A stamp 2000 s ahead pushes every other generation out of the
    // ring: queries around the clock walk the page table, and those
    // at the new stamp read the counts.
    mm.access(groups[0].live[5], clock + 2000 * sim::SEC);
    check("queries far before the newest stamp");
    clock += 2000 * sim::SEC;
    check("queries after the ring moved 2000 generations");
}

namespace
{

/**
 * An offload tier whose load() allocates a page, as a backend's IO
 * bookkeeping may: a fault through it grows the page table, and moves
 * it when the table is full.
 */
class GrowOnLoadBackend : public backend::OffloadBackend
{
  public:
    GrowOnLoadBackend(mem::MemoryManager &mm, cgroup::Cgroup &spare)
        : mm_(mm), spare_(spare)
    {}

    const std::string &name() const override { return name_; }

    backend::StoreResult
    store(std::uint64_t page_bytes, double, sim::SimTime) override
    {
        used_ += page_bytes;
        return {true, page_bytes, 0};
    }

    backend::LoadResult
    load(std::uint64_t stored_bytes, sim::SimTime now) override
    {
        // A non-resident file page: only the table grows.
        mm_.newPage(spare_, /*anon=*/false, /*resident=*/false, now);
        used_ -= stored_bytes;
        return {40 * sim::USEC, true};
    }

    void release(std::uint64_t stored_bytes) override
    {
        used_ -= stored_bytes;
    }

    std::uint64_t usedBytes() const override { return used_; }
    bool isBlockDevice() const override { return true; }

  private:
    mem::MemoryManager &mm_;
    cgroup::Cgroup &spare_;
    std::string name_ = "grow-on-load";
    std::uint64_t used_ = 0;
};

/**
 * A manager whose pages are in every state a touch can meet: resident
 * active, resident inactive with and without the referenced bit, in
 * zswap, in swap, behind a tier that grows the table on load, on the
 * filesystem (evicted or never read), and lost. Two worlds built with
 * the same arguments are identical, so one can take a loop of
 * access() calls and the other the same touches as one batch.
 */
struct TouchWorld {
    /** Pages the touches pick from, in every cgroup. */
    std::vector<mem::PageIdx> pages;
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd{backend::ssdSpecForClass('C'), 1};
    backend::SwapBackend swap{ssd, 256ull << 20};
    backend::SwapBackend lostSwap{ssd, 256ull << 20};
    backend::FilesystemBackend fs{ssd};
    backend::ZswapPool zswap{{}, 2};
    backend::ZswapPool lostZswap{{}, 5};
    std::unique_ptr<mem::MemoryManager> mm;
    std::unique_ptr<GrowOnLoadBackend> grow;
    std::unique_ptr<tier::TierChain> zswapChain, swapChain, growChain,
        lostChain;

    /** @p counting starts the generation counts before any touch. */
    TouchWorld(std::uint64_t seed, bool counting)
    {
        mem::MemoryConfig config;
        // Below the pages made here: faults late in the batch take
        // direct reclaim.
        config.ramBytes = 96ull * PAGE;
        config.pageBytes = PAGE;
        mm = std::make_unique<mem::MemoryManager>(config, seed);
        auto &spare = tree.create("spare");
        grow = std::make_unique<GrowOnLoadBackend>(*mm, spare);
        zswapChain = std::make_unique<tier::TierChain>(
            "zswap", std::vector<backend::OffloadBackend *>{&zswap},
            tier::TierPlacement::HOTNESS);
        swapChain = std::make_unique<tier::TierChain>(
            "swap", std::vector<backend::OffloadBackend *>{&swap},
            tier::TierPlacement::HOTNESS);
        growChain = std::make_unique<tier::TierChain>(
            "grow", std::vector<backend::OffloadBackend *>{grow.get()},
            tier::TierPlacement::HOTNESS);
        lostChain = std::make_unique<tier::TierChain>(
            "zswap+swap",
            std::vector<backend::OffloadBackend *>{&lostZswap, &lostSwap},
            tier::TierPlacement::HOTNESS);
        mm->attach(spare, nullptr, &fs);

        // Anon cgroups, one per tier chain, and one of file pages.
        struct Group {
            const char *name;
            tier::TierChain *chain;
            bool anon;
        };
        const Group groups[] = {
            {"zswap", zswapChain.get(), true},
            {"swap", swapChain.get(), true},
            {"grow", growChain.get(), true},
            {"lost", lostChain.get(), true},
            {"file", swapChain.get(), false},
        };
        sim::Rng rng(seed);
        for (const Group &group : groups) {
            auto &c = tree.create(group.name);
            mm->attach(c, group.chain, &fs);
            std::vector<mem::PageIdx> own;
            for (int i = 0; i < 24; ++i)
                own.push_back(mm->newPage(c, group.anon, true, 0));
            if (!group.anon)
                for (int i = 0; i < 4; ++i) // never read
                    own.push_back(mm->newPage(c, false, false, 0));
            // Touch some pages once or twice: referenced, active.
            for (int t = 1; t <= 3; ++t)
                for (const mem::PageIdx idx : own)
                    if (rng.chance(0.4))
                        mm->access(idx, t * sim::SEC);
            // Offload a third of the group from the inactive tails.
            mm->reclaim(c, 8ull * PAGE, 4 * sim::SEC);
            if (group.chain == lostChain.get()) {
                lostChain->setTierOffline(0, true, 5 * sim::SEC);
                lostChain->setTierOffline(1, true, 5 * sim::SEC);
                mm->tierMaintain(c, 5 * sim::SEC);
            }
            pages.insert(pages.end(), own.begin(), own.end());
        }
        if (counting)
            mm->idleBreakdown(spare, 5 * sim::SEC);
        // Full: the first page a load allocates moves the table.
        mm->pages().shrink_to_fit();
    }

    /** How many pages are in each state: the Where name, and for a
     *  resident page its list and referenced bit. */
    std::map<std::string, int>
    states() const
    {
        static const char *const WHERE[] = {"ram", "zswap", "swap", "fs",
                                            "lost"};
        std::map<std::string, int> count;
        for (const mem::PageIdx idx : pages) {
            const mem::Page &page = mm->pages()[idx];
            std::string state = WHERE[static_cast<int>(page.where)];
            if (page.resident())
                state += mem::lruIsActive(page.lru) ? " active"
                         : page.referenced()        ? " inactive+ref"
                                                    : " inactive";
            ++count[state];
        }
        return count;
    }
};

/** The touches that @p picks ask for, at @p now, as a plain loop of
 *  access() calls with touch()'s budget test and dirty marking. */
mem::TouchTotals
accessLoop(mem::MemoryManager &mm, const std::vector<mem::PageIdx> &picks,
           sim::SimTime now, sim::SimTime budget, bool dirty)
{
    mem::TouchTotals totals;
    sim::SimTime stalled = 0;
    for (const mem::PageIdx idx : picks) {
        if (stalled >= budget)
            break;
        const mem::AccessResult result = mm.access(idx, now);
        if (dirty)
            mm.pages()[idx].flags |= mem::PG_DIRTY;
        ++totals.touches;
        totals.faults += result.faulted;
        totals.refaults += result.refault;
        totals.stalls.add(result);
        stalled += std::max(result.memStall, result.ioStall);
    }
    return totals;
}

/** The pages of one LRU list, head to tail. */
std::vector<mem::PageIdx>
listOrder(const mem::MemoryManager &mm, const mem::LruList &list)
{
    std::vector<mem::PageIdx> order;
    for (mem::PageIdx cur = list.head();
         cur != mem::NO_PAGE && order.size() <= mm.pages().size();
         cur = mm.pages()[cur].next)
        order.push_back(cur);
    return order;
}

/** Two managers hold the same simulated state: every page field and
 *  shadow age, each list's order, the counters of every memcg and its
 *  ancestors, idleBreakdown() at whole seconds after @p now, and the
 *  global resident, used and free totals. */
void
expectSameManager(const mem::MemoryManager &a, const mem::MemoryManager &b,
                  sim::SimTime now)
{
    const auto &pa = a.pages();
    const auto &pb = b.pages();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        SCOPED_TRACE("page " + std::to_string(i));
        EXPECT_EQ(pa[i].prev, pb[i].prev);
        EXPECT_EQ(pa[i].next, pb[i].next);
        EXPECT_EQ(pa[i].memcg, pb[i].memcg);
        EXPECT_EQ(pa[i].flags, pb[i].flags);
        EXPECT_EQ(pa[i].store, pb[i].store);
        EXPECT_EQ(pa[i].where, pb[i].where);
        EXPECT_EQ(pa[i].lru, pb[i].lru);
        EXPECT_EQ(pa[i].heat, pb[i].heat);
        EXPECT_EQ(pa[i].heatEpoch, pb[i].heatEpoch);
        EXPECT_EQ(pa[i].storedBytes, pb[i].storedBytes);
        EXPECT_EQ(pa[i].lastAccess, pb[i].lastAccess);
        EXPECT_EQ(a.shadowAge(static_cast<mem::PageIdx>(i)),
                  b.shadowAge(static_cast<mem::PageIdx>(i)));
    }
    ASSERT_EQ(a.memcgCount(), b.memcgCount());
    for (std::size_t m = 0; m < a.memcgCount(); ++m) {
        const mem::MemCg &ma = a.memcgAt(m);
        const mem::MemCg &mb = b.memcgAt(m);
        SCOPED_TRACE(ma.cg->name());
        for (std::size_t k = 0; k < mem::NUM_LRU_LISTS; ++k) {
            const auto kind = static_cast<mem::LruKind>(k);
            EXPECT_EQ(ma.lru.list(kind).head(), mb.lru.list(kind).head());
            EXPECT_EQ(ma.lru.list(kind).tail(), mb.lru.list(kind).tail());
            EXPECT_EQ(ma.lru.list(kind).size(), mb.lru.list(kind).size());
            EXPECT_EQ(listOrder(a, ma.lru.list(kind)),
                      listOrder(b, mb.lru.list(kind)));
        }
        // VmStats is all 64-bit counters.
        EXPECT_EQ(std::memcmp(&ma.cg->stats(), &mb.cg->stats(),
                              sizeof(cgroup::VmStats)),
                  0);
        const cgroup::Cgroup *up_b = mb.cg;
        for (const cgroup::Cgroup *up_a = ma.cg; up_a && up_b;
             up_a = up_a->parent(), up_b = up_b->parent())
            EXPECT_EQ(up_a->memCurrent(), up_b->memCurrent())
                << up_a->name();
        // At whole seconds, counted or walked alike.
        const sim::SimTime first = (now / sim::SEC + 1) * sim::SEC;
        for (const sim::SimTime at : {first, first + 90 * sim::SEC,
                                      first + 240 * sim::SEC}) {
            const mem::IdleBreakdown ia = a.idleBreakdown(*ma.cg, at);
            const mem::IdleBreakdown ib = b.idleBreakdown(*mb.cg, at);
            EXPECT_EQ(ia.used1min, ib.used1min);
            EXPECT_EQ(ia.used2min, ib.used2min);
            EXPECT_EQ(ia.used5min, ib.used5min);
            EXPECT_EQ(ia.cold, ib.cold);
        }
    }
    EXPECT_EQ(a.residentPages(), b.residentPages());
    EXPECT_EQ(a.ramUsed(), b.ramUsed());
    EXPECT_EQ(a.freeBytes(), b.freeBytes());
}

void
expectSameWorld(const TouchWorld &a, const TouchWorld &b,
                sim::SimTime now)
{
    expectSameManager(*a.mm, *b.mm, now);
}

void
expectSameTotals(const mem::TouchTotals &a, const mem::TouchTotals &b)
{
    EXPECT_EQ(a.touches, b.touches);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.refaults, b.refaults);
    EXPECT_EQ(a.stalls.memOnly, b.stalls.memOnly);
    EXPECT_EQ(a.stalls.memAndIo, b.stalls.memAndIo);
    EXPECT_EQ(a.stalls.ioOnly, b.stalls.ioOnly);
}

} // namespace

TEST(TouchBatchTest, WorldHoldsEveryPageState)
{
    for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
        const TouchWorld world(seed, false);
        const auto states = world.states();
        for (const char *state :
             {"ram active", "ram inactive+ref", "ram inactive", "zswap",
              "swap", "fs", "lost"})
            EXPECT_GT(states.count(state), 0u)
                << "seed " << seed << ": no page in state " << state;
    }
}

TEST(TouchBatchTest, BatchEqualsAccessLoop)
{
    constexpr std::size_t TOUCHES = 400;
    const sim::SimTime now = 7 * sim::SEC + 250 * sim::MSEC;
    for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
        for (const bool counting : {false, true}) {
            for (const bool dirty : {false, true}) {
                // The picks: random pages of the world, many touched
                // twice (a second touch activates an inactive page).
                std::vector<mem::PageIdx> picks;
                {
                    const TouchWorld probe(seed, counting);
                    sim::Rng rng(seed * 31);
                    for (std::size_t i = 0; i < TOUCHES; ++i)
                        picks.push_back(probe.pages[rng.uniformInt(
                            probe.pages.size())]);
                }
                // The stalls of every touch, to set a budget that
                // runs out partway.
                sim::SimTime all_stall = 0;
                {
                    TouchWorld full(seed, counting);
                    all_stall = accessLoop(*full.mm, picks, now,
                                           mem::NO_STALL_BUDGET, dirty)
                                    .stalls.total();
                }
                ASSERT_GT(all_stall, 0u);
                for (const sim::SimTime budget :
                     {mem::NO_STALL_BUDGET, all_stall / 2}) {
                    SCOPED_TRACE("seed " + std::to_string(seed) +
                                 (counting ? " counting" : "") +
                                 (dirty ? " dirty" : "") +
                                 (budget == mem::NO_STALL_BUDGET
                                      ? ""
                                      : " budget"));
                    TouchWorld loop(seed, counting);
                    TouchWorld batch(seed, counting);
                    const std::size_t table = batch.mm->pages().size();
                    ASSERT_EQ(batch.mm->pages().capacity(), table);
                    const mem::TouchTotals expected =
                        accessLoop(*loop.mm, picks, now, budget, dirty);
                    std::size_t drawn = 0;
                    const mem::TouchTotals got = batch.mm->touch(
                        picks.size(), now,
                        [&] { return picks[drawn++]; }, budget, dirty);
                    if (budget == mem::NO_STALL_BUDGET) {
                        EXPECT_EQ(got.touches, picks.size());
                        // A load grew the full table, so moved it.
                        EXPECT_GT(batch.mm->pages().size(), table);
                    } else {
                        EXPECT_GT(got.touches, 0u);
                        EXPECT_LT(got.touches, picks.size());
                    }
                    // pick() runs only for the touches made.
                    EXPECT_EQ(drawn, got.touches);
                    expectSameTotals(expected, got);
                    expectSameWorld(loop, batch, now);
                }
            }
        }
    }
}

namespace
{

/**
 * A manager to create pages in: "app" and "neighbour" under one "pool"
 * cgroup, on one zswap+ssd chain (a cold page enters the SSD, whose
 * write latency is a draw), with 48 resident pages each, anon and
 * file, some of them referenced or active, and some of the app's pages
 * freed. Two worlds built with the same arguments are identical, so
 * one can make pages in one newPages() batch and the other by as many
 * newPage() calls.
 */
struct CreateWorld {
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd{backend::ssdSpecForClass('C'), 1};
    backend::SwapBackend swap{ssd, 256ull << 20};
    backend::FilesystemBackend fs{ssd};
    backend::ZswapPool zswap{{}, 2};
    tier::TierChain chain{"zswap+ssd", {&zswap, &swap},
                          tier::TierPlacement::HOTNESS};
    std::unique_ptr<mem::MemoryManager> mm;
    cgroup::Cgroup *pool = nullptr;
    cgroup::Cgroup *app = nullptr;
    /** The freed pages, in the order they were freed. */
    std::vector<mem::PageIdx> freed;

    /**
     * @param ram_pages Host DRAM, in pages.
     * @param pool_max_pages The pool's memory.max, in pages; 0 = none.
     * @param free_slots How many of the app's pages to free.
     * @param counting Start the generation counts before any page is
     *        made.
     */
    CreateWorld(std::uint64_t seed, std::uint64_t ram_pages,
                std::uint64_t pool_max_pages, std::size_t free_slots,
                bool counting)
    {
        mem::MemoryConfig config;
        config.ramBytes = ram_pages * PAGE;
        config.pageBytes = PAGE;
        mm = std::make_unique<mem::MemoryManager>(config, seed);
        pool = &tree.create("pool");
        app = &tree.create("app", pool);
        cgroup::Cgroup &neighbour = tree.create("neighbour", pool);
        mm->attach(*app, &chain, &fs);
        mm->attach(neighbour, &chain, &fs);
        if (counting)
            mm->idleBreakdown(*app, 0);
        std::vector<mem::PageIdx> own;
        for (int i = 0; i < 48; ++i) {
            mm->newPage(neighbour, i % 3 != 0, true, 0);
            own.push_back(mm->newPage(*app, i % 2 == 0, true, 0));
        }
        sim::Rng rng(seed);
        for (int t = 1; t <= 3; ++t)
            for (mem::PageIdx idx = 0; idx < mm->pages().size(); ++idx)
                if (rng.chance(0.3))
                    mm->access(idx, t * sim::SEC);
        // 7 and 48 are coprime: distinct pages in a scrambled order.
        for (std::size_t i = 0; i < free_slots; ++i) {
            freed.push_back(own[i * 7 % own.size()]);
            mm->freePage(freed.back());
        }
        if (pool_max_pages > 0)
            pool->setMemMax(pool_max_pages * PAGE);
    }
};

} // namespace

TEST(NewPagesTest, BatchEqualsNewPageLoop)
{
    struct Case {
        const char *name;
        std::uint64_t ramPages;
        std::uint64_t poolMaxPages;
        std::size_t freeSlots;
        bool anon;
        bool resident;
        std::uint64_t count;
        /** The batch must take direct reclaim. */
        bool reclaims;
        /** ... and some of it must store into the SSD. */
        bool ssd;
    };
    // The fill holds 96 pages less the freed ones.
    const Case cases[] = {
        {"room for every page", 1024, 0, 0, true, true, 200, false, false},
        {"RAM runs out", 128, 0, 0, true, true, 160, true, true},
        {"memory.max runs out", 1024, 120, 0, true, true, 60, true, false},
        {"free slots", 1024, 0, 12, true, true, 40, false, false},
        {"free slots, RAM runs out", 100, 0, 12, false, true, 60, true,
         false},
        {"non-resident file pages", 100, 0, 12, false, false, 40, false,
         false},
        {"a count of 0", 100, 0, 12, true, true, 0, false, false},
    };
    const sim::SimTime now = 7 * sim::SEC + 250 * sim::MSEC;
    for (const Case &c : cases) {
        for (const std::uint64_t seed : {21ull, 22ull}) {
            for (const bool counting : {false, true}) {
                SCOPED_TRACE(std::string(c.name) + ", seed " +
                             std::to_string(seed) +
                             (counting ? ", counting" : ""));
                CreateWorld batch(seed, c.ramPages, c.poolMaxPages,
                                  c.freeSlots, counting);
                CreateWorld loop(seed, c.ramPages, c.poolMaxPages,
                                 c.freeSlots, counting);
                const std::size_t table = batch.mm->pages().size();

                std::vector<mem::PageIdx> got(c.count, mem::NO_PAGE);
                const mem::AccessResult stall = batch.mm->newPages(
                    *batch.app, c.anon, c.resident, c.count, now,
                    got.data());
                std::vector<mem::PageIdx> want;
                sim::SimTime want_stall = 0;
                for (std::uint64_t i = 0; i < c.count; ++i) {
                    mem::AccessResult one;
                    want.push_back(loop.mm->newPage(
                        *loop.app, c.anon, c.resident, now, &one));
                    EXPECT_FALSE(one.faulted);
                    EXPECT_EQ(one.ioStall, 0u);
                    want_stall += one.memStall;
                }
                EXPECT_EQ(got, want);
                EXPECT_FALSE(stall.faulted);
                EXPECT_FALSE(stall.refault);
                EXPECT_EQ(stall.ioStall, 0u);
                EXPECT_EQ(stall.memStall, want_stall);
                expectSameManager(*batch.mm, *loop.mm, now);

                // The case does what it names.
                const cgroup::VmStats &vm = batch.app->stats();
                const std::uint64_t direct =
                    vm.pgscanDirect +
                    batch.tree.find("pool/neighbour")->stats().pgscanDirect;
                if (c.reclaims) {
                    EXPECT_GT(direct, 0u);
                    EXPECT_GT(stall.memStall, 0u);
                } else {
                    EXPECT_EQ(direct, 0u);
                }
                if (c.poolMaxPages > 0) {
                    EXPECT_LE(batch.pool->memCurrent(),
                              c.poolMaxPages * PAGE);
                }
                if (c.ssd) {
                    EXPECT_GT(batch.swap.usedBytes(), 0u);
                }
                // Freed slots are reused last freed first, then the
                // table grows.
                for (std::size_t i = 0; i < c.count; ++i) {
                    if (i < c.freeSlots)
                        EXPECT_EQ(got[i],
                                  batch.freed[c.freeSlots - 1 - i]);
                    else
                        EXPECT_GE(got[i], table);
                }

                // The same reclaim evicts the same pages from both.
                const mem::ReclaimOutcome ra =
                    batch.mm->reclaim(*batch.pool, 24 * PAGE, now + sim::SEC);
                const mem::ReclaimOutcome rb =
                    loop.mm->reclaim(*loop.pool, 24 * PAGE, now + sim::SEC);
                EXPECT_GT(ra.reclaimedBytes, 0u);
                EXPECT_EQ(ra.reclaimedBytes, rb.reclaimedBytes);
                EXPECT_EQ(ra.scannedPages, rb.scannedPages);
                EXPECT_EQ(ra.anonPages, rb.anonPages);
                EXPECT_EQ(ra.filePages, rb.filePages);
                EXPECT_EQ(ra.cpuTime, rb.cpuTime);
                expectSameManager(*batch.mm, *loop.mm, now + sim::SEC);
            }
        }
    }
}

TEST(NewPagesTest, ArgumentErrorsThrowBeforeAnyPageExists)
{
    CreateWorld world(21, 1024, 0, 4, false);
    cgroup::Cgroup &stray = world.tree.create("stray");
    const std::size_t table = world.mm->pages().size();
    const std::uint64_t resident = world.mm->residentPages();
    std::vector<mem::PageIdx> out(8, mem::NO_PAGE);
    EXPECT_THROW(world.mm->newPages(stray, true, true, 8, 0, out.data()),
                 std::invalid_argument);
    EXPECT_THROW(
        world.mm->newPages(*world.app, true, false, 8, 0, out.data()),
        std::invalid_argument);
    world.mm->attach(stray, nullptr, nullptr);
    EXPECT_THROW(world.mm->newPages(stray, false, true, 8, 0, out.data()),
                 std::invalid_argument);
    EXPECT_EQ(world.mm->pages().size(), table);
    EXPECT_EQ(world.mm->residentPages(), resident);
    EXPECT_EQ(out, std::vector<mem::PageIdx>(8, mem::NO_PAGE));
}
