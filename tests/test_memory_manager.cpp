/**
 * @file
 * Tests for the memory manager: allocation, fault paths, refault
 * detection, charge accounting and limits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

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

TEST_F(MemoryManagerTest, AccessTransitionTable)
{
    // One touch from every state a page can be in. The expected
    // transitions are those of access() as one function, before its
    // hit path moved inline: the inline path and accessSlow() must
    // split them without changing any.
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
                          tier::TierChainConfig{});
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
        const auto result = mm.access(idx, now);
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
                          tier::TierChainConfig{});
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
