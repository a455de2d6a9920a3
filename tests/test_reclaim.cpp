/**
 * @file
 * Tests for the reclaim algorithm: file-first-until-refault policy,
 * cost balancing, legacy mode, second chance, and aging.
 */

#include <gtest/gtest.h>

#include <vector>

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

class ReclaimTest : public ::testing::Test
{
  protected:
    ReclaimTest()
        : ssd(backend::ssdSpecForClass('C'), 1),
          swap(ssd, 1ull << 30),
          fs(ssd),
          swapChain("swap", {&swap}, {})
    {}

    mem::MemoryManager &
    makeManager(mem::ReclaimMode mode)
    {
        mem::MemoryConfig config;
        config.ramBytes = 256ull << 20;
        config.pageBytes = PAGE;
        config.mode = mode;
        mm = std::make_unique<mem::MemoryManager>(config, 7);
        cg = &tree.create("app");
        mm->attach(*cg, &swapChain, &fs);
        return *mm;
    }

    /** Allocate n anon + n file pages, all resident. */
    void
    populate(int n, std::vector<mem::PageIdx> *anon = nullptr,
             std::vector<mem::PageIdx> *file = nullptr)
    {
        for (int i = 0; i < n; ++i) {
            const auto a = mm->newPage(*cg, true, true, 0);
            const auto f = mm->newPage(*cg, false, true, 0);
            if (anon)
                anon->push_back(a);
            if (file)
                file->push_back(f);
        }
    }

    cgroup::CgroupTree tree;
    backend::SsdDevice ssd;
    backend::SwapBackend swap;
    backend::FilesystemBackend fs;
    tier::TierChain swapChain;
    std::unique_ptr<mem::MemoryManager> mm;
    cgroup::Cgroup *cg = nullptr;
};

} // namespace

TEST_F(ReclaimTest, TmoModeReclaimsFileFirstWithoutRefaults)
{
    makeManager(mem::ReclaimMode::TMO_BALANCED);
    populate(64);
    // No refaults have ever occurred: reclaim must be file-only (§3.4).
    mm->reclaim(*cg, 32 * PAGE, sim::SEC);
    EXPECT_GT(cg->stats().pgfilesteal, 0u);
    EXPECT_EQ(cg->stats().pswpout, 0u);
}

TEST_F(ReclaimTest, TmoModeSwapsOnceRefaultsAppear)
{
    makeManager(mem::ReclaimMode::TMO_BALANCED);
    std::vector<mem::PageIdx> file;
    populate(64, nullptr, &file);

    // Evict file pages, then fault them straight back: refaults raise
    // the file cost.
    mm->reclaim(*cg, 16 * PAGE, sim::SEC);
    for (const auto idx : file)
        mm->access(idx, 2 * sim::SEC);
    EXPECT_GT(cg->stats().wsRefault, 0u);

    // With refault cost registered, the next reclaim touches anon too.
    mm->reclaim(*cg, 16 * PAGE, 3 * sim::SEC);
    EXPECT_GT(cg->stats().pswpout, 0u);
}

TEST_F(ReclaimTest, LegacyModeAvoidsSwapUntilFileExhausted)
{
    makeManager(mem::ReclaimMode::LEGACY_FILE_FIRST);
    populate(32);
    // Reclaim most of memory: legacy policy drains the file cache and
    // only then swaps ("swap as emergency overflow").
    mm->reclaim(*cg, 32 * PAGE, sim::SEC);
    EXPECT_EQ(cg->stats().pswpout, 0u);
    mm->reclaim(*cg, 28 * PAGE, 2 * sim::SEC);
    EXPECT_GT(cg->stats().pgfilesteal, 28u);
}

TEST_F(ReclaimTest, ReferencedPagesGetSecondChance)
{
    makeManager(mem::ReclaimMode::TMO_BALANCED);
    std::vector<mem::PageIdx> file;
    populate(32, nullptr, &file);
    // Touch all file pages once: referenced bit set.
    for (const auto idx : file)
        mm->access(idx, sim::SEC);
    mm->reclaim(*cg, 8 * PAGE, 2 * sim::SEC);
    EXPECT_GT(cg->stats().pgrotate, 0u);
}

TEST_F(ReclaimTest, ActiveListAgedWhenInactiveShort)
{
    makeManager(mem::ReclaimMode::TMO_BALANCED);
    std::vector<mem::PageIdx> file;
    populate(32, nullptr, &file);
    // Activate every file page (two touches each).
    for (const auto idx : file) {
        mm->access(idx, sim::SEC);
        mm->access(idx, 2 * sim::SEC);
    }
    EXPECT_EQ(mm->memcgOf(*cg).lru.list(mem::LruKind::ACTIVE_FILE).size(),
              32u);
    mm->reclaim(*cg, 8 * PAGE, 3 * sim::SEC);
    EXPECT_GT(cg->stats().pgdeactivate, 0u);
    EXPECT_GT(cg->stats().pgsteal, 0u);
}

TEST_F(ReclaimTest, ReclaimStopsAtTarget)
{
    makeManager(mem::ReclaimMode::TMO_BALANCED);
    populate(128);
    const auto outcome = mm->reclaim(*cg, 10 * PAGE, sim::SEC);
    EXPECT_GE(outcome.reclaimedBytes, 10ull * PAGE);
    EXPECT_LE(outcome.reclaimedBytes, 13ull * PAGE);
}

TEST_F(ReclaimTest, ScanCountsAccumulate)
{
    makeManager(mem::ReclaimMode::TMO_BALANCED);
    populate(32);
    const auto outcome = mm->reclaim(*cg, 8 * PAGE, sim::SEC);
    EXPECT_GE(outcome.scannedPages, 8u);
    EXPECT_EQ(cg->stats().pgscan, outcome.scannedPages);
    EXPECT_GT(outcome.cpuTime, 0u);
}

TEST_F(ReclaimTest, EmptyCgroupReclaimsNothing)
{
    makeManager(mem::ReclaimMode::TMO_BALANCED);
    const auto outcome = mm->reclaim(*cg, 8 * PAGE, sim::SEC);
    EXPECT_EQ(outcome.reclaimedBytes, 0u);
}

TEST_F(ReclaimTest, CostDecayRestoresFileOnlyPolicy)
{
    makeManager(mem::ReclaimMode::TMO_BALANCED);
    populate(64);
    auto &mcg = mm->memcgOf(*cg);
    mcg.fileCost = 10.0;
    mcg.lastCostDecay = 0;
    // After many half-lives the refault cost is forgotten and reclaim
    // is file-only again.
    mm->reclaim(*cg, 16 * PAGE, 2 * sim::HOUR);
    EXPECT_LT(mcg.fileCost, 0.01);
    EXPECT_EQ(cg->stats().pswpout, 0u);
    EXPECT_GT(cg->stats().pgfilesteal, 0u);
}

TEST_F(ReclaimTest, SwapFullFallsBackToFile)
{
    // Tiny swap: once full, reclaim must keep making file progress.
    backend::SwapBackend tiny(ssd, 2 * PAGE);
    mem::MemoryConfig config;
    config.ramBytes = 256ull << 20;
    config.pageBytes = PAGE;
    mm = std::make_unique<mem::MemoryManager>(config, 8);
    cg = &tree.create("tiny");
    tier::TierChain chain("tiny", {&tiny}, {});
    mm->attach(*cg, &chain, &fs);
    auto &mcg = mm->memcgOf(*cg);
    mcg.fileCost = 100.0; // force anon-leaning balance
    mcg.lastCostDecay = 0;

    populate(32);
    const auto outcome = mm->reclaim(*cg, 16 * PAGE, sim::SEC);
    EXPECT_GE(outcome.reclaimedBytes, 8ull * PAGE);
    EXPECT_LE(cg->stats().pswpout, 2u);
    EXPECT_GT(cg->stats().pgfilesteal, 0u);
}

TEST_F(ReclaimTest, IncompressiblePagesStayResident)
{
    // zswap backend with incompressible data: stores rejected, pages
    // activated instead of evicted, file reclaim continues.
    backend::ZswapPool pool({}, 9);
    mem::MemoryConfig config;
    config.ramBytes = 256ull << 20;
    config.pageBytes = PAGE;
    mm = std::make_unique<mem::MemoryManager>(config, 10);
    cg = &tree.create("incompressible");
    tier::TierChain chain("zswap", {&pool}, {});
    mm->attach(*cg, &chain, &fs, 1.0); // ratio 1: rejects
    auto &mcg = mm->memcgOf(*cg);
    mcg.fileCost = 100.0;
    mcg.lastCostDecay = 0;

    populate(32);
    mm->reclaim(*cg, 16 * PAGE, sim::SEC);
    EXPECT_GT(mcg.storeRejects, 0u);
    EXPECT_GT(cg->stats().pgfilesteal, 0u);
    // Most anon pages fail to compress and stay resident (a few may
    // land in the pool: per-page ratios are sampled).
    const auto info = mm->info(*cg);
    EXPECT_GE(info.anonBytes, 16ull * PAGE);
    // Whatever was accepted saved almost nothing.
    EXPECT_GE(info.zswapBytes, (32ull * PAGE - info.anonBytes) * 8 / 10);
}

TEST_F(ReclaimTest, DirtyFilePagesWriteBack)
{
    makeManager(mem::ReclaimMode::TMO_BALANCED);
    std::vector<mem::PageIdx> file;
    populate(8, nullptr, &file);
    for (const auto idx : file)
        mm->pages()[idx].flags |= mem::PG_DIRTY;
    const auto written_before = ssd.bytesWritten();
    mm->reclaim(*cg, 8 * PAGE, sim::SEC);
    EXPECT_GT(ssd.bytesWritten(), written_before);
}

TEST_F(ReclaimTest, SubtreeResidualReclaimsRequestedTotal)
{
    // Regression: proportional distribution used to round every
    // per-child share down to whole pages and drop the residual, so a
    // request spread over many small cgroups reclaimed far less than
    // asked (16 children x 0.625 pages each -> 0 pages). The carry
    // accumulator must deliver the exact requested total.
    mem::MemoryConfig config;
    config.ramBytes = 256ull << 20;
    config.pageBytes = PAGE;
    config.lruMisagingRate = 0.0; // exact page accounting
    mm = std::make_unique<mem::MemoryManager>(config, 7);
    auto &parent = tree.create("parent");
    std::vector<cgroup::Cgroup *> children;
    for (int c = 0; c < 16; ++c) {
        children.push_back(
            &tree.create("c" + std::to_string(c), &parent));
        mm->attach(*children.back(), &swapChain, &fs);
        for (int i = 0; i < 3; ++i)
            mm->newPage(*children.back(), false, true, 0);
    }
    const auto outcome = mm->reclaim(parent, 10 * PAGE, sim::SEC);
    EXPECT_EQ(outcome.reclaimedBytes, 10ull * PAGE);
    // The work was spread across the subtree, not taken from one child.
    int contributors = 0;
    for (const auto *child : children)
        contributors += child->stats().pgsteal > 0 ? 1 : 0;
    EXPECT_GE(contributors, 8);
}

TEST_F(ReclaimTest, DirtyWritebackRejectionKeepsPageDirtyResident)
{
    // Regression: a failed writeback device used to be ignored — the
    // dirty page was dropped as if cleaned, losing the only up-to-date
    // copy. Rejection must keep the page dirty AND resident (§4).
    makeManager(mem::ReclaimMode::TMO_BALANCED);
    std::vector<mem::PageIdx> file;
    populate(8, nullptr, &file);
    for (const auto idx : file)
        mm->pages()[idx].flags |= mem::PG_DIRTY;
    // Offline SSD: swap reports FAILED (anon side blocked entirely)
    // and every file writeback is rejected.
    ssd.setOffline(true);
    const auto written_before = ssd.bytesWritten();
    const auto outcome = mm->reclaim(*cg, 8 * PAGE, sim::SEC);
    ssd.setOffline(false);

    // No file page may have been stolen; every one is still resident,
    // still dirty, and parked on the active list.
    EXPECT_EQ(cg->stats().pgfilesteal, 0u);
    EXPECT_EQ(ssd.bytesWritten(), written_before);
    EXPECT_GT(mm->memcgOf(*cg).storeRejects, 0u);
    for (const auto idx : file) {
        const auto &page = mm->pages()[idx];
        EXPECT_EQ(page.where, mem::Where::RAM);
        EXPECT_TRUE(page.flags & mem::PG_DIRTY);
        EXPECT_EQ(page.lru, mem::LruKind::ACTIVE_FILE);
    }
    EXPECT_EQ(mm->info(*cg).fileBytes, 8ull * PAGE);
    (void)outcome;
}

TEST_F(ReclaimTest, MisAgingVictimsCountTowardScanTotals)
{
    // Regression: mis-aging victim evictions were invisible to the
    // scan counters, so pgscan undercounted the work done and the
    // reclaim CPU model undercharged. With the rate forced to 1.0 the
    // whole pass is hand-computable: each primary eviction pulls one
    // victim off the active tail, and both must count as scans.
    mem::MemoryConfig config;
    config.ramBytes = 256ull << 20;
    config.pageBytes = PAGE;
    config.lruMisagingRate = 1.0;
    config.inactiveRatio = 0.0; // no demotion noise during the pass
    mm = std::make_unique<mem::MemoryManager>(config, 7);
    cg = &tree.create("misaging");
    mm->attach(*cg, &swapChain, &fs);
    std::vector<mem::PageIdx> inactive, active;
    for (int i = 0; i < 8; ++i) {
        inactive.push_back(mm->newPage(*cg, false, true, 0));
        active.push_back(mm->newPage(*cg, false, true, 0));
    }
    for (const auto idx : active) {
        mm->access(idx, sim::SEC);     // referenced
        mm->access(idx, 2 * sim::SEC); // activated
    }
    const auto outcome = mm->reclaim(*cg, 4 * PAGE, 3 * sim::SEC);

    // 2 primary evictions + 2 victims = 4 pages, 4 scans.
    EXPECT_EQ(outcome.reclaimedBytes, 4ull * PAGE);
    EXPECT_EQ(outcome.scannedPages, 4u);
    EXPECT_EQ(outcome.filePages, 4u);
    EXPECT_EQ(cg->stats().pgscan, 4u);
    EXPECT_EQ(cg->stats().pgsteal, 4u);
    EXPECT_EQ(cg->stats().pgdeactivate, 2u);
    // The CPU model charges for all four scanned pages.
    EXPECT_EQ(outcome.cpuTime,
              sim::fromUsec(4 * config.reclaimUsPerPage));
}

TEST_F(ReclaimTest, BalanceShiftsWithRelativeCost)
{
    makeManager(mem::ReclaimMode::TMO_BALANCED);
    populate(256);
    auto &mcg = mm->memcgOf(*cg);

    // Heavy refault cost, no swap-in cost: reclaim leans anon.
    mcg.fileCost = 100.0;
    mcg.anonCost = 0.0;
    mcg.lastCostDecay = sim::SEC;
    const auto heavy = mm->reclaim(*cg, 64 * PAGE, sim::SEC);
    EXPECT_GT(heavy.anonPages, heavy.filePages);
}
