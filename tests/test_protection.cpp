/**
 * @file
 * Tests for memory.low protection and anonymous working-set
 * detection (refault-distance-gated activation of swap-ins).
 */

#include <gtest/gtest.h>

#include "backend/filesystem.hpp"
#include "backend/ssd.hpp"
#include "backend/zswap.hpp"
#include "cgroup/cgroup.hpp"
#include "mem/memory_manager.hpp"
#include "tier/tier_chain.hpp"

using namespace tmo;

namespace
{

constexpr std::uint32_t PAGE = 64 * 1024;

class ProtectionTest : public ::testing::Test
{
  protected:
    ProtectionTest()
        : ssd(backend::ssdSpecForClass('C'), 1),
          fs(ssd),
          zswap({}, 2),
          zswapChain("zswap", {&zswap}, {})
    {
        mem::MemoryConfig config;
        config.ramBytes = 64ull << 20; // 1024 pages
        config.pageBytes = PAGE;
        mm = std::make_unique<mem::MemoryManager>(config, 3);
    }

    cgroup::Cgroup &
    makeCgroup(const std::string &name, int pages)
    {
        auto &cg = tree.create(name);
        mm->attach(cg, &zswapChain, &fs);
        for (int i = 0; i < pages; ++i)
            mm->newPage(cg, true, true, 0);
        return cg;
    }

    cgroup::CgroupTree tree;
    backend::SsdDevice ssd;
    backend::FilesystemBackend fs;
    backend::ZswapPool zswap;
    tier::TierChain zswapChain;
    std::unique_ptr<mem::MemoryManager> mm;
};

} // namespace

TEST_F(ProtectionTest, LowProtectedAccessors)
{
    auto &cg = makeCgroup("a", 10);
    EXPECT_EQ(cg.memLow(), 0u);
    EXPECT_FALSE(cg.lowProtected()); // no protection configured
    cg.setMemLow(20 * PAGE);
    EXPECT_TRUE(cg.lowProtected()); // usage 10 pages <= low 20 pages
    cg.setMemLow(5 * PAGE);
    EXPECT_FALSE(cg.lowProtected()); // usage above protection
}

TEST_F(ProtectionTest, GlobalReclaimSkipsProtectedCgroup)
{
    // Two cgroups fill RAM; one is protected. Host pressure must be
    // served from the unprotected one.
    auto &victim = makeCgroup("victim", 500);
    auto &shielded = makeCgroup("shielded", 500);
    shielded.setMemLow(600 * PAGE);

    // Push the host over its watermark and run kswapd.
    for (int i = 0; i < 30; ++i)
        mm->newPage(victim, true, true, 0);
    mm->kswapd(sim::SEC);

    EXPECT_GT(victim.stats().pgsteal, 0u);
    EXPECT_EQ(shielded.stats().pgsteal, 0u);
}

TEST_F(ProtectionTest, ProtectionYieldsUnderRealShortage)
{
    // When everything is protected, reclaim proceeds anyway (the
    // kernel's second pass) rather than declaring OOM.
    auto &only = makeCgroup("only", 1000);
    only.setMemLow(2000 * PAGE);
    for (int i = 0; i < 40; ++i)
        mm->newPage(only, true, true, 0);
    EXPECT_LE(mm->ramUsed(), mm->ramCapacity());
    EXPECT_EQ(mm->oomEvents(), 0u);
    EXPECT_GT(only.stats().pgsteal, 0u);
}

TEST_F(ProtectionTest, ExplicitReclaimIgnoresOwnProtection)
{
    // memory.reclaim on the cgroup itself works despite memory.low...
    auto &cg = makeCgroup("self", 100);
    cg.setMemLow(200 * PAGE);
    const auto got = cg.memoryReclaim(10 * PAGE, sim::SEC);
    EXPECT_GE(got, 10ull * PAGE);
}

TEST_F(ProtectionTest, SubtreeReclaimSkipsProtectedDescendants)
{
    // ...but protected *descendants* are skipped when reclaiming a
    // parent subtree.
    auto &parent = tree.create("parent");
    auto &kid_a = tree.create("a", &parent);
    auto &kid_b = tree.create("b", &parent);
    mm->attach(kid_a, &zswapChain, &fs);
    mm->attach(kid_b, &zswapChain, &fs);
    for (int i = 0; i < 100; ++i) {
        mm->newPage(kid_a, true, true, 0);
        mm->newPage(kid_b, true, true, 0);
    }
    kid_b.setMemLow(200 * PAGE);

    mm->reclaim(parent, 40 * PAGE, sim::SEC);
    EXPECT_GT(kid_a.stats().pgsteal, 0u);
    EXPECT_EQ(kid_b.stats().pgsteal, 0u);
}

// --- anon workingset detection -------------------------------------------------

TEST_F(ProtectionTest, PromptSwapinRefaultsToActive)
{
    auto &cg = makeCgroup("anon", 8);
    const auto idx = mm->pages().size() - 1; // last allocated
    mm->reclaim(cg, PAGE, sim::SEC);
    // Find the swapped page.
    mem::PageIdx swapped = mem::NO_PAGE;
    for (mem::PageIdx i = 0; i <= idx; ++i)
        if (mm->pages()[i].where == mem::Where::ZSWAP)
            swapped = i;
    ASSERT_NE(swapped, mem::NO_PAGE);

    // Immediate re-touch: reuse distance 0 -> anon refault.
    const auto result = mm->access(swapped, 2 * sim::SEC);
    EXPECT_TRUE(result.refault);
    EXPECT_EQ(cg.stats().wsRefaultAnon, 1u);
    EXPECT_EQ(mm->pages()[swapped].lru, mem::LruKind::ACTIVE_ANON);
    EXPECT_TRUE(mm->pages()[swapped].flags & mem::PG_WORKINGSET);
}

TEST_F(ProtectionTest, DistantSwapinStaysInactive)
{
    auto &cg = makeCgroup("anon2", 4);
    mm->reclaim(cg, PAGE, sim::SEC);
    mem::PageIdx swapped = mem::NO_PAGE;
    for (mem::PageIdx i = 0; i < mm->pages().size(); ++i)
        if (mm->pages()[i].where == mem::Where::ZSWAP)
            swapped = i;
    ASSERT_NE(swapped, mem::NO_PAGE);

    // Push the anon non-resident age far beyond the resident size by
    // churning other pages through swap.
    for (int round = 0; round < 10; ++round) {
        mm->reclaim(cg, 2 * PAGE, sim::SEC);
        for (mem::PageIdx i = 0; i < mm->pages().size(); ++i)
            if (i != swapped &&
                mm->pages()[i].where == mem::Where::ZSWAP)
                mm->access(i, 2 * sim::SEC);
    }

    const auto result = mm->access(swapped, 3 * sim::SEC);
    EXPECT_TRUE(result.faulted);
    // Reuse distance exceeded the working set: not an anon refault.
    EXPECT_EQ(mm->pages()[swapped].lru, mem::LruKind::INACTIVE_ANON);
    EXPECT_FALSE(mm->pages()[swapped].flags & mem::PG_WORKINGSET);
}
