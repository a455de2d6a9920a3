/**
 * @file
 * Randomized operation fuzzing of the memory subsystem: arbitrary
 * interleavings of allocation, access, reclaim, backend switches and
 * frees must preserve the global accounting invariants.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "backend/filesystem.hpp"
#include "backend/nvm.hpp"
#include "backend/ssd.hpp"
#include "backend/swap_backend.hpp"
#include "backend/zswap.hpp"
#include "cgroup/cgroup.hpp"
#include "mem/memory_manager.hpp"
#include "sim/rng.hpp"
#include "tier/tier_chain.hpp"

using namespace tmo;

namespace
{

constexpr std::uint32_t PAGE = 64 * 1024;

class FuzzFixture
{
  public:
    explicit FuzzFixture(std::uint64_t seed)
        : ssd(backend::ssdSpecForClass('C'), seed),
          swap(ssd, 64ull << 20),
          fs(ssd),
          zswap({}, seed + 1),
          nvm(backend::nvmSpecPreset("optane"), seed + 2),
          chains{tier::TierChain("zswap", {&zswap}, {}),
                 tier::TierChain("swap", {&swap}, {}),
                 tier::TierChain("nvm", {&nvm}, {})},
          rng(seed + 3)
    {
        mem::MemoryConfig config;
        config.ramBytes = 48ull << 20; // tight: reclaim under pressure
        config.pageBytes = PAGE;
        mm = std::make_unique<mem::MemoryManager>(config, seed + 4);
        for (int i = 0; i < 3; ++i) {
            auto &cg = tree.create("cg" + std::to_string(i));
            mm->attach(cg, anonChain(i), &fs, 2.0 + i);
            cgroups.push_back(&cg);
        }
    }

    /** One-tier chain @p i of zswap, swap and NVM. */
    tier::TierChain *anonChain(int i) { return &chains[i % 3]; }

    /** The invariants that must hold after every operation. */
    void
    checkInvariants()
    {
        std::uint64_t resident_total = 0;
        for (auto *cg : cgroups) {
            const auto info = mm->info(*cg);
            auto &mcg = mm->memcgOf(*cg);
            // LRU sizes match the byte breakdown.
            ASSERT_EQ(info.anonBytes, mcg.lru.anonPages() * PAGE);
            ASSERT_EQ(info.fileBytes, mcg.lru.filePages() * PAGE);
            // memory.current = resident + DRAM-held compressed copies.
            ASSERT_EQ(cg->memCurrent(),
                      info.residentBytes + info.zswapBytes);
            resident_total += info.residentBytes;
        }
        // Host accounting: resident + compressed pools, never above
        // capacity after an operation completes.
        ASSERT_EQ(mm->ramUsed(), resident_total + zswap.usedBytes());
        ASSERT_LE(mm->ramUsed(), mm->ramCapacity());
        // Backend occupancy is consistent with the page table.
        std::uint64_t swap_bytes = 0, zswap_bytes = 0, nvm_bytes = 0;
        for (const auto &page : mm->pages()) {
            if (page.memcg == 0xffff)
                continue;
            if (page.where == mem::Where::ZSWAP)
                zswap_bytes += page.storedBytes;
            if (page.where == mem::Where::SWAP)
                swap_bytes += page.storedBytes;
        }
        nvm_bytes = swap_bytes; // split below
        ASSERT_EQ(zswap.usedBytes(), zswap_bytes);
        ASSERT_EQ(swap.usedBytes() + nvm.usedBytes(), swap_bytes);
        (void)nvm_bytes;
    }

    cgroup::CgroupTree tree;
    backend::SsdDevice ssd;
    backend::SwapBackend swap;
    backend::FilesystemBackend fs;
    backend::ZswapPool zswap;
    backend::NvmBackend nvm;
    std::array<tier::TierChain, 3> chains;
    sim::Rng rng;
    std::unique_ptr<mem::MemoryManager> mm;
    std::vector<cgroup::Cgroup *> cgroups;
    std::vector<mem::PageIdx> live;
};

} // namespace

class FuzzInvariantTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FuzzInvariantTest, RandomOperationSoup)
{
    FuzzFixture fx(GetParam());
    sim::SimTime now = 0;

    for (int step = 0; step < 4000; ++step) {
        now += fx.rng.uniformInt(50 * sim::MSEC) + 1;
        const auto op = fx.rng.uniformInt(100);
        auto *cg = fx.cgroups[fx.rng.uniformInt(fx.cgroups.size())];

        if (op < 35) {
            // Allocate (anon resident or file, possibly non-resident).
            const bool anon = fx.rng.chance(0.6);
            const bool resident = anon || fx.rng.chance(0.5);
            fx.live.push_back(
                fx.mm->newPage(*cg, anon, resident, now));
        } else if (op < 70 && !fx.live.empty()) {
            // Touch a random live page.
            fx.mm->access(fx.live[fx.rng.uniformInt(fx.live.size())],
                          now);
        } else if (op < 85) {
            // Proactive reclaim of a random amount.
            fx.mm->reclaim(*cg,
                           (fx.rng.uniformInt(16) + 1) * PAGE, now);
        } else if (op < 92 && !fx.live.empty()) {
            // Free a random page.
            const auto pick = fx.rng.uniformInt(fx.live.size());
            fx.mm->freePage(fx.live[pick]);
            fx.live.erase(fx.live.begin() +
                          static_cast<std::ptrdiff_t>(pick));
        } else if (op < 96) {
            // Switch the anon chain mid-flight.
            fx.mm->setAnonChain(
                *cg, fx.anonChain(static_cast<int>(fx.rng.uniformInt(3))));
        } else {
            // Background reclaim.
            fx.mm->kswapd(now);
        }

        if (step % 50 == 0)
            fx.checkInvariants();
    }
    fx.checkInvariants();
    EXPECT_EQ(fx.mm->oomEvents(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzInvariantTest,
                         ::testing::Values(101, 202, 303, 404, 505));
