/**
 * @file
 * Tests for workload profiles and the application model.
 */

#include <gtest/gtest.h>

#include "backend/filesystem.hpp"
#include "backend/ssd.hpp"
#include "backend/zswap.hpp"
#include "cgroup/cgroup.hpp"
#include "mem/memory_manager.hpp"
#include "sim/simulation.hpp"
#include "tier/tier_chain.hpp"
#include "workload/app_model.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace
{

constexpr std::uint32_t PAGE = 64 * 1024;

double
regionFractionSum(const workload::AppProfile &profile)
{
    double sum = 0.0;
    for (const auto &region : profile.regions)
        sum += region.fraction;
    return sum;
}

class AppModelTest : public ::testing::Test
{
  protected:
    AppModelTest()
        : ssd(backend::ssdSpecForClass('C'), 1),
          fs(ssd),
          zswap({}, 2),
          zswapChain("zswap", {&zswap}, {})
    {
        mem::MemoryConfig config;
        config.ramBytes = 2ull << 30;
        config.pageBytes = PAGE;
        mm = std::make_unique<mem::MemoryManager>(config, 3);
    }

    workload::AppModel &
    makeApp(const workload::AppProfile &profile)
    {
        auto &cg = tree.create(profile.name);
        mm->attach(cg, &zswapChain, &fs, profile.compressibility);
        app = std::make_unique<workload::AppModel>(
            simulation, *mm, cg, profile, 16, 5);
        return *app;
    }

    sim::Simulation simulation;
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd;
    backend::FilesystemBackend fs;
    backend::ZswapPool zswap;
    tier::TierChain zswapChain;
    std::unique_ptr<mem::MemoryManager> mm;
    std::unique_ptr<workload::AppModel> app;
};

} // namespace

TEST(AppProfileTest, AllPresetsWellFormed)
{
    const std::vector<std::string> names = {
        "ads_a", "ads_b", "ads_c", "analytics", "feed", "cache_a",
        "cache_b", "web", "ml_reader", "warehouse", "re", "video"};
    for (const auto &name : names) {
        const auto p = workload::appPreset(name, 1ull << 30);
        EXPECT_EQ(p.name, name);
        EXPECT_NEAR(regionFractionSum(p), 1.0, 1e-6) << name;
        EXPECT_GE(p.compressibility, 1.0) << name;
        EXPECT_GT(p.threads, 0u) << name;
    }
    EXPECT_THROW(workload::appPreset("nope", 1), std::invalid_argument);
}

TEST(AppProfileTest, SidecarPresetsWellFormed)
{
    for (const auto &name :
         {"dc_logging", "dc_profiling", "dc_discovery", "ms_proxy",
          "ms_router"}) {
        const auto p = workload::sidecarPreset(name, 256ull << 20);
        EXPECT_NEAR(regionFractionSum(p), 1.0, 1e-6) << name;
        EXPECT_EQ(p.offeredRps, 0.0) << name;
    }
    EXPECT_THROW(workload::sidecarPreset("nope", 1),
                 std::invalid_argument);
}

TEST(AppProfileTest, FeedMatchesFig2Exactly)
{
    // The paper quotes Feed: 50% 1-min, +8% 2-min, +12% 5-min, 30%
    // cold. Regions encode sweep sizes; the *measured buckets* follow
    // from the sweep overlap math (a period-P sweep touches t/P of
    // its pages within a window t).
    const auto p = workload::appPreset("feed", 1ull << 30);
    double hot = 0, warm2 = 0, warm5 = 0, cold = 0;
    for (const auto &r : p.regions) {
        if (r.reusePeriod == sim::MINUTE)
            hot += r.fraction;
        else if (r.reusePeriod == 2 * sim::MINUTE)
            warm2 += r.fraction;
        else if (r.reusePeriod == 5 * sim::MINUTE)
            warm5 += r.fraction;
        else
            cold += r.fraction;
    }
    const double u1 = hot + warm2 / 2 + warm5 / 5;
    const double u2 = warm2 / 2 + warm5 / 5;
    const double u5 = warm5 * 3 / 5;
    EXPECT_NEAR(u1, 0.50, 1e-6);
    EXPECT_NEAR(u2, 0.08, 1e-6);
    EXPECT_NEAR(u5, 0.12, 1e-6);
    EXPECT_NEAR(1.0 - u1 - u2 - u5, 0.30, 1e-6);
    EXPECT_NEAR(cold, 0.30, 1e-6);
}

TEST(AppProfileTest, WebIsLazyCompressibleAndThrottled)
{
    const auto p = workload::appPreset("web", 1ull << 30);
    EXPECT_DOUBLE_EQ(p.compressibility, 4.0);
    EXPECT_GT(p.growthSeconds, 0.0);
    EXPECT_GT(p.throttleStartFraction, 0.0);
    bool has_lazy = false;
    for (const auto &r : p.regions)
        has_lazy = has_lazy || r.lazy;
    EXPECT_TRUE(has_lazy);
}

TEST(AppProfileTest, AdsModelsPoorlyCompressible)
{
    // §4.1: quantized byte-encoded ML values compress 1.3-1.4x.
    for (const auto &name : {"ads_a", "ads_b", "ads_c", "ml_reader"}) {
        const auto p = workload::appPreset(name, 1ull << 30);
        EXPECT_LE(p.compressibility, 1.4) << name;
    }
}

TEST_F(AppModelTest, StartAllocatesFootprint)
{
    auto &a = makeApp(workload::appPreset("feed", 512ull << 20));
    a.start();
    // Non-lazy profile: everything allocated up front.
    EXPECT_NEAR(static_cast<double>(a.allocatedBytes()),
                512.0 * (1 << 20), 64.0 * PAGE);
    EXPECT_NEAR(static_cast<double>(a.cgroup().memCurrent()),
                512.0 * (1 << 20), 64.0 * PAGE);
}

TEST_F(AppModelTest, TicksProcessRequests)
{
    auto &a = makeApp(workload::appPreset("feed", 256ull << 20));
    a.start();
    simulation.runUntil(10 * sim::SEC);
    EXPECT_GT(a.lastTick().completedRps, 0.0);
    EXPECT_GT(a.lastTick().touches, 0u);
    // Plenty of memory: no faults, full throughput.
    EXPECT_NEAR(a.lastTick().completedRps, a.lastTick().offeredRps,
                0.05 * a.lastTick().offeredRps);
}

TEST_F(AppModelTest, ColdnessEmergesFromRegions)
{
    auto &a = makeApp(workload::appPreset("feed", 512ull << 20));
    a.start();
    // After > 5 minutes the idle-age histogram approximates Fig. 2.
    simulation.runUntil(8 * sim::MINUTE);
    const auto breakdown =
        mm->idleBreakdown(a.cgroup(), simulation.now());
    EXPECT_NEAR(breakdown.used1min, 0.50, 0.10);
    EXPECT_NEAR(breakdown.cold, 0.30, 0.10);
}

TEST_F(AppModelTest, StopFreezesTicking)
{
    auto &a = makeApp(workload::appPreset("feed", 128ull << 20));
    a.start();
    simulation.runUntil(5 * sim::SEC);
    a.stop();
    const auto touches = a.lastTick().touches;
    simulation.runUntil(10 * sim::SEC);
    EXPECT_EQ(a.lastTick().touches, touches);
    EXPECT_FALSE(a.running());
}

TEST_F(AppModelTest, RestartDropsMemory)
{
    auto &a = makeApp(workload::appPreset("feed", 256ull << 20));
    a.start();
    simulation.runUntil(5 * sim::SEC);
    const auto before = a.cgroup().memCurrent();
    EXPECT_GT(before, 0u);
    a.restart();
    // Fresh allocation, same footprint (non-lazy).
    EXPECT_NEAR(static_cast<double>(a.cgroup().memCurrent()),
                static_cast<double>(before), 16.0 * PAGE);
    EXPECT_TRUE(a.running());
}

TEST_F(AppModelTest, LazyWebGrowsOverTime)
{
    auto profile = workload::appPreset("web", 512ull << 20);
    profile.growthSeconds = 60.0; // compress growth for the test
    auto &a = makeApp(profile);
    a.start();
    simulation.runUntil(2 * sim::SEC);
    const auto early = a.cgroup().memCurrent();
    simulation.runUntil(90 * sim::SEC);
    const auto late = a.cgroup().memCurrent();
    EXPECT_GT(late, early + (32ull << 20));
}

TEST_F(AppModelTest, ThrottleKicksInNearLimit)
{
    auto profile = workload::appPreset("web", 512ull << 20);
    profile.growthSeconds = 30.0;
    auto &a = makeApp(profile);
    a.cgroup().setMemMax(300ull << 20); // tight limit
    a.start();
    simulation.runUntil(5 * sim::SEC);
    const double offered_early = a.lastTick().offeredRps;
    simulation.runUntil(120 * sim::SEC);
    const double offered_late = a.lastTick().offeredRps;
    EXPECT_LT(offered_late, offered_early);
}

TEST_F(AppModelTest, FaultsStallAndShowInPsi)
{
    auto &a = makeApp(workload::appPreset("feed", 256ull << 20));
    a.start();
    simulation.runUntil(5 * sim::SEC);
    // Forcibly evict half the workload: the next sweeps must fault.
    mm->reclaim(a.cgroup(), 128ull << 20, simulation.now());
    simulation.runUntil(20 * sim::SEC);
    EXPECT_GT(a.cgroup().psi().totalSome(psi::Resource::MEM,
                                         simulation.now()),
              0u);
    EXPECT_GT(a.lastTick().faults + a.cgroup().stats().wsRefault, 0u);
}

TEST_F(AppModelTest, DirtyRegionsMarkPagesDirty)
{
    auto &a = makeApp(workload::sidecarPreset("dc_logging",
                                              128ull << 20));
    a.start();
    simulation.runUntil(5 * sim::SEC);
    std::size_t dirty = 0;
    for (const auto &page : mm->pages())
        dirty += (page.flags & mem::PG_DIRTY) != 0;
    EXPECT_GT(dirty, 0u);
}
