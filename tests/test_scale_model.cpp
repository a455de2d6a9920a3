/**
 * @file
 * Tests for the simulation-scale mechanics: page-group fault
 * amplification, zswap fault scaling, page-slot recycling, allocation
 * churn, Senpai pressure sources, and LRU mis-aging.
 */

#include <gtest/gtest.h>

#include "backend/ssd.hpp"
#include "backend/zswap.hpp"
#include "core/senpai.hpp"
#include "host/host.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

// --- fault amplification -----------------------------------------------------

TEST(FaultAmplificationTest, LargeReadsChargeProportionalStall)
{
    // A 64 KiB read models 16 sequential 4 KiB faults: the waiter's
    // latency scales ~16x while per-op histogram latency does not.
    backend::SsdDevice small_dev(backend::ssdSpecForClass('C'), 1);
    backend::SsdDevice big_dev(backend::ssdSpecForClass('C'), 1);
    double small_total = 0, big_total = 0;
    for (int i = 0; i < 2000; ++i) {
        const auto now = static_cast<sim::SimTime>(i) * 10 * sim::MSEC;
        small_total += static_cast<double>(small_dev.read(4096, now));
        big_total += static_cast<double>(big_dev.read(64 * 1024, now));
    }
    EXPECT_NEAR(big_total / small_total, 16.0, 2.0);
    // Histogram stays per-operation: medians comparable.
    EXPECT_NEAR(big_dev.readLatency().p50() /
                    small_dev.readLatency().p50(),
                1.0, 0.3);
}

TEST(FaultAmplificationTest, ZswapLoadScalesWithSimulatedPageSize)
{
    backend::ZswapPool small_pool({}, 2, 4096);
    backend::ZswapPool big_pool({}, 2, 64 * 1024);

    double small_total = 0, big_total = 0;
    for (int i = 0; i < 2000; ++i) {
        const auto s = small_pool.store(4096, 3.0, 0);
        const auto b = big_pool.store(64 * 1024, 3.0, 0);
        if (s.accepted)
            small_total += static_cast<double>(
                small_pool.load(s.storedBytes, 0).latency);
        if (b.accepted)
            big_total += static_cast<double>(
                big_pool.load(b.storedBytes, 0).latency);
    }
    EXPECT_NEAR(big_total / small_total, 16.0, 3.0);
}

// --- page slot recycling -------------------------------------------------------

TEST(PageRecyclingTest, FreedSlotsAreReused)
{
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd(backend::ssdSpecForClass('C'), 3);
    backend::FilesystemBackend fs(ssd);
    mem::MemoryConfig config;
    config.ramBytes = 64ull << 20;
    config.pageBytes = 64 * 1024;
    mem::MemoryManager mm(config, 4);
    auto &cg = tree.create("app");
    mm.attach(cg, nullptr, &fs);

    const auto first = mm.newPage(cg, true, true, 0);
    mm.freePage(first);
    const auto second = mm.newPage(cg, true, true, sim::SEC);
    EXPECT_EQ(first, second); // slot recycled
    EXPECT_EQ(mm.pages().size(), 1u);
}

TEST(PageRecyclingTest, TableStaysBoundedUnderChurn)
{
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd(backend::ssdSpecForClass('C'), 5);
    backend::FilesystemBackend fs(ssd);
    mem::MemoryConfig config;
    config.ramBytes = 64ull << 20;
    config.pageBytes = 64 * 1024;
    mem::MemoryManager mm(config, 6);
    auto &cg = tree.create("app");
    mm.attach(cg, nullptr, &fs);

    std::vector<mem::PageIdx> live;
    for (int i = 0; i < 100; ++i)
        live.push_back(mm.newPage(cg, true, true, 0));
    for (int round = 0; round < 50; ++round) {
        for (auto &idx : live) {
            mm.freePage(idx);
            idx = mm.newPage(cg, true, true, 0);
        }
    }
    EXPECT_EQ(mm.pages().size(), 100u);
    EXPECT_EQ(cg.memCurrent(), 100ull * 64 * 1024);
}

// --- allocation churn ------------------------------------------------------------

TEST(ChurnTest, FootprintConstantWhileAllocating)
{
    sim::Simulation simulation;
    host::HostConfig config;
    config.mem.ramBytes = 2ull << 30;
    config.mem.pageBytes = 64 * 1024;
    host::Host machine(simulation, config);
    auto profile = workload::appPreset("ads_b", 512ull << 20);
    profile.churnBytesPerSec = 8e6;
    auto &app = machine.addApp(profile, tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    simulation.runUntil(10 * sim::SEC);
    const auto early = app.allocatedBytes();
    simulation.runUntil(2 * sim::MINUTE);
    // Footprint stable (replacement, not growth)...
    EXPECT_EQ(app.allocatedBytes(), early);
    // ...yet fresh pages keep arriving: the cold tail has recent
    // allocations.
    std::size_t fresh = 0;
    for (const auto &page : machine.memory().pages())
        fresh += page.resident() &&
                 page.lastAccess > simulation.now() - 5 * sim::SEC;
    EXPECT_GT(fresh, 50u);
}

TEST(ChurnTest, DisabledByDefault)
{
    const auto profile = workload::appPreset("feed", 1ull << 30);
    EXPECT_DOUBLE_EQ(profile.churnBytesPerSec, 0.0);
}

// --- Senpai pressure sources -----------------------------------------------------

TEST(PressureSourceTest, Avg60SmoothsSpikyWindows)
{
    // A single fault burst inflates one 6 s window but the avg60
    // reading decays smoothly; both controllers must see *some*
    // pressure, but only the window source sees the full spike.
    cgroup::CgroupTree tree;
    auto &cg = tree.create("app");
    // 300 ms stall at t=0.
    cg.psiTaskChange(0, psi::TSK_MEMSTALL, 0);
    cg.psiTaskChange(psi::TSK_MEMSTALL, 0, 300 * sim::MSEC);
    for (int s = 2; s <= 6; s += 2)
        cg.psi().updateAverages(static_cast<sim::SimTime>(s) *
                                sim::SEC);

    const double window = static_cast<double>(cg.psi().totalSome(
                              psi::Resource::MEM, 6 * sim::SEC)) /
                          (6.0 * sim::SEC);
    const double avg60 = cg.psi().some(psi::Resource::MEM).avg60;
    EXPECT_NEAR(window, 0.05, 1e-6);
    EXPECT_GT(avg60, 0.0);
    EXPECT_LT(avg60, window); // smoothed below the spike
}

TEST(PressureSourceTest, ConfigSelectsSource)
{
    auto config = core::senpaiProductionConfig();
    EXPECT_EQ(config.source, core::PressureSource::INTERVAL);
    config.source = core::PressureSource::AVG60;
    EXPECT_EQ(config.source, core::PressureSource::AVG60);
}

// --- LRU mis-aging -----------------------------------------------------------------

TEST(MisagingTest, ZeroRateProtectsWorkingSetExactly)
{
    sim::Simulation simulation;
    host::HostConfig config;
    config.mem.ramBytes = 2ull << 30;
    config.mem.pageBytes = 64 * 1024;
    config.mem.lruMisagingRate = 0.0;
    host::Host machine(simulation, config);
    auto profile = workload::appPreset("feed", 512ull << 20);
    auto &app = machine.addApp(profile, tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    // Let the working set activate, then reclaim a moderate amount:
    // with a perfect LRU nothing hot is touched, so subsequent
    // refaults come only from the cold tail.
    simulation.runUntil(5 * sim::MINUTE);
    const auto refaults_before = app.cgroup().stats().wsRefault;
    machine.memory().reclaim(app.cgroup(), 32ull << 20,
                             simulation.now());
    simulation.runUntil(6 * sim::MINUTE);
    const auto refaults_after = app.cgroup().stats().wsRefault;
    EXPECT_LT(refaults_after - refaults_before, 40u);
}

TEST(MisagingTest, CollateralEvictsActivePages)
{
    // Unit-level: with mis-aging at 100%, every cold eviction drags
    // one active (working-set) page out with it; at 0%, active pages
    // are untouchable while inactive pages remain.
    auto run = [](double rate) {
        cgroup::CgroupTree tree;
        backend::SsdDevice ssd(backend::ssdSpecForClass('C'), 9);
        backend::FilesystemBackend fs(ssd);
        mem::MemoryConfig config;
        config.ramBytes = 256ull << 20;
        config.pageBytes = 64 * 1024;
        config.lruMisagingRate = rate;
        mem::MemoryManager mm(config, 10);
        auto &cg = tree.create("app");
        mm.attach(cg, nullptr, &fs);

        std::vector<mem::PageIdx> active_pages;
        for (int i = 0; i < 64; ++i) {
            const auto idx = mm.newPage(cg, false, true, 0);
            mm.access(idx, sim::SEC);
            mm.access(idx, 2 * sim::SEC); // activate
            active_pages.push_back(idx);
        }
        for (int i = 0; i < 64; ++i)
            mm.newPage(cg, false, true, 0); // cold, inactive

        mm.reclaim(cg, 16ull * 64 * 1024, 3 * sim::SEC);
        std::size_t active_evicted = 0;
        for (const auto idx : active_pages)
            active_evicted += !mm.pages()[idx].resident();
        return active_evicted;
    };
    EXPECT_EQ(run(0.0), 0u);
    EXPECT_GE(run(1.0), 8u);
}
