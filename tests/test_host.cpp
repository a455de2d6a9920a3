/**
 * @file
 * Tests for host assembly and the fleet abstraction.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fault/invariant_auditor.hpp"
#include "host/fleet.hpp"
#include "host/host.hpp"
#include "stats/timeseries.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace
{

host::HostConfig
smallHost()
{
    host::HostConfig config;
    config.mem.ramBytes = 1ull << 30;
    config.mem.pageBytes = 64 * 1024;
    config.cpus = 8;
    return config;
}

} // namespace

TEST(HostTest, ComponentsWired)
{
    sim::Simulation simulation;
    host::Host machine(simulation, smallHost(), "h");
    EXPECT_EQ(machine.name(), "h");
    EXPECT_EQ(machine.memory().ramCapacity(), 1ull << 30);
    // Swap defaults to RAM size.
    EXPECT_EQ(machine.swap().usedBytes(), 0u);
    EXPECT_EQ(machine.ssd().spec().name, "ssd-C");
}

TEST(HostTest, AddAppCreatesContainer)
{
    sim::Simulation simulation;
    host::Host machine(simulation, smallHost());
    auto &app = machine.addApp(
        workload::appPreset("feed", 256ull << 20),
        tier::TierChainSpec::parse("zswap"));
    EXPECT_EQ(app.cgroup().name(), "feed");
    EXPECT_EQ(machine.apps().size(), 1u);
    EXPECT_EQ(machine.cgroups().find("feed"), &app.cgroup());
}

TEST(HostTest, AppReservationsAddUp)
{
    // perfbench memory_bound's host: four apps with 4 GiB of footprint
    // at 4 KiB pages. Apps allocate their pages when they start, so
    // each app's reservation must come on top of the others' for the
    // start to fill the page table without moving it.
    host::HostConfig config;
    config.mem.ramBytes = 3072ull << 20;
    config.mem.pageBytes = 4096;
    sim::Simulation simulation;
    host::Host machine(simulation, config);
    const auto tiers =
        tier::TierChainSpec::parse("zswap:64mb+zswap:256mb+ssd");
    const workload::AppProfile apps[] = {
        workload::appPreset("feed", 2048ull << 20),
        workload::appPreset("cache_a", 1024ull << 20),
        workload::sidecarPreset("dc_logging", 512ull << 20),
        workload::sidecarPreset("ms_proxy", 512ull << 20)};
    std::uint64_t footprint_pages = 0;
    for (const auto &profile : apps) {
        machine.addApp(profile, tiers);
        footprint_pages += profile.footprintBytes / config.mem.pageBytes;
    }
    const auto &pages = machine.memory().pages();
    EXPECT_GE(pages.capacity(), footprint_pages);
    const mem::Page *table = pages.data();
    machine.start();
    for (const auto &app : machine.apps())
        app->start();
    EXPECT_GT(pages.size(), footprint_pages / 2);
    EXPECT_EQ(pages.data(), table);
}

TEST(HostTest, NoneTiersMeanNoSwap)
{
    sim::Simulation simulation;
    host::Host machine(simulation, smallHost());
    auto &app = machine.addApp(
        workload::appPreset("feed", 256ull << 20),
        tier::TierChainSpec::parse("none"));
    machine.start();
    app.start();
    simulation.runUntil(5 * sim::SEC);
    machine.memory().reclaim(app.cgroup(), 64ull << 20,
                             simulation.now());
    EXPECT_EQ(app.cgroup().stats().pswpout, 0u);
}

TEST(HostTest, SsdTierUsesSsd)
{
    sim::Simulation simulation;
    host::Host machine(simulation, smallHost());
    auto &app = machine.addApp(
        workload::appPreset("ads_a", 256ull << 20),
        tier::TierChainSpec::parse("ssd"));
    machine.start();
    app.start();
    simulation.runUntil(5 * sim::SEC);
    machine.memory().reclaim(app.cgroup(), 64ull << 20,
                             simulation.now());
    EXPECT_GT(machine.swap().usedBytes(), 0u);
    EXPECT_GT(machine.ssd().bytesWritten(), 0u);
}

TEST(HostTest, ZswapTierFillsPool)
{
    sim::Simulation simulation;
    host::Host machine(simulation, smallHost());
    auto &app = machine.addApp(
        workload::appPreset("web", 256ull << 20),
        tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    simulation.runUntil(5 * sim::SEC);
    // Reclaim beyond the file cache: with no refault history the
    // reclaimer drains file first (§3.4), then must compress anon.
    machine.memory().reclaim(app.cgroup(), 220ull << 20,
                             simulation.now());
    EXPECT_GT(machine.zswap().usedBytes(), 0u);
    EXPECT_EQ(machine.swap().usedBytes(), 0u);
}

TEST(HostTest, PsiAveragingRuns)
{
    sim::Simulation simulation;
    host::Host machine(simulation, smallHost());
    auto &app = machine.addApp(
        workload::appPreset("feed", 700ull << 20),
        tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    // Force heavy eviction so sweeps fault continuously.
    simulation.runUntil(3 * sim::SEC);
    machine.memory().reclaim(app.cgroup(), 600ull << 20,
                             simulation.now());
    simulation.runUntil(30 * sim::SEC);
    const auto pressure = app.cgroup().psi().some(psi::Resource::MEM);
    EXPECT_GT(pressure.avg10, 0.0);
}

TEST(HostTest, SetTiersSwitchesBackend)
{
    sim::Simulation simulation;
    host::Host machine(simulation, smallHost());
    auto &app = machine.addApp(
        workload::appPreset("feed", 256ull << 20),
        tier::TierChainSpec::parse("none"));
    machine.start();
    app.start();
    simulation.runUntil(2 * sim::SEC);
    machine.setTiers(app.cgroup(), tier::TierChainSpec::parse("zswap"));
    machine.memory().reclaim(app.cgroup(), 220ull << 20,
                             simulation.now());
    EXPECT_GT(machine.zswap().usedBytes(), 0u);
}

TEST(FleetTest, HostsAdvanceInLockstepOnPrivateClocks)
{
    host::Fleet fleet = host::FleetSpec{}
                            .hosts(4)
                            .config(smallHost())
                            .name_prefix("node")
                            .workload("feed", 128)
                            .tiers("zswap")
                            .build();
    EXPECT_EQ(fleet.size(), 4u);
    fleet.start();
    fleet.run(5 * sim::SEC);
    EXPECT_EQ(fleet.now(), 5 * sim::SEC);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        // Each shard clock sits exactly at the fleet barrier.
        EXPECT_EQ(fleet.simulationOf(i).now(), 5 * sim::SEC);
        EXPECT_GT(fleet.host(i).apps()[0]->lastTick().completedRps, 0.0);
    }
}

TEST(FleetTest, SeedsDifferAcrossHosts)
{
    host::Fleet fleet;
    host::HostBuilder builder;
    builder.config(smallHost());
    auto &a = fleet.addHost(builder);
    auto &b = fleet.addHost(builder);
    EXPECT_NE(a.config().seed, b.config().seed);
    EXPECT_NE(a.name(), b.name());
}

TEST(FleetTest, CollectGathersMetrics)
{
    host::Fleet fleet = host::FleetSpec{}
                            .hosts(3)
                            .config(smallHost())
                            .name_prefix("n")
                            .build();
    const auto values = fleet.collect(
        [](host::Host &h) { return static_cast<double>(
            h.memory().ramCapacity()); });
    ASSERT_EQ(values.size(), 3u);
    EXPECT_DOUBLE_EQ(stats::exactQuantile(values, 0.5),
                     static_cast<double>(1ull << 30));
}

TEST(HostTest, CrossAppCpuContentionMakesCpuPressure)
{
    // Two CPU-hungry services on a 2-core host oversubscribe it; the
    // coordinator turns the shortfall into runnable-wait, i.e. CPU
    // pressure in both containers and machine-wide (§3.2.3).
    auto make_profile = [](const char *name) {
        auto profile = workload::appPreset("cache_a", 128ull << 20);
        profile.name = name;
        profile.threads = 4;
        profile.offeredRps = 20000; // 20k x 50us = 1 CPU-second/s
        return profile;
    };
    auto run = [&](bool second_app) {
        sim::Simulation simulation;
        auto config = smallHost();
        config.cpus = 2;
        host::Host machine(simulation, config);
        auto &a = machine.addApp(make_profile("a"),
                                 tier::TierChainSpec::parse("none"));
        a.start();
        if (second_app) {
            auto &b = machine.addApp(make_profile("b"),
                                     tier::TierChainSpec::parse("none"));
            auto &c = machine.addApp(make_profile("c"),
                                     tier::TierChainSpec::parse("none"));
            b.start();
            c.start();
        }
        machine.start();
        simulation.runUntil(30 * sim::SEC);
        return machine.cgroups().root().psi().totalSome(
            psi::Resource::CPU, simulation.now());
    };
    const auto alone = run(false);
    const auto contended = run(true);
    // One service fits in 2 cores; three demanding ~3 CPU-seconds/s
    // do not.
    EXPECT_EQ(alone, 0u);
    EXPECT_GT(contended, sim::SEC);
}

TEST(ReclaimKindTest, StartIsDirectAndKswapdAndSenpaiCountApart)
{
    // 208 MiB of feed on 192 MiB of RAM: the app's start over-commits
    // the host, so every page it evicts then is direct reclaim. Later
    // kswapd keeps the watermark and Senpai writes memory.reclaim.
    host::Fleet fleet = host::FleetSpec{}
                            .ram_mb(192)
                            .page_kb(16)
                            .tiers("zswap+ssd")
                            .workload("feed", 208)
                            .controller("senpai")
                            .build();
    fleet.start();
    host::Host &machine = fleet.host(0);
    const cgroup::VmStats &vm = machine.apps().front()->cgroup().stats();
    EXPECT_GT(vm.pgstealDirect, 0u);
    EXPECT_EQ(vm.pgscanDirect, vm.pgscan);
    EXPECT_EQ(vm.pgstealDirect, vm.pgsteal);
    EXPECT_EQ(vm.pgscanKswapd + vm.pgscanProactive, 0u);
    EXPECT_EQ(vm.pgstealKswapd + vm.pgstealProactive, 0u);
    const cgroup::VmStats at_start = vm;

    fleet.run(10 * sim::MINUTE);
    ASSERT_EQ(fleet.failedCount(), 0u) << fleet.hostError(0);
    EXPECT_GT(vm.pgstealKswapd, 0u);
    EXPECT_GT(vm.pgstealProactive, 0u);
    EXPECT_GE(vm.pgstealDirect, at_start.pgstealDirect);
    EXPECT_EQ(vm.pgscanDirect + vm.pgscanKswapd + vm.pgscanProactive,
              vm.pgscan);
    EXPECT_EQ(vm.pgstealDirect + vm.pgstealKswapd + vm.pgstealProactive,
              vm.pgsteal);
    EXPECT_TRUE(fault::auditHost(machine).empty());

    // The auditor names a kind split that does not add up.
    machine.apps().front()->cgroup().stats().pgscanKswapd += 1;
    const auto violations = fault::auditHost(machine);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("pgscan"), std::string::npos)
        << violations[0];
}
