/**
 * @file
 * Cross-module integration scenarios exercising the paper's headline
 * behaviours end to end.
 */

#include <gtest/gtest.h>

#include "baseline/gswap.hpp"
#include "core/senpai.hpp"
#include "core/tmo_daemon.hpp"
#include "host/host.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace
{

host::HostConfig
hostConfig(char ssd = 'C', std::uint64_t ram = 2ull << 30)
{
    host::HostConfig config;
    config.mem.ramBytes = ram;
    config.mem.pageBytes = 64 * 1024;
    config.ssdClass = ssd;
    config.cpus = 16;
    return config;
}

} // namespace

TEST(IntegrationTest, SavingsComeFromColdMemory)
{
    // Offloading must track the coldness profile: a colder app yields
    // more savings under the identical controller.
    sim::Simulation simulation;
    host::Host machine_a(simulation, hostConfig(), "a");
    host::Host machine_b(simulation, hostConfig(), "b");
    auto &cold_app = machine_a.addApp(
        workload::appPreset("web", 1ull << 30), // 62% cold
        tier::TierChainSpec::parse("zswap"));
    auto &hot_app = machine_b.addApp(
        workload::appPreset("cache_b", 1ull << 30), // 19% cold
        tier::TierChainSpec::parse("zswap"));
    machine_a.start();
    machine_b.start();
    cold_app.start();
    hot_app.start();

    core::Senpai senpai_cold(simulation, machine_a.memory(),
                             cold_app.cgroup());
    core::Senpai senpai_hot(simulation, machine_b.memory(),
                            hot_app.cgroup());
    senpai_cold.start();
    senpai_hot.start();
    simulation.runUntil(30 * sim::MINUTE);

    const double cold_savings =
        1.0 - static_cast<double>(cold_app.cgroup().memCurrent()) /
                  static_cast<double>(cold_app.allocatedBytes());
    const double hot_savings =
        1.0 - static_cast<double>(hot_app.cgroup().memCurrent()) /
                  static_cast<double>(hot_app.allocatedBytes());
    EXPECT_GT(cold_savings, hot_savings);
    EXPECT_GT(cold_savings, 0.005);
}

TEST(IntegrationTest, FasterBackendAllowsMoreOffloading)
{
    // §4.3's central observation: with a faster device, Senpai
    // sustains a *higher* promotion rate and offloads more, because
    // per-fault stalls are smaller.
    sim::Simulation simulation;
    host::Host slow_host(simulation, hostConfig('B'), "slow");
    host::Host fast_host(simulation, hostConfig('C'), "fast");
    auto &slow_app = slow_host.addApp(
        workload::appPreset("web", 1ull << 30),
        tier::TierChainSpec::parse("ssd"));
    auto &fast_app = fast_host.addApp(
        workload::appPreset("web", 1ull << 30),
        tier::TierChainSpec::parse("ssd"));
    slow_host.start();
    fast_host.start();
    slow_app.start();
    fast_app.start();

    core::Senpai slow_senpai(simulation, slow_host.memory(),
                             slow_app.cgroup());
    core::Senpai fast_senpai(simulation, fast_host.memory(),
                             fast_app.cgroup());
    slow_senpai.start();
    fast_senpai.start();
    simulation.runUntil(40 * sim::MINUTE);

    const auto slow_resident = slow_app.cgroup().memCurrent();
    const auto fast_resident = fast_app.cgroup().memCurrent();
    EXPECT_LT(fast_resident, slow_resident);
}

TEST(IntegrationTest, FileOnlyModeSavesWithoutSwap)
{
    // TMO's first production deployment: file-cache-only reclaim.
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("analytics", 1ull << 30),
        tier::TierChainSpec::parse("none"));
    machine.start();
    app.start();
    simulation.runUntil(20 * sim::SEC);
    const auto before = app.cgroup().memCurrent();

    core::Senpai senpai(simulation, machine.memory(), app.cgroup());
    senpai.start();
    simulation.runUntil(20 * sim::MINUTE);
    EXPECT_LT(app.cgroup().memCurrent(), before);
    EXPECT_EQ(app.cgroup().stats().pswpout, 0u);
    EXPECT_GT(app.cgroup().stats().pgfilesteal, 0u);
}

TEST(IntegrationTest, TmoReclaimBeatsLegacyOnPaging)
{
    // §3.4: balancing by refault/swap-in cost minimizes aggregate
    // paging versus the legacy file-skewed reclaim.
    auto run = [](mem::ReclaimMode mode) {
        sim::Simulation simulation;
        auto config = hostConfig();
        config.mem.mode = mode;
        host::Host machine(simulation, config);
        auto &app = machine.addApp(
            workload::appPreset("feed", 1ull << 30),
            tier::TierChainSpec::parse("zswap"));
        machine.start();
        app.start();
        core::Senpai senpai(simulation, machine.memory(), app.cgroup(),
                            core::senpaiAggressiveConfig());
        senpai.start();
        simulation.runUntil(20 * sim::MINUTE);
        // Aggregate paging: refaults + swap-ins per byte saved.
        const auto &stats = app.cgroup().stats();
        const double paging = static_cast<double>(stats.wsRefault +
                                                  stats.pswpin);
        const double saved = static_cast<double>(
            app.allocatedBytes() - app.cgroup().memCurrent());
        return paging / std::max(saved / (64 * 1024.0), 1.0);
    };
    const double tmo = run(mem::ReclaimMode::TMO_BALANCED);
    const double legacy = run(mem::ReclaimMode::LEGACY_FILE_FIRST);
    EXPECT_LT(tmo, legacy * 1.05);
}

TEST(IntegrationTest, PsiBeatsGswapOnSlowDevice)
{
    // Same workload + slow SSD: the PSI controller backs off (small
    // stall totals); the promotion-rate controller keeps pushing.
    sim::Simulation simulation;
    host::Host psi_host(simulation, hostConfig('B'), "psi");
    host::Host gsw_host(simulation, hostConfig('B'), "gswap");
    auto &psi_app = psi_host.addApp(
        workload::appPreset("web", 1ull << 30),
        tier::TierChainSpec::parse("ssd"));
    auto &gsw_app = gsw_host.addApp(
        workload::appPreset("web", 1ull << 30),
        tier::TierChainSpec::parse("ssd"));
    psi_host.start();
    gsw_host.start();
    psi_app.start();
    gsw_app.start();

    core::Senpai senpai(simulation, psi_host.memory(),
                        psi_app.cgroup());
    baseline::GswapController gswap(simulation, gsw_host.memory(),
                                    gsw_app.cgroup(),
                                    {200.0, 6 * sim::SEC, 0.004});
    senpai.start();
    gswap.start();
    simulation.runUntil(30 * sim::MINUTE);

    const auto psi_stall = psi_app.cgroup().psi().totalSome(
        psi::Resource::MEM, simulation.now());
    const auto gsw_stall = gsw_app.cgroup().psi().totalSome(
        psi::Resource::MEM, simulation.now());
    EXPECT_LT(psi_stall, gsw_stall);

    const double psi_rps = psi_app.lastTick().completedRps /
                           std::max(psi_app.lastTick().offeredRps, 1.0);
    const double gsw_rps = gsw_app.lastTick().completedRps /
                           std::max(gsw_app.lastTick().offeredRps, 1.0);
    EXPECT_GE(psi_rps, gsw_rps - 0.05);
}

TEST(IntegrationTest, HolisticOffloadCoversAppAndTax)
{
    // §2.3/§4.1: TMO offloads application containers AND both kinds of
    // memory tax.
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig('C', 3ull << 30));
    auto &app = machine.addApp(
        workload::appPreset("feed", 1536ull << 20),
        tier::TierChainSpec::parse("zswap"));
    auto &dc_tax = machine.addApp(
        workload::sidecarPreset("dc_logging", 256ull << 20),
        tier::TierChainSpec::parse("zswap"));
    auto &ms_tax = machine.addApp(
        workload::sidecarPreset("ms_proxy", 160ull << 20),
        tier::TierChainSpec::parse("zswap"));
    dc_tax.cgroup().setPriority(cgroup::Priority::LOW);
    ms_tax.cgroup().setPriority(cgroup::Priority::LOW);
    machine.start();
    app.start();
    dc_tax.start();
    ms_tax.start();

    core::TmoDaemon daemon(simulation, machine.memory());
    daemon.manage(app.cgroup());
    daemon.manage(dc_tax.cgroup());
    daemon.manage(ms_tax.cgroup());
    daemon.startAll();
    simulation.runUntil(20 * sim::MINUTE);

    for (auto *cg : {&app.cgroup(), &dc_tax.cgroup(),
                     &ms_tax.cgroup()}) {
        EXPECT_GT(cg->stats().pgsteal, 0u) << cg->name();
    }
    // Tax containers (relaxed SLA) should have saved a larger share.
    const double app_frac =
        static_cast<double>(app.cgroup().memCurrent()) /
        static_cast<double>(app.allocatedBytes());
    const double tax_frac =
        static_cast<double>(dc_tax.cgroup().memCurrent()) /
        static_cast<double>(dc_tax.allocatedBytes());
    EXPECT_LT(tax_frac, app_frac + 0.05);
}

TEST(IntegrationTest, MemoryBoundWebRecoversWithTmo)
{
    // Fig. 11 in miniature: a memory-bound Web host throttles RPS;
    // enabling TMO offloading removes the bound.
    // Paper setup: the baseline tier has no swap enabled at all; the
    // treatment tier gets a zswap backend plus Senpai.
    auto run = [](bool enable_tmo) {
        sim::Simulation simulation;
        host::Host machine(simulation, hostConfig('C', 1ull << 30));
        auto profile = workload::appPreset("web", 1200ull << 20);
        profile.growthSeconds = 900; // grow within the test horizon
        auto &app = machine.addApp(
            profile,
            tier::TierChainSpec::parse(enable_tmo ? "zswap" : "none"));
        app.cgroup().setMemMax(1ull << 30);
        machine.start();
        app.start();
        core::Senpai senpai(simulation, machine.memory(),
                            app.cgroup());
        if (enable_tmo)
            senpai.start();
        // Production Senpai time constants need a couple of hours to
        // drain the cold pool (the paper's Fig. 11 runs 10 h).
        simulation.runUntil(2 * sim::HOUR);
        return app.lastTick().completedRps;
    };
    const double rps_baseline = run(false);
    const double rps_tmo = run(true);
    EXPECT_GT(rps_tmo, rps_baseline * 1.05);
}
