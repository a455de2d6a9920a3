/**
 * @file
 * Tests for the g-swap baseline controller.
 */

#include <gtest/gtest.h>

#include "baseline/gswap.hpp"
#include "host/host.hpp"
#include "trace_series.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace
{

host::HostConfig
hostConfig()
{
    host::HostConfig config;
    config.mem.ramBytes = 2ull << 30;
    config.mem.pageBytes = 64 * 1024;
    return config;
}

/** Reclaim passes @p ring holds. On these roomy hosts nothing but
 *  the controller's memory.reclaim writes reclaims, one pass each. */
std::size_t
reclaimPasses(const obs::TraceRing &ring)
{
    const auto passes =
        test::traceSeries(ring, obs::TraceEventType::RECLAIM_PASS, 0);
    return passes.size();
}

} // namespace

TEST(GswapTest, ReclaimsWhilePromotionsBelowTarget)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("feed", 1ull << 30),
        tier::TierChainSpec::parse("zswap"));
    auto &ring = machine.enableTracing(4ull << 20);
    machine.start();
    app.start();
    simulation.runUntil(10 * sim::SEC);
    const auto before = app.cgroup().memCurrent();
    ASSERT_EQ(reclaimPasses(ring), 0u);

    baseline::GswapController gswap(simulation, machine.memory(),
                                    app.cgroup(), {50.0});
    gswap.start();
    simulation.runUntil(5 * sim::MINUTE);
    EXPECT_LT(app.cgroup().memCurrent(), before);
    // More than 20 of its ticks reclaimed.
    EXPECT_GT(reclaimPasses(ring), 20u);
}

TEST(GswapTest, BacksOffAboveTarget)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("cache_b", 1ull << 30), // hot
        tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();

    // Target 0: never reclaim once any swap-in is observed.
    baseline::GswapController gswap(simulation, machine.memory(),
                                    app.cgroup(), {0.0});
    gswap.start();
    simulation.runUntil(2 * sim::MINUTE);
    // With a zero target the controller must never reclaim.
    EXPECT_EQ(app.cgroup().stats().pswpout, 0u);
}

TEST(GswapTest, StaticTargetIgnoresDeviceSpeed)
{
    // The §4.3 flaw in miniature: the same promotion-rate target
    // produces the same offload decision whether the backend is fast
    // zswap or a slow SSD, because the metric carries no latency.
    sim::Simulation simulation;
    host::HostConfig config = hostConfig();
    config.ssdClass = 'B'; // slow SSD (Fig. 12)
    host::Host slow_host(simulation, config, "slow");
    config.ssdClass = 'C';
    config.seed = 42; // identical seed: paired A/B tiers
    host::Host fast_host(simulation, config, "fast");

    auto &slow_app = slow_host.addApp(
        workload::appPreset("feed", 512ull << 20),
        tier::TierChainSpec::parse("ssd"));
    auto &fast_app = fast_host.addApp(
        workload::appPreset("feed", 512ull << 20),
        tier::TierChainSpec::parse("ssd"));
    slow_host.start();
    fast_host.start();
    slow_app.start();
    fast_app.start();

    baseline::GswapConfig gconfig{30.0};
    baseline::GswapController slow_ctl(simulation, slow_host.memory(),
                                       slow_app.cgroup(), gconfig);
    baseline::GswapController fast_ctl(simulation, fast_host.memory(),
                                       fast_app.cgroup(), gconfig);
    slow_ctl.start();
    fast_ctl.start();
    simulation.runUntil(5 * sim::MINUTE);
    const auto slow_before = slow_app.cgroup().stats().pswpin;
    const auto fast_before = fast_app.cgroup().stats().pswpin;
    simulation.runUntil(10 * sim::MINUTE);

    // Both controllers drive towards the same promotion rate...
    const auto slow_swapins = slow_app.cgroup().stats().pswpin - slow_before;
    const auto fast_swapins = fast_app.cgroup().stats().pswpin - fast_before;
    const double window_s = sim::toSeconds(5 * sim::MINUTE);
    const double slow_rate = static_cast<double>(slow_swapins) / window_s;
    const double fast_rate = static_cast<double>(fast_swapins) / window_s;
    EXPECT_NEAR(slow_rate, fast_rate, 0.7 * std::max(slow_rate, 1.0));

    // ...but the slow device turns that rate into far more stall time.
    const auto slow_stall = slow_app.cgroup().psi().totalSome(
        psi::Resource::MEM, simulation.now());
    const auto fast_stall = fast_app.cgroup().psi().totalSome(
        psi::Resource::MEM, simulation.now());
    EXPECT_GT(slow_stall, fast_stall);
}

TEST(GswapTest, StopHalts)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("feed", 512ull << 20),
        tier::TierChainSpec::parse("zswap"));
    auto &ring = machine.enableTracing(4ull << 20);
    machine.start();
    app.start();
    baseline::GswapController gswap(simulation, machine.memory(),
                                    app.cgroup());
    gswap.start();
    simulation.runUntil(sim::MINUTE);
    gswap.stop();
    EXPECT_FALSE(gswap.running());
    const auto n = reclaimPasses(ring);
    EXPECT_GT(n, 0u);
    simulation.runUntil(2 * sim::MINUTE);
    EXPECT_EQ(reclaimPasses(ring), n);
}
