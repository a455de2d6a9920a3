/**
 * @file
 * Tests for the working-set profiler (§3.3/§5.1 observability).
 */

#include <gtest/gtest.h>

#include "core/senpai.hpp"
#include "core/workingset_profiler.hpp"
#include "host/host.hpp"
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

} // namespace

TEST(WorkingsetProfilerTest, EmptyEstimateIsZero)
{
    sim::Simulation simulation;
    cgroup::CgroupTree tree;
    auto &cg = tree.create("x");
    core::WorkingsetProfiler profiler(simulation, cg);
    const auto estimate = profiler.estimate();
    EXPECT_EQ(estimate.samples, 0u);
    EXPECT_EQ(estimate.recommendedBytes, 0u);
    EXPECT_DOUBLE_EQ(estimate.overprovisionFraction(), 0.0);
}

TEST(WorkingsetProfilerTest, SamplesResidentAndPressure)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("feed", 1ull << 30),
        tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    core::WorkingsetProfiler profiler(simulation, app.cgroup());
    profiler.start();
    simulation.runUntil(5 * sim::MINUTE);
    EXPECT_GE(profiler.residentSeries().size(), 8u);
    EXPECT_EQ(profiler.residentSeries().size(),
              profiler.pressureSeries().size());
    profiler.stop();
    const auto n = profiler.residentSeries().size();
    simulation.runUntil(7 * sim::MINUTE);
    EXPECT_EQ(profiler.residentSeries().size(), n);
}

TEST(WorkingsetProfilerTest, ColdSeriesSampledWhenMemoryAttached)
{
    // With the memory manager attached, each poll also records the
    // idle-age cold fraction (Fig. 2) — served from the per-memcg age
    // list, so polling it every interval is affordable.
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("analytics", 1ull << 30), // 56% cold
        tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    core::WorkingsetProfiler profiler(simulation, app.cgroup());
    profiler.attachMemory(&machine.memory());
    profiler.start();
    simulation.runUntil(10 * sim::MINUTE);

    ASSERT_EQ(profiler.coldSeries().size(),
              profiler.residentSeries().size());
    ASSERT_GE(profiler.coldSeries().size(), 8u);
    for (const auto &sample : profiler.coldSeries().samples()) {
        EXPECT_GE(sample.value, 0.0);
        EXPECT_LE(sample.value, 1.0);
    }
    // An analytics-shaped workload leaves a visible cold tail once the
    // 5-minute horizon has elapsed.
    EXPECT_GT(profiler.coldSeries().last(), 0.2);

    // Without attachMemory the series stays empty (old behaviour).
    core::WorkingsetProfiler bare(simulation, app.cgroup());
    bare.start();
    simulation.runUntil(12 * sim::MINUTE);
    EXPECT_TRUE(bare.coldSeries().empty());
}

TEST(WorkingsetProfilerTest, RevealsOverprovisioningUnderSenpai)
{
    // The §3.3 claim: probing with Senpai exposes how much smaller
    // than its footprint the workload could run while staying
    // healthy.
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("analytics", 1ull << 30), // 56% cold
        tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();

    // Probe hard enough to expose the full cold pool within the test
    // horizon (this exercises the profiler, not the paper's tuning).
    auto config = core::senpaiAggressiveConfig();
    config.source = core::PressureSource::AVG60;
    core::Senpai senpai(simulation, machine.memory(), app.cgroup(),
                        config);
    // Health bound for sizing: tolerant of a handful of amplified
    // faults per 30 s window at this simulation scale.
    core::WorkingsetProfiler profiler(simulation, app.cgroup(), 0.01);
    simulation.runUntil(2 * sim::MINUTE);
    senpai.start();
    profiler.start();
    simulation.runUntil(40 * sim::MINUTE);

    const auto estimate = profiler.estimate();
    EXPECT_GT(estimate.samples, 50u);
    EXPECT_GT(estimate.peakBytes, 0u);
    EXPECT_GT(estimate.minHealthyBytes, 0u);
    EXPECT_LT(estimate.minHealthyBytes, estimate.peakBytes);
    // Recommendation = min healthy + 10% margin, below the peak.
    EXPECT_NEAR(static_cast<double>(estimate.recommendedBytes),
                static_cast<double>(estimate.minHealthyBytes) * 1.10,
                static_cast<double>(estimate.minHealthyBytes) * 0.01);
    EXPECT_GT(estimate.overprovisionFraction(), 0.05);
}

TEST(WorkingsetProfilerTest, UnhealthySamplesExcluded)
{
    // Samples taken while pressure exceeded the threshold must not
    // drag the recommendation down.
    sim::Simulation simulation;
    cgroup::CgroupTree tree;
    auto &cg = tree.create("x");
    core::WorkingsetProfiler profiler(simulation, cg, 0.01,
                                      10 * sim::SEC);
    profiler.start();

    // Manually shape the history: big+healthy, then small+stalled.
    cg.charge(1000 << 20);
    simulation.runUntil(15 * sim::SEC); // sample 1: healthy, 1000 MiB
    cg.uncharge(900 << 20);
    // Saturate pressure during the next window.
    cg.psiTaskChange(0, psi::TSK_MEMSTALL, simulation.now());
    simulation.runUntil(25 * sim::SEC); // sample 2: stalled, 100 MiB
    cg.psiTaskChange(psi::TSK_MEMSTALL, 0, simulation.now());

    const auto estimate = profiler.estimate();
    // The 100 MiB sample was unhealthy: min healthy stays at 1000 MiB.
    EXPECT_NEAR(static_cast<double>(estimate.minHealthyBytes),
                static_cast<double>(1000ull << 20), 1 << 20);
}
