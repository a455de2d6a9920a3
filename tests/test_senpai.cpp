/**
 * @file
 * Tests for Senpai: the control formula, guards, and convergence.
 */

#include <gtest/gtest.h>

#include "core/senpai.hpp"
#include "core/write_regulator.hpp"
#include "host/host.hpp"
#include "trace_series.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace tmo::core
{

/** White-box access for pinning controller-internal regressions. */
struct SenpaiTestPeer {
    /** Install a pressure baseline as if the last real tick happened
     *  at @p last_tick with the given PSI totals. */
    static void
    forceBaseline(Senpai &senpai, sim::SimTime last_tick,
                  sim::SimTime mem_some, sim::SimTime io_some)
    {
        senpai.lastTick_ = last_tick;
        senpai.lastMemSome_ = mem_some;
        senpai.lastIoSome_ = io_some;
    }

    /** Fire one control tick outside the event loop. */
    static void
    fireTick(Senpai &senpai)
    {
        senpai.tick();
    }
};

} // namespace tmo::core

namespace
{

host::HostConfig
hostConfig(std::uint64_t ram = 2ull << 30)
{
    host::HostConfig config;
    config.mem.ramBytes = ram;
    config.mem.pageBytes = 64 * 1024;
    config.cpus = 16;
    return config;
}

} // namespace

TEST(WriteRegulatorTest, DisabledPassesThrough)
{
    core::WriteRegulator reg(0.0);
    EXPECT_FALSE(reg.enabled());
    EXPECT_DOUBLE_EQ(reg.modulate(100.0, 1e9, sim::SEC), 100.0);
}

TEST(WriteRegulatorTest, UnderBudgetPassesThrough)
{
    core::WriteRegulator reg(1e6);
    // Writing half the budget accrues credit: reclaim passes through.
    EXPECT_DOUBLE_EQ(reg.modulate(100.0, 0.5e6, sim::SEC), 100.0);
    EXPECT_LT(reg.debt(), 0.0);
}

TEST(WriteRegulatorTest, OverBudgetBlocksUntilDebtPaid)
{
    core::WriteRegulator reg(1e6);
    // 3 MB written against a 1 MB/s budget: 2 MB of debt.
    EXPECT_DOUBLE_EQ(reg.modulate(100.0, 3e6, sim::SEC), 0.0);
    // Debt pays down at the budget rate; still blocked after 1 s...
    EXPECT_DOUBLE_EQ(reg.modulate(100.0, 0.0, sim::SEC), 0.0);
    // ...then allowed again as credit accrues, bounded by the credit.
    EXPECT_GT(reg.modulate(100.0, 0.0, 2 * sim::SEC), 0.0);
}

TEST(WriteRegulatorTest, BurstBoundedByCredit)
{
    core::WriteRegulator reg(1e6);
    // A long idle stretch accrues at most ~8 s of budget: a huge
    // reclaim proposal is clamped to that credit.
    const double allowed = reg.modulate(1e9, 0.0, sim::HOUR);
    EXPECT_LE(allowed, 8e6 * 1.001);
    EXPECT_GT(allowed, 0.0);
    EXPECT_GE(reg.debt(), -8e6 * 1.001);
}

TEST(SenpaiConfigTest, ProductionValuesMatchPaper)
{
    const auto config = core::senpaiProductionConfig();
    EXPECT_EQ(core::CONTROL_INTERVAL, 6 * sim::SEC);
    EXPECT_DOUBLE_EQ(config.psiThreshold, 0.001); // 0.1%
    EXPECT_DOUBLE_EQ(config.reclaimRatio, 0.0005);
    EXPECT_DOUBLE_EQ(config.maxProbeRatio, 0.01); // 1% cap
}

TEST(SenpaiConfigTest, AggressiveIsStrictlyMoreAggressive)
{
    const auto a = core::senpaiProductionConfig();
    const auto b = core::senpaiAggressiveConfig();
    EXPECT_GT(b.reclaimRatio, a.reclaimRatio);
    EXPECT_GT(b.psiThreshold, a.psiThreshold);
}

TEST(SenpaiTest, ReclaimsIdleMemory)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("feed", 1ull << 30),
        tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    simulation.runUntil(30 * sim::SEC);
    const auto before = app.cgroup().memCurrent();

    auto ring = test::testRing();
    core::Senpai senpai(simulation, machine.memory(), app.cgroup());
    senpai.setTrace(&ring);
    senpai.start();
    simulation.runUntil(10 * sim::MINUTE);
    EXPECT_LT(app.cgroup().memCurrent(), before);
    EXPECT_GT(senpai.totalRequested(), 0u);
    EXPECT_GT(test::senpaiSteps(ring).size(), 50u);
}

TEST(SenpaiTest, StepIsBoundedByFormula)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("feed", 1ull << 30),
        tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    auto ring = test::testRing();
    core::Senpai senpai(simulation, machine.memory(), app.cgroup());
    senpai.setTrace(&ring);
    senpai.start();
    simulation.runUntil(5 * sim::MINUTE);
    // Every recorded step obeys reclaim <= current * ratio (pressure
    // factor only shrinks it; current <= footprint).
    const double max_step =
        senpai.config().reclaimRatio * (1ull << 30);
    const auto steps = test::senpaiSteps(ring);
    EXPECT_FALSE(steps.empty());
    for (const auto &sample : steps.samples())
        EXPECT_LE(sample.value, max_step * 1.01);
}

TEST(SenpaiTest, PressureAboveThresholdStopsReclaim)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("cache_b", 1ull << 30), // hot workload
        tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();

    // A tiny threshold means any stall cancels reclaim.
    auto config = core::senpaiProductionConfig();
    config.psiThreshold = 1e-7;
    core::Senpai senpai(simulation, machine.memory(), app.cgroup(),
                        config);
    senpai.start();

    // Seed pressure: evict hot memory once so sweeps refault.
    simulation.runUntil(20 * sim::SEC);
    machine.memory().reclaim(app.cgroup(), 512ull << 20,
                             simulation.now());
    const auto requested_at_seed = senpai.totalRequested();
    simulation.runUntil(3 * sim::MINUTE);
    // With constant pressure above threshold, Senpai stayed idle
    // (allow the first in-flight tick).
    EXPECT_LE(senpai.totalRequested() - requested_at_seed,
              static_cast<std::uint64_t>(
                  senpai.config().reclaimRatio * (1ull << 30) * 2));
}

TEST(SenpaiTest, ConvergesToMildSteadyStatePressure)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("feed", 1ull << 30),
        tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    auto ring = test::testRing();
    core::Senpai senpai(simulation, machine.memory(), app.cgroup());
    senpai.setTrace(&ring);
    senpai.start();
    simulation.runUntil(30 * sim::MINUTE);

    // Steady state: observed pressure stays in the same order as the
    // threshold (mild, nonzero contention), and RPS is unharmed.
    const double late_pressure = test::senpaiPressure(ring).meanBetween(
        20 * sim::MINUTE, 30 * sim::MINUTE);
    EXPECT_LT(late_pressure, 10 * senpai.config().psiThreshold);
    EXPECT_GT(app.lastTick().completedRps,
              0.9 * app.lastTick().offeredRps);
}

TEST(SenpaiTest, WriteRegulationCapsSwapOutRate)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("ads_b", 1ull << 30),
        tier::TierChainSpec::parse("ssd"));
    machine.start();
    app.start();

    auto config = core::senpaiAggressiveConfig();
    config.writeBudgetBytesPerSec = 1e6; // 1 MB/s (§4.5)
    config.ioPsiThreshold = 1.0;         // isolate the regulator
    core::Senpai senpai(simulation, machine.memory(), app.cgroup(),
                        config);
    senpai.start();
    simulation.runUntil(10 * sim::MINUTE);

    // Smoothed swap-out rate settles near the budget.
    const double rate = machine.memory()
                            .memcgOf(app.cgroup())
                            .swapoutBytes.rate(simulation.now());
    EXPECT_LT(rate, 3e6);
}

// Regression: with PressureSource::INTERVAL, a zero-length window
// (two ticks at the same sim time, as after a controller stall /
// crash-restart fault) must not advance the PSI baseline — doing so
// silently drops the stall accrued since the last real reading from
// the next pressure computation.
TEST(SenpaiTest, ZeroWindowTickKeepsPressureBaseline)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("feed", 512ull << 20),
        tier::TierChainSpec::parse("zswap"));
    auto &cg = app.cgroup();

    auto ring = test::testRing();
    core::Senpai senpai(simulation, machine.memory(), cg);
    ASSERT_EQ(senpai.config().source, core::PressureSource::INTERVAL);
    senpai.setTrace(&ring);

    // Accrue 3 s of some-memory stall between t=0 and t=3 s.
    cg.psiTaskChange(0, psi::TSK_MEMSTALL, simulation.now());
    simulation.runUntil(3 * sim::SEC);
    cg.psiTaskChange(psi::TSK_MEMSTALL, 0, simulation.now());
    simulation.runUntil(6 * sim::SEC);

    // Restart state: the baseline still predates the stall, and a
    // resumed tick fires at the same sim time as lastTick_.
    core::SenpaiTestPeer::forceBaseline(senpai, simulation.now(), 0, 0);
    core::SenpaiTestPeer::fireTick(senpai);
    EXPECT_DOUBLE_EQ(test::senpaiPressure(ring).last(), 0.0);

    // The next real tick, 6 s later, must still see the 3 s of stall
    // accrued before the zero-window tick: 3 s / 6 s = 0.5.
    simulation.runUntil(12 * sim::SEC);
    core::SenpaiTestPeer::fireTick(senpai);
    EXPECT_NEAR(test::senpaiPressure(ring).last(), 0.5, 1e-9);
}

TEST(SenpaiTest, StopHaltsControl)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("feed", 512ull << 20),
        tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    core::Senpai senpai(simulation, machine.memory(), app.cgroup());
    senpai.start();
    simulation.runUntil(sim::MINUTE);
    senpai.stop();
    const auto requested = senpai.totalRequested();
    simulation.runUntil(3 * sim::MINUTE);
    EXPECT_EQ(senpai.totalRequested(), requested);
    EXPECT_FALSE(senpai.running());
}
