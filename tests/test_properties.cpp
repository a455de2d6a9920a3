/**
 * @file
 * Property-style parameterized sweeps over the core invariants:
 * PSI accounting, reclaim bounds, accounting conservation, regulator
 * budgets, and Senpai convergence across workloads and backends.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "core/senpai.hpp"
#include "core/write_regulator.hpp"
#include "host/host.hpp"
#include "psi/psi.hpp"
#include "sim/rng.hpp"
#include "trace_series.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

// --- PSI invariants under random transition streams -------------------------

class PsiPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(PsiPropertyTest, InvariantsUnderRandomTransitions)
{
    sim::Rng rng(GetParam());
    psi::PsiGroup group;

    // Three tasks making random transitions; track their states so
    // clears always match.
    unsigned states[3] = {0, 0, 0};
    const unsigned options[] = {
        0,
        psi::TSK_ONCPU,
        psi::TSK_RUNNABLE,
        psi::TSK_MEMSTALL,
        psi::TSK_IOWAIT,
        psi::TSK_MEMSTALL | psi::TSK_IOWAIT,
    };
    sim::SimTime now = 0;
    sim::SimTime prev_some[3] = {0, 0, 0};
    for (int step = 0; step < 2000; ++step) {
        now += rng.uniformInt(50 * sim::MSEC) + 1;
        const auto task = rng.uniformInt(3);
        const unsigned next = options[rng.uniformInt(6)];
        group.taskChange(states[task], next, now);
        states[task] = next;
        if (step % 40 == 0)
            group.updateAverages(now);

        for (std::size_t r = 0; r < psi::NUM_RESOURCES; ++r) {
            const auto res = static_cast<psi::Resource>(r);
            const auto some = group.totalSome(res, now);
            const auto full = group.totalFull(res, now);
            // some >= full, totals monotonic, never beyond wall time.
            ASSERT_GE(some, full);
            ASSERT_GE(some, prev_some[r]);
            ASSERT_LE(some, now);
            prev_some[r] = some;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsiPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 77, 1234));

// --- reclaim bounds and conservation across configurations -------------------

struct ReclaimSweepParam {
    std::uint64_t footprint_mb;
    std::uint64_t target_mb;
    bool zswap;
    mem::ReclaimMode mode;
};

// Names each case by its contents (e.g. "256mb-to-32mb-zswap-balanced").
// Without this, gtest prints the raw bytes, uninitialised padding
// included, so the listed test names would differ between builds.
void
PrintTo(const ReclaimSweepParam &param, std::ostream *out)
{
    *out << param.footprint_mb << "mb-to-" << param.target_mb << "mb-"
         << (param.zswap ? "zswap-" : "ssd-")
         << (param.mode == mem::ReclaimMode::TMO_BALANCED ? "balanced"
                                                          : "legacy");
}

class ReclaimPropertyTest
    : public ::testing::TestWithParam<ReclaimSweepParam>
{};

TEST_P(ReclaimPropertyTest, BoundsAndConservation)
{
    const auto param = GetParam();
    sim::Simulation simulation;
    host::HostConfig config;
    config.mem.ramBytes = 4ull << 30;
    config.mem.pageBytes = 64 * 1024;
    config.mem.mode = param.mode;
    host::Host machine(simulation, config);
    auto &app = machine.addApp(
        workload::appPreset("feed", param.footprint_mb << 20),
        tier::TierChainSpec::parse(param.zswap ? "zswap" : "ssd"));
    app.start();
    machine.start();
    simulation.runUntil(5 * sim::SEC);

    const auto info_before = machine.memory().info(app.cgroup());
    const auto resident_before = info_before.residentBytes;
    const auto outcome = machine.memory().reclaim(
        app.cgroup(), param.target_mb << 20, simulation.now());

    // Reclaim never exceeds the request by more than rounding slack.
    EXPECT_LE(outcome.reclaimedBytes,
              (param.target_mb << 20) + 64 * config.mem.pageBytes);

    // Conservation: every page is resident, offloaded, or on the
    // filesystem; resident drop equals pages moved out.
    const auto info_after = machine.memory().info(app.cgroup());
    EXPECT_EQ(resident_before - info_after.residentBytes,
              outcome.reclaimedBytes);

    // Eviction counters match the outcome split.
    EXPECT_EQ(outcome.anonPages,
              app.cgroup().stats().pswpout);
    EXPECT_EQ(outcome.filePages, app.cgroup().stats().pgfilesteal);

    // Host RAM accounting stays consistent.
    EXPECT_LE(machine.memory().ramUsed(),
              machine.memory().ramCapacity());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReclaimPropertyTest,
    ::testing::Values(
        ReclaimSweepParam{256, 32, true, mem::ReclaimMode::TMO_BALANCED},
        ReclaimSweepParam{256, 200, true, mem::ReclaimMode::TMO_BALANCED},
        ReclaimSweepParam{512, 64, false, mem::ReclaimMode::TMO_BALANCED},
        ReclaimSweepParam{512, 500, false,
                          mem::ReclaimMode::TMO_BALANCED},
        ReclaimSweepParam{256, 64, false,
                          mem::ReclaimMode::LEGACY_FILE_FIRST},
        ReclaimSweepParam{1024, 900, true,
                          mem::ReclaimMode::TMO_BALANCED}));

// --- write regulator never exceeds budget -------------------------------------

class RegulatorPropertyTest : public ::testing::TestWithParam<double>
{};

TEST_P(RegulatorPropertyTest, ModulatedRateConvergesBelowBudget)
{
    const double budget = GetParam();
    core::WriteRegulator reg(budget);
    // Closed loop: writes this interval follow last interval's
    // allowed reclaim; start far over budget.
    double writes = 50e6;
    double total_written = 0.0;
    const int seconds = 600;
    for (int i = 0; i < seconds; ++i) {
        const double allowed = reg.modulate(writes, writes, sim::SEC);
        total_written += writes;
        writes = allowed; // next interval's writes track the allowance
    }
    // Long-run average write rate converges to the budget (within the
    // one-minute burst credit).
    EXPECT_LE(total_written / seconds, budget * 1.3);
}

INSTANTIATE_TEST_SUITE_P(Budgets, RegulatorPropertyTest,
                         ::testing::Values(0.5e6, 1e6, 2e6, 8e6));

// --- Senpai stays below pressure ceiling across workloads ----------------------

struct SenpaiSweepParam {
    const char *app;
    bool zswap;
    char ssd;
};

// Names each case by its contents (e.g. "feed-zswap-C"). Without this,
// gtest prints the raw bytes, which hold the string pointer, so the
// listed test names would change with every run's address layout.
void
PrintTo(const SenpaiSweepParam &param, std::ostream *out)
{
    *out << param.app << (param.zswap ? "-zswap-" : "-swap-") << param.ssd;
}

class SenpaiPropertyTest
    : public ::testing::TestWithParam<SenpaiSweepParam>
{};

TEST_P(SenpaiPropertyTest, MildPressureAndRealSavings)
{
    const auto param = GetParam();
    sim::Simulation simulation;
    host::HostConfig config;
    config.mem.ramBytes = 2ull << 30;
    config.mem.pageBytes = 64 * 1024;
    config.ssdClass = param.ssd;
    host::Host machine(simulation, config);
    auto &app = machine.addApp(
        workload::appPreset(param.app, 1ull << 30),
        tier::TierChainSpec::parse(param.zswap ? "zswap" : "ssd"));
    machine.start();
    app.start();
    simulation.runUntil(30 * sim::SEC);

    auto ring = test::testRing();
    core::Senpai senpai(simulation, machine.memory(), app.cgroup());
    senpai.setTrace(&ring);
    senpai.start();
    simulation.runUntil(15 * sim::MINUTE);

    // Some memory was offloaded (resident below allocated; lazily
    // growing apps like web can still grow in absolute terms)...
    EXPECT_GT(app.cgroup().stats().pgsteal, 0u) << param.app;
    EXPECT_LT(app.cgroup().memCurrent(), app.allocatedBytes())
        << param.app;
    // ...while pressure stayed within an order of the target and the
    // workload kept serving.
    const double pressure = test::senpaiPressure(ring).meanBetween(
        10 * sim::MINUTE, 15 * sim::MINUTE);
    EXPECT_LT(pressure, 10 * senpai.config().psiThreshold) << param.app;
    EXPECT_GT(app.lastTick().completedRps,
              0.85 * app.lastTick().offeredRps)
        << param.app;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SenpaiPropertyTest,
    ::testing::Values(SenpaiSweepParam{"feed", true, 'C'},
                      SenpaiSweepParam{"feed", false, 'C'},
                      SenpaiSweepParam{"web", true, 'C'},
                      SenpaiSweepParam{"ads_b", false, 'B'},
                      SenpaiSweepParam{"cache_a", true, 'C'},
                      SenpaiSweepParam{"analytics", false, 'E'}));

// --- zswap pool accounting closed under random store/load ---------------------

class ZswapPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ZswapPropertyTest, PoolAccountingCloses)
{
    sim::Rng rng(GetParam());
    backend::ZswapPool pool({}, GetParam());
    std::vector<std::uint64_t> stored;
    for (int i = 0; i < 2000; ++i) {
        if (stored.empty() || rng.chance(0.6)) {
            const auto result =
                pool.store(64 * 1024, rng.uniform(1.0, 5.0), 0);
            if (result.accepted)
                stored.push_back(result.storedBytes);
        } else {
            const auto pick = rng.uniformInt(stored.size());
            pool.load(stored[pick], 0);
            stored.erase(stored.begin() +
                         static_cast<std::ptrdiff_t>(pick));
        }
        std::uint64_t expected = 0;
        for (const auto s : stored)
            expected += s;
        ASSERT_EQ(pool.usedBytes(), expected);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZswapPropertyTest,
                         ::testing::Values(11, 22, 33));
