/**
 * @file
 * The fault-injection subsystem's contract:
 *
 *  - FaultPlan parses the line-based spec strictly (line-numbered
 *    errors) and random plans are pure functions of their seed;
 *  - injection rides the per-host shard clock, so a faulted fleet run
 *    is bit-identical for any --jobs;
 *  - graceful degradation: swap exhaustion flips reclaim to file-only
 *    (§4), Senpai backs off while its backend is impaired, and the
 *    fleet engine quarantines a throwing host instead of aborting;
 *  - the PSI invariant checks stay armed in release builds.
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/senpai.hpp"
#include "core/tmo_daemon.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "host/fleet.hpp"
#include "psi/psi.hpp"

using namespace tmo;

namespace
{

host::FleetSpec
fleetSpec(std::size_t hosts, std::uint64_t seed)
{
    return host::FleetSpec{}
        .hosts(hosts)
        .epoch(30 * sim::SEC)
        .name_prefix("chaos")
        .ram_mb(256)
        .page_kb(64)
        .seed(seed)
        .tiers("ssd")
        .workload("feed", 192)
        .controller("senpai");
}

/** A plan touching every subsystem the injector can reach. */
fault::FaultPlan
stressPlan()
{
    return fault::FaultPlan::parseString(
        "t=20 kind=ssd-latency arg=6\n"
        "t=35 kind=ssd-write-error arg=0.3\n"
        "t=50 kind=swap-exhaust arg=0.2\n"
        "t=65 kind=controller-crash arg=15\n"
        "t=80 kind=ram-shrink arg=32\n"
        "t=95 kind=ssd-online\n");
}

/** Flat per-host digest (the test_fleet_parallel pattern) plus the
 *  fault counters a degraded run must also agree on. */
std::vector<double>
faultedDigest(std::size_t hosts, std::uint64_t seed, unsigned jobs,
              const std::function<fault::FaultPlan(std::size_t)> &plan,
              sim::SimTime duration = 2 * sim::MINUTE)
{
    host::Fleet fleet = fleetSpec(hosts, seed).build();
    fleet.start();

    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        auto host_plan = plan(i);
        if (host_plan.empty())
            continue;
        injectors.push_back(std::make_unique<fault::FaultInjector>(
            fleet.host(i), std::move(host_plan)));
        injectors.back()->arm();
    }
    fleet.run(duration, jobs);

    std::vector<double> digest;
    const auto append =
        [&](const std::function<double(host::Host &)> &metric) {
            for (double value : fleet.collect(metric))
                digest.push_back(value);
        };
    const auto cg = [](host::Host &h) -> cgroup::Cgroup & {
        return h.apps().front()->cgroup();
    };
    append([&](host::Host &h) {
        return static_cast<double>(cg(h).memCurrent());
    });
    append([&](host::Host &h) {
        return static_cast<double>(cg(h).stats().pswpin);
    });
    append([&](host::Host &h) {
        return static_cast<double>(cg(h).stats().pswpout);
    });
    append([&](host::Host &h) {
        return static_cast<double>(cg(h).stats().wsRefault);
    });
    append([&](host::Host &h) {
        return static_cast<double>(h.ssd().bytesWritten());
    });
    append([&](host::Host &h) {
        return h.apps().front()->lastTick().completedRps;
    });
    append([&](host::Host &h) {
        return static_cast<double>(cg(h).psi().totalSome(
            psi::Resource::MEM, h.simulation().now()));
    });
    append([&](host::Host &h) {
        return static_cast<double>(
            fault::hostDegradationEvents(h));
    });
    return digest;
}

} // namespace

// --- FaultPlan parsing ---------------------------------------------------

TEST(FaultPlanTest, ParsesTokensInAnyOrderAndSortsByTime)
{
    const auto plan = fault::FaultPlan::parseString(
        "# a comment line\n"
        "t=90 kind=ram-shrink arg=64\n"
        "\n"
        "kind=ssd-latency arg=4 t=10   # trailing comment\n");
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.events[0].kind, fault::FaultKind::SSD_LATENCY);
    EXPECT_EQ(plan.events[0].at, 10 * sim::SEC);
    EXPECT_DOUBLE_EQ(plan.events[0].arg, 4.0);
    EXPECT_EQ(plan.events[1].kind, fault::FaultKind::RAM_SHRINK);
}

TEST(FaultPlanTest, RoundTripsThroughToString)
{
    const auto plan = stressPlan();
    const auto again =
        fault::FaultPlan::parseString(plan.toString());
    EXPECT_EQ(plan.events, again.events);
}

TEST(FaultPlanTest, ToStringKeepsEveryDigit)
{
    // Times and arguments print exactly: a time prints as seconds
    // that convert back to the same nanosecond.
    const auto plan = fault::FaultPlan::parseString(
        "t=0.1234567891 kind=ssd-latency arg=3.141592653589793\n"
        "t=86399.999999999 kind=zswap-cap arg=1e-7\n"
        "t=1e9 kind=ram-shrink arg=-0.5\n");
    EXPECT_EQ(fault::FaultPlan::parseString(plan.toString()).events,
              plan.events)
        << plan.toString();
    EXPECT_EQ(fault::FaultPlan::parseString("t=20 kind=ssd-online\n")
                  .toString(),
              "t=20 kind=ssd-online arg=0\n");
}

TEST(FaultPlanTest, KindNamesRoundTrip)
{
    for (std::size_t i = 0; i < fault::NUM_FAULT_KINDS; ++i) {
        const auto kind = static_cast<fault::FaultKind>(i);
        const auto back =
            fault::faultKindFromName(fault::faultKindName(kind));
        ASSERT_TRUE(back.has_value()) << i;
        EXPECT_EQ(*back, kind);
    }
    EXPECT_FALSE(fault::faultKindFromName("disk-melt").has_value());
}

TEST(FaultPlanTest, MalformedSpecsNameTheLine)
{
    const auto expectError = [](const std::string &text,
                                const std::string &needle) {
        try {
            fault::FaultPlan::parseString(text);
            FAIL() << "expected invalid_argument for: " << text;
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what()).find(needle),
                      std::string::npos)
                << error.what();
        }
    };
    expectError("t=10 kind=disk-melt\n", "line 1");
    expectError("t=ok kind=ssd-latency\n", "bad number");
    expectError("t=10\n", "missing kind");
    expectError("kind=ssd-latency\n", "missing t");
    expectError("t=-5 kind=ssd-latency\n", "t must be >= 0");
    expectError("t=10 kind=ssd-latency bogus\n", "key=value");
    expectError("t=10 kind=ssd-latency color=red\n", "unknown key");
    expectError("t=10 kind=ssd-latency arg=4x\n", "trailing junk");
}

TEST(FaultPlanTest, NonFiniteAndHugeNumbersAreRejectedByName)
{
    // std::stod accepts each of these; converted to SimTime they used
    // to schedule the fault at t=0 (2^63 ns for nan).
    const auto expectError = [](const std::string &line,
                                const std::string &needle) {
        const std::string text = "t=5 kind=ssd-latency arg=2\n" + line;
        try {
            fault::FaultPlan::parseString(text);
            FAIL() << "expected invalid_argument for: " << line;
        } catch (const std::invalid_argument &error) {
            const std::string what = error.what();
            EXPECT_NE(what.find("line 2"), std::string::npos) << what;
            EXPECT_NE(what.find(needle), std::string::npos) << what;
        }
    };
    for (const char *t : {"nan", "inf", "-inf"})
        expectError("t=" + std::string(t) + " kind=ssd-offline",
                    "t must be finite");
    for (const char *t : {"1e300", "2e10", "1000000001"})
        expectError("t=" + std::string(t) + " kind=ssd-offline",
                    "t must be <= 1e9");
    for (const char *arg : {"nan", "inf", "-inf"})
        expectError("t=10 kind=ram-shrink arg=" + std::string(arg),
                    "arg must be finite");
    for (const char *arg : {"1e300", "-1e300", "2e9"})
        expectError("t=10 kind=ram-shrink arg=" + std::string(arg),
                    "arg must be in [-1e9, 1e9]");

    // The bounds themselves parse.
    const auto plan = fault::FaultPlan::parseString(
        "t=1e9 kind=ssd-latency arg=1e9\nt=0 kind=ram-shrink arg=-1e9\n");
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.events[1].at, 1'000'000'000 * sim::SEC);
    EXPECT_EQ(plan.events[1].arg, 1e9);
    EXPECT_EQ(plan.events[0].arg, -1e9);
}

TEST(FaultPlanTest, MissingFileThrows)
{
    EXPECT_THROW(fault::FaultPlan::fromFile("/nonexistent/plan.txt"),
                 std::invalid_argument);
}

TEST(FaultPlanTest, RandomPlansAreSeedDeterministic)
{
    const auto a = fault::FaultPlan::random(7, 10 * sim::MINUTE);
    const auto b = fault::FaultPlan::random(7, 10 * sim::MINUTE);
    const auto c = fault::FaultPlan::random(8, 10 * sim::MINUTE);
    EXPECT_EQ(a.events, b.events);
    EXPECT_NE(a.events, c.events);
    EXPECT_GE(a.size(), 3u);
    for (const auto &event : a.events)
        EXPECT_LE(event.at, 10 * sim::MINUTE);
}

// --- determinism under faults --------------------------------------------

TEST(FaultInjectionTest, FaultedFleetIsBitIdenticalForAnyJobs)
{
    // The tentpole guarantee under injection: a pinned-seed fault plan
    // produces byte-equal per-host results serial vs --jobs 4.
    const auto plan = [](std::size_t) { return stressPlan(); };
    const auto serial = faultedDigest(8, 42, 1, plan);
    const auto parallel = faultedDigest(8, 42, 4, plan);
    EXPECT_EQ(serial, parallel);
}

TEST(FaultInjectionTest, ChaosPlansAreBitIdenticalForAnyJobs)
{
    const auto plan = [](std::size_t i) {
        return fault::FaultPlan::random(
            1000 + (i + 1) * 0x9e3779b97f4a7c15ull, 2 * sim::MINUTE);
    };
    const auto serial = faultedDigest(6, 7, 1, plan);
    const auto parallel = faultedDigest(6, 7, 4, plan);
    EXPECT_EQ(serial, parallel);
}

TEST(FaultInjectionTest, UnfaultedHostsMatchAFaultFreeRun)
{
    // One host's SSD goes offline; every OTHER host must produce
    // exactly the fault-free numbers (fault sampling draws from a
    // dedicated RNG stream, so healthy hosts are untouched).
    const std::size_t hosts = 4, victim = 2;
    const auto offline_plan = [&](std::size_t i) {
        fault::FaultPlan plan;
        if (i == victim)
            plan = fault::FaultPlan::parseString(
                "t=30 kind=ssd-offline\n");
        return plan;
    };
    const auto none = [](std::size_t) { return fault::FaultPlan{}; };
    const auto faulted = faultedDigest(hosts, 42, 2, offline_plan);
    const auto clean = faultedDigest(hosts, 42, 2, none);
    ASSERT_EQ(faulted.size(), clean.size());
    ASSERT_EQ(faulted.size() % hosts, 0u);
    bool victim_differs = false;
    for (std::size_t k = 0; k < faulted.size(); ++k) {
        if (k % hosts == victim) {
            victim_differs =
                victim_differs || faulted[k] != clean[k];
            continue;
        }
        EXPECT_EQ(faulted[k], clean[k]) << "metric slot " << k;
    }
    EXPECT_TRUE(victim_differs);
}

// --- graceful degradation ------------------------------------------------

TEST(FaultInjectionTest, OfflineSwapMarksBackendFailedAndDegrades)
{
    host::Fleet fleet = fleetSpec(1, 11).build();
    fleet.start();
    auto injector = fault::FaultInjector(
        fleet.host(0), fault::FaultPlan::parseString(
                           "t=20 kind=ssd-offline\n"));
    injector.arm();
    fleet.run(2 * sim::MINUTE);

    auto &machine = fleet.host(0);
    EXPECT_TRUE(machine.ssd().offline());
    EXPECT_EQ(machine.swap().status(),
              backend::BackendStatus::FAILED);
    EXPECT_EQ(fault::hostBackendStatus(machine),
              backend::BackendStatus::FAILED);
    EXPECT_EQ(injector.injected(), 1u);
    EXPECT_EQ(
        injector.injectedOf(fault::FaultKind::SSD_OFFLINE), 1u);
    EXPECT_FALSE(injector.statsRow().empty());
}

TEST(FaultInjectionTest, SwapExhaustionFallsBackToFileOnlyReclaim)
{
    // §4 swap-space exhaustion: with the partition shrunk below what
    // is already in use, memory.reclaim must stop touching anon pages
    // and keep working via the file LRU.
    host::Fleet fleet = fleetSpec(1, 5).build();
    fleet.start();
    fleet.run(sim::MINUTE);

    auto &machine = fleet.host(0);
    auto &cg = machine.apps().front()->cgroup();
    // Below one 4 KiB slot: not a single page can be swapped out.
    machine.swap().setCapacityBytes(1024);
    EXPECT_EQ(machine.swap().status(),
              backend::BackendStatus::FAILED);

    const auto outcome =
        machine.memory().reclaim(cg, 32ull << 20, fleet.now());
    EXPECT_EQ(outcome.anonPages, 0u);
    EXPECT_GT(outcome.filePages, 0u);
    EXPECT_GT(outcome.reclaimedBytes, 0u);
}

TEST(FaultInjectionTest, SenpaiBacksOffWhileBackendDegraded)
{
    host::Fleet fleet = fleetSpec(1, 9).build();
    fleet.start();
    fleet.run(30 * sim::SEC);

    auto &machine = fleet.host(0);
    machine.ssd().injectLatencyMultiplier(10.0);
    ASSERT_EQ(machine.swap().status(),
              backend::BackendStatus::DEGRADED);
    fleet.run(2 * sim::MINUTE);

    auto *composite =
        dynamic_cast<core::CompositeController *>(
            machine.controller());
    ASSERT_NE(composite, nullptr);
    auto *senpai =
        dynamic_cast<core::Senpai *>(&composite->part(0));
    ASSERT_NE(senpai, nullptr);
    EXPECT_EQ(senpai->backendStatus(),
              backend::BackendStatus::DEGRADED);
    EXPECT_GT(senpai->degradedTicks(), 0u);
}

TEST(FaultInjectionTest, TmoDaemonSeesWorstBackendStatus)
{
    host::Fleet fleet = fleetSpec(1, 13)
                            .controller("tmo")
                            .build();
    fleet.start();
    fleet.run(30 * sim::SEC);

    auto &machine = fleet.host(0);
    auto *daemon =
        dynamic_cast<core::TmoDaemon *>(machine.controller());
    ASSERT_NE(daemon, nullptr);
    EXPECT_EQ(daemon->worstBackendStatus(),
              backend::BackendStatus::HEALTHY);
    EXPECT_EQ(daemon->escalations(), 0u);

    machine.ssd().setOffline(true);
    EXPECT_EQ(daemon->worstBackendStatus(),
              backend::BackendStatus::FAILED);
    fleet.run(2 * sim::MINUTE); // health tick arms the oomd watcher
    EXPECT_TRUE(daemon->running());
}

// --- fleet failure isolation ---------------------------------------------

TEST(FaultInjectionTest, FleetSurvivesAThrowingHost)
{
    host::Fleet fleet = fleetSpec(4, 21).build();
    fleet.start();
    // Sabotage host 1's event loop directly: whatever throws inside a
    // shard must be contained to that shard.
    fleet.simulationOf(1).after(45 * sim::SEC, [] {
        throw std::runtime_error("injected host meltdown");
    });
    fleet.run(2 * sim::MINUTE, 2);

    EXPECT_EQ(fleet.failedCount(), 1u);
    EXPECT_TRUE(fleet.hostFailed(1));
    EXPECT_EQ(fleet.hostError(1), "injected host meltdown");
    EXPECT_EQ(fleet.now(), 2 * sim::MINUTE);
    for (const std::size_t i : {0u, 2u, 3u}) {
        EXPECT_FALSE(fleet.hostFailed(i)) << i;
        EXPECT_TRUE(fleet.hostError(i).empty()) << i;
        EXPECT_EQ(fleet.simulationOf(i).now(), 2 * sim::MINUTE) << i;
        EXPECT_GT(
            fleet.host(i).apps().front()->lastTick().completedRps,
            0.0)
            << i;
    }
}

// --- PSI invariants stay armed under NDEBUG ------------------------------

TEST(PsiInvariantTest, ClearingAnUnsetTaskStateThrows)
{
    psi::PsiGroup group;
    group.taskChange(0, psi::TSK_ONCPU, 0);
    group.taskChange(psi::TSK_ONCPU, 0, sim::SEC); // fine
    EXPECT_THROW(group.taskChange(psi::TSK_MEMSTALL, 0, 2 * sim::SEC),
                 std::logic_error);
}

TEST(PsiInvariantTest, RejectedChangeLeavesCountsUnchanged)
{
    // A refused change must not half-apply. Clearing on-CPU with a
    // memory stall no task holds used to drop the on-CPU count before
    // it threw, so the task's own later clear threw too.
    const auto message = [](const std::function<void()> &change) {
        try {
            change();
        } catch (const std::logic_error &error) {
            return std::string(error.what());
        }
        return std::string("no error");
    };
    psi::PsiGroup group;
    group.taskChange(0, psi::TSK_ONCPU, 0);
    EXPECT_EQ(message([&] {
                  group.taskChange(psi::TSK_ONCPU | psi::TSK_MEMSTALL, 0,
                                   sim::SEC);
              }),
              "psi: clearing task state bit 4 with zero tasks in that "
              "state");
    EXPECT_EQ(message([&] { group.taskChange(0, 1u << 5, sim::SEC); }),
              "psi: invalid task state bit 32");
    EXPECT_EQ(group.taskCount(psi::TSK_ONCPU), 1u);
    EXPECT_EQ(group.taskCount(psi::TSK_MEMSTALL), 0u);
    group.taskChange(psi::TSK_ONCPU, 0, 2 * sim::SEC);
    EXPECT_EQ(group.taskCount(psi::TSK_ONCPU), 0u);
    EXPECT_EQ(group.nonIdleTime(), 2 * sim::SEC);

    // A count that would pass MAX_TASKS is refused the same way.
    for (unsigned i = 0; i < psi::PsiGroup::MAX_TASKS; ++i)
        group.taskChange(0, psi::TSK_IOWAIT, 3 * sim::SEC);
    EXPECT_EQ(message([&] {
                  group.taskChange(0, psi::TSK_ONCPU | psi::TSK_IOWAIT,
                                   3 * sim::SEC);
              }),
              "psi: more than 32767 tasks in task state bit 8");
    EXPECT_EQ(group.taskCount(psi::TSK_IOWAIT), psi::PsiGroup::MAX_TASKS);
    EXPECT_EQ(group.taskCount(psi::TSK_ONCPU), 0u);
    group.taskChange(psi::TSK_IOWAIT, psi::TSK_ONCPU, 4 * sim::SEC);
    EXPECT_EQ(group.taskCount(psi::TSK_IOWAIT),
              psi::PsiGroup::MAX_TASKS - 1);
    EXPECT_EQ(group.taskCount(psi::TSK_ONCPU), 1u);
}

TEST(PsiInvariantTest, InvalidTaskStateBitThrows)
{
    psi::PsiGroup group;
    EXPECT_THROW(group.taskCount(static_cast<psi::TaskState>(1u << 7)),
                 std::logic_error);
}

// --- BackendStatus semantics ---------------------------------------------

TEST(BackendStatusTest, WorseStatusOrdersHealthyDegradedFailed)
{
    using backend::BackendStatus;
    using backend::worseStatus;
    EXPECT_EQ(worseStatus(BackendStatus::HEALTHY,
                          BackendStatus::DEGRADED),
              BackendStatus::DEGRADED);
    EXPECT_EQ(worseStatus(BackendStatus::FAILED,
                          BackendStatus::DEGRADED),
              BackendStatus::FAILED);
    EXPECT_EQ(worseStatus(BackendStatus::HEALTHY,
                          BackendStatus::HEALTHY),
              BackendStatus::HEALTHY);
    EXPECT_STREQ(backend::backendStatusName(BackendStatus::DEGRADED),
                 "degraded");
}

TEST(BackendStatusTest, ZswapReportsDegradedUnderStallOrCap)
{
    backend::ZswapPool pool;
    EXPECT_EQ(pool.status(), backend::BackendStatus::HEALTHY);
    pool.setStallUs(500.0);
    EXPECT_EQ(pool.status(), backend::BackendStatus::DEGRADED);
    pool.setStallUs(0.0);
    EXPECT_EQ(pool.status(), backend::BackendStatus::HEALTHY);
}
