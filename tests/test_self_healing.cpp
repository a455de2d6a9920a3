/**
 * @file
 * The self-healing contract:
 *
 *  - a RestartPolicy rebuilds a crashed host from its builder recipe
 *    at an epoch boundary, resumed on the fleet clock, and recovery
 *    is bit-identical for any --jobs;
 *  - the rebuilt host takes the events of its fault plan after the
 *    rebuild, and its fault count, metric series and trace go on
 *    from its earlier lives;
 *  - the restart budget is finite: a host that keeps crashing ends up
 *    permanently failed, and with restarts disabled (the default) a
 *    failed host stays quarantined — the pre-self-healing behaviour;
 *  - Fleet::collect() excludes frozen (failed) hosts from fleet
 *    percentiles;
 *  - the controller watchdog rebuilds a crashed controller from the
 *    host's factory, and its metric probes live exactly as long as
 *    the object; a stalled controller resumes the same object;
 *  - tier evacuation drains an offline tier to the survivors within
 *    the maintenance budget, pages nobody can save are parked in
 *    Where::LOST, and touching one is a hard major fault;
 *  - a tier marked offline still serves loads (the device is
 *    reachable; only chain placement excludes it) — pinned behaviour;
 *  - retry budgets: transient SSD write errors are retried with
 *    backoff before a store is rejected, and zswap stalls are capped
 *    by the retry op-timeout;
 *  - the invariant auditor is silent on healthy hosts and loud on
 *    planted corruption.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fault/invariant_auditor.hpp"
#include "host/fault_plan.hpp"
#include "host/fleet.hpp"
#include "mem/memory_manager.hpp"
#include "mem/page.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "stats/timeseries.hpp"
#include "tier/tier_chain.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace
{

constexpr std::uint32_t PAGE = 64 * 1024;

host::HostConfig
hostConfig()
{
    host::HostConfig config;
    config.mem.ramBytes = 1ull << 30;
    config.mem.pageBytes = PAGE;
    return config;
}

host::FleetSpec
fleetSpec(std::size_t hosts, std::uint64_t seed)
{
    return host::FleetSpec{}
        .hosts(hosts)
        .epoch(30 * sim::SEC)
        .name_prefix("heal")
        .ram_mb(256)
        .page_kb(64)
        .seed(seed)
        .tiers("ssd")
        .workload("feed", 192)
        .controller("senpai");
}

host::RestartPolicy
restartPolicy(unsigned attempts, sim::SimTime backoff = 30 * sim::SEC)
{
    host::RestartPolicy policy;
    policy.maxAttempts = attempts;
    policy.backoff = backoff;
    return policy;
}

/** A customize() hook giving host i the plan @p texts[i] (hosts past
 *  the end get none). */
std::function<void(std::size_t, host::HostBuilder &)>
plans(const std::vector<std::string> &texts)
{
    return [texts](std::size_t i, host::HostBuilder &builder) {
        if (i < texts.size())
            builder.faults(host::FaultPlan::parseString(texts[i]));
    };
}

/** A plan from its spec text. */
host::FaultPlan
plan(const std::string &text)
{
    return host::FaultPlan::parseString(text);
}

/** Stamp @p heat onto every page at the current decay epoch. */
void
setAllHeat(host::Host &machine, std::uint8_t heat)
{
    const auto epoch = mem::heatEpochAt(machine.simulation().now());
    for (auto &page : machine.memory().pages()) {
        page.heat = heat;
        page.heatEpoch = epoch;
    }
}

} // namespace

// --- host restart & reintegration ----------------------------------------

TEST(HostRestartTest, CrashedHostIsRebuiltAndRejoinsTheFleet)
{
    host::Fleet fleet = fleetSpec(2, 7)
                            .restart(restartPolicy(2))
                            .customize(plans({"t=60 kind=host-crash\n"}))
                            .build();
    fleet.start();

    fleet.run(5 * sim::MINUTE);

    EXPECT_EQ(fleet.failedCount(), 0u);
    EXPECT_EQ(fleet.restartedCount(), 1u);
    EXPECT_EQ(fleet.permanentlyFailedCount(), 0u);
    EXPECT_TRUE(fleet.hostError(0).empty());
    // The rebuilt host runs on the fleet clock, not a fresh zero.
    EXPECT_EQ(fleet.simulationOf(0).now(), fleet.now());
    // ...and actually makes progress after reintegration.
    EXPECT_GT(fleet.host(0).apps().front()->lastTick().completedRps,
              0.0);
}

TEST(HostRestartTest, DisabledPolicyKeepsQuarantineSemantics)
{
    host::Fleet fleet = fleetSpec(2, 7)
                            .customize(plans({"t=60 kind=host-crash\n"}))
                            .build();
    fleet.start();

    fleet.run(3 * sim::MINUTE);

    EXPECT_EQ(fleet.failedCount(), 1u);
    EXPECT_EQ(fleet.restartedCount(), 0u);
    EXPECT_EQ(fleet.permanentlyFailedCount(), 1u);
    EXPECT_EQ(fleet.hostError(0), "host-crash fault injected");
}

TEST(HostRestartTest, RepeatCrashesExhaustTheBudget)
{
    // Every life of host 0 crashes again 10 s after its rebuild: the
    // first crash is seen at the 60 s barrier and rebuilt after 30 s
    // (at 90 s), the second at 120 s and rebuilt after 60 s (at
    // 180 s), and the third finds the budget spent.
    host::Fleet fleet = fleetSpec(2, 9)
                            .restart(restartPolicy(2))
                            .customize(plans({"t=60 kind=host-crash\n"
                                              "t=100 kind=host-crash\n"
                                              "t=190 kind=host-crash\n"}))
                            .build();
    fleet.start();

    fleet.run(20 * sim::MINUTE);

    EXPECT_EQ(fleet.restartedCount(), 2u);
    EXPECT_EQ(fleet.failedCount(), 1u);
    EXPECT_EQ(fleet.permanentlyFailedCount(), 1u);
}

TEST(HostRestartTest, RecoveryIsBitIdenticalAcrossJobs)
{
    const auto digest = [](unsigned jobs) {
        host::Fleet fleet =
            fleetSpec(4, 11)
                .restart(restartPolicy(3))
                .customize(plans({"t=45 kind=host-crash\n"
                                  "t=200 kind=ssd-write-error arg=0.4\n"
                                  "t=260 kind=ssd-online\n",
                                  "", "t=90 kind=host-crash\n"}))
                .build();
        fleet.enableInvariantAudit(fault::auditHost);
        fleet.start();

        fleet.run(6 * sim::MINUTE, jobs);
        EXPECT_TRUE(fleet.auditViolations().empty());

        std::vector<double> values;
        values.push_back(static_cast<double>(fleet.restartedCount()));
        values.push_back(static_cast<double>(fleet.failedCount()));
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            auto &cg = fleet.host(i).apps().front()->cgroup();
            values.push_back(static_cast<double>(cg.memCurrent()));
            values.push_back(static_cast<double>(cg.stats().pswpin));
            values.push_back(static_cast<double>(
                fleet.host(i).ssd().bytesWritten()));
        }
        return values;
    };

    EXPECT_EQ(digest(1), digest(4));
}

TEST(HostRestartTest, RebuiltHostContinuesItsMetricSeries)
{
    host::Fleet fleet = fleetSpec(2, 7)
                            .restart(restartPolicy(2))
                            .customize(plans({"t=75 kind=host-crash\n"}))
                            .build();
    fleet.enableMetrics(30 * sim::SEC);
    fleet.start();

    fleet.run(6 * sim::MINUTE);
    ASSERT_EQ(fleet.restartedCount(), 1u);

    // One series per metric, from the first incarnation's first
    // sample on. The rebuilt host samples only once its clock has
    // caught up with the fleet's, so no sample shows an empty host
    // and the time between crash and rebuild has none.
    const obs::MetricSampler *sampler = fleet.host(0).sampler();
    ASSERT_NE(sampler, nullptr);
    const std::string mem_current =
        "app." + fleet.host(0).apps().front()->cgroup().name() +
        ".mem_current";
    for (const std::string &name :
         {std::string("sim.events_dispatched"), mem_current}) {
        SCOPED_TRACE(name);
        const stats::TimeSeries *series = sampler->find(name);
        ASSERT_NE(series, nullptr);
        const auto &samples = series->samples();
        ASSERT_FALSE(samples.empty());
        // Sampled every 30 s, up to the crash at 75 s.
        EXPECT_EQ(samples[0].time, 30 * sim::SEC);
        EXPECT_EQ(samples[1].time, 60 * sim::SEC);
        std::size_t after_crash = 0;
        for (std::size_t i = 0; i < samples.size(); ++i) {
            EXPECT_GT(samples[i].value, 0.0) << "at " << samples[i].time;
            if (i > 0) {
                EXPECT_GT(samples[i].time, samples[i - 1].time);
            }
            if (samples[i].time > 75 * sim::SEC) {
                ++after_crash;
                // The host failed at the 90 s barrier and was rebuilt
                // one 30 s backoff later.
                EXPECT_GT(samples[i].time, 120 * sim::SEC);
            }
        }
        // 150 s, 180 s, ..., 360 s.
        EXPECT_EQ(after_crash, 8u);
    }
}

TEST(HostRestartTest, RebuiltHostResumesTheRestOfItsPlan)
{
    // The crash at 45 s is seen at the 60 s barrier and the host is
    // rebuilt one 30 s backoff later, at 90 s. The SSD slowdown at
    // 70 s falls while the host is down and never fires; the recovery
    // at 200 s fires once, on the rebuilt host. One count spans both
    // lives.
    host::Fleet fleet = fleetSpec(1, 7)
                            .restart(restartPolicy(2))
                            .faults(plan("t=45 kind=host-crash\n"
                                         "t=70 kind=ssd-latency arg=8\n"
                                         "t=200 kind=ssd-online\n"))
                            .build();
    fleet.start();

    fleet.run(5 * sim::MINUTE);
    ASSERT_EQ(fleet.restartedCount(), 1u);

    const host::FaultInjector *injector = fleet.injector(0);
    ASSERT_NE(injector, nullptr);
    EXPECT_EQ(injector->injectedOf(host::FaultKind::HOST_CRASH), 1u);
    EXPECT_EQ(injector->injectedOf(host::FaultKind::SSD_LATENCY), 0u);
    EXPECT_EQ(injector->injectedOf(host::FaultKind::SSD_ONLINE), 1u);
    EXPECT_EQ(injector->injected(), 2u);
    EXPECT_EQ(injector->statsRow().front(),
              std::make_pair(std::string("faults injected"),
                             std::string("2")));
}

TEST(HostRestartTest, RebuiltHostContinuesItsTrace)
{
    // One ring spans both lives of host 0: the events of its first
    // life up to the crash record at 75 s, then the rebuilt host's
    // from 120 s on (failed at the 90 s barrier, one 30 s backoff),
    // in time order.
    host::Fleet fleet = fleetSpec(2, 7)
                            .restart(restartPolicy(2))
                            .customize(plans({"t=75 kind=host-crash\n"}))
                            .build();
    fleet.enableTracing(8 << 20);
    fleet.start();

    fleet.run(4 * sim::MINUTE);
    ASSERT_EQ(fleet.restartedCount(), 1u);
    ASSERT_EQ(fleet.host(0).trace()->dropped(), 0u);

    std::ostringstream out;
    obs::writeTraceJsonl(out, fleet.traces());
    std::istringstream in(out.str());
    const auto hosts = obs::readTraceJsonl(in);
    ASSERT_EQ(hosts.size(), 2u);
    ASSERT_EQ(hosts[0].host, "heal0");
    const auto &events = hosts[0].events;
    ASSERT_FALSE(events.empty());
    EXPECT_LT(events.front().time, 75 * sim::SEC);
    std::size_t crash = events.size();
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, i);
        if (i > 0) {
            EXPECT_GE(events[i].time, events[i - 1].time) << "event " << i;
        }
        if (events[i].type == obs::TraceEventType::FAULT_INJECT &&
            events[i].code ==
                static_cast<std::uint8_t>(host::FaultKind::HOST_CRASH))
            crash = i;
    }
    ASSERT_LT(crash + 1, events.size());
    EXPECT_EQ(events[crash].time, 75 * sim::SEC);
    EXPECT_GE(events[crash + 1].time, 120 * sim::SEC);
}

TEST(FleetCollectTest, FrozenHostsStayOutOfFleetPercentiles)
{
    host::Fleet fleet =
        fleetSpec(3, 5).customize(plans({"", "t=60 kind=host-crash\n"}))
            .build();
    fleet.start();

    fleet.run(3 * sim::MINUTE);

    ASSERT_EQ(fleet.failedCount(), 1u);
    // The frozen host must not contribute a stale sample.
    const auto values =
        fleet.collect([](host::Host &) { return 1.0; });
    EXPECT_EQ(values.size(), 2u);
}

// --- controller watchdog --------------------------------------------------

TEST(ControllerWatchdogTest, CrashIsRebuiltFromTheFactory)
{
    host::Fleet fleet =
        fleetSpec(1, 3).faults(plan("t=60 kind=controller-crash arg=20\n"))
            .build();
    fleet.start();

    fleet.run(3 * sim::MINUTE);

    EXPECT_EQ(fleet.host(0).controllerRestarts(), 1u);
    ASSERT_NE(fleet.host(0).controller(), nullptr);
    EXPECT_TRUE(fleet.host(0).controller()->running());
}

TEST(ControllerWatchdogTest, CrashedControllerIsNotSampled)
{
    // The crashed controller's probes leave the registry with it (a
    // sample would read the destroyed object) and come back with the
    // rebuild, which the 1 s watchdog makes at 300 s + 20 s. The
    // crash, scheduled when the plan was armed, runs before the
    // sample due at 300 s.
    host::Fleet fleet =
        fleetSpec(1, 3).faults(plan("t=300 kind=controller-crash arg=20\n"))
            .build();
    fleet.enableMetrics(6 * sim::SEC);
    fleet.start();
    fleet.run(6 * sim::MINUTE);

    host::Host &machine = fleet.host(0);
    ASSERT_EQ(machine.controllerRestarts(), 1u);
    const stats::TimeSeries *pressure =
        machine.sampler()->find("senpai.feed.pressure");
    ASSERT_NE(pressure, nullptr);
    std::size_t in_gap = 0, after = 0;
    const auto in_outage = [](sim::SimTime t) {
        return t >= 300 * sim::SEC && t < 320 * sim::SEC;
    };
    for (const auto &sample : pressure->samples()) {
        in_gap += in_outage(sample.time);
        after += sample.time > 320 * sim::SEC;
    }
    EXPECT_EQ(in_gap, 0u);
    EXPECT_EQ(after, 7u); // 324 s to 360 s

    // The CSV joins on time: one row per sample time, and the gap's
    // cells stay empty rather than shifting the series.
    std::set<sim::SimTime> times;
    for (const stats::TimeSeries *series : machine.sampler()->series())
        for (const auto &sample : series->samples())
            times.insert(sample.time);
    const auto cells = [](const std::string &line) {
        std::vector<std::string> out(1);
        for (const char c : line)
            if (c == ',')
                out.emplace_back();
            else
                out.back() += c;
        return out;
    };
    std::ostringstream csv;
    obs::writeMetricsCsv(csv, machine.sampler()->series());
    std::istringstream lines(csv.str());
    std::string line;
    std::getline(lines, line);
    const auto header = cells(line);
    const auto column = static_cast<std::size_t>(
        std::find(header.begin(), header.end(), "senpai.feed.pressure") -
        header.begin());
    ASSERT_LT(column, header.size());
    auto time = times.begin();
    std::size_t rows = 0;
    for (; std::getline(lines, line); ++rows) {
        const auto row = cells(line);
        ASSERT_EQ(row.size(), header.size());
        ASSERT_NE(time, times.end());
        const sim::SimTime t = *time++;
        EXPECT_DOUBLE_EQ(std::stod(row[0]), sim::toSeconds(t));
        EXPECT_EQ(row[column].empty(), in_outage(t))
            << "at " << row[0] << " s";
    }
    EXPECT_EQ(rows, times.size());
}

TEST(ControllerWatchdogTest, StallResumesTheSameObjectWithoutRebuild)
{
    host::Fleet fleet =
        fleetSpec(1, 3).faults(plan("t=60 kind=controller-stall arg=20\n"))
            .build();
    fleet.start();
    core::Controller *before = fleet.host(0).controller();

    fleet.run(3 * sim::MINUTE);

    EXPECT_EQ(fleet.host(0).controllerRestarts(), 0u);
    EXPECT_EQ(fleet.host(0).controller(), before);
    EXPECT_TRUE(fleet.host(0).controller()->running());
}

// --- tier evacuation ------------------------------------------------------

namespace
{

/** A host with pages spread across a zswap+ssd chain. */
struct ChainRig {
    sim::Simulation simulation;
    host::Host machine;
    workload::AppModel *app = nullptr;
    tier::TierChain *chain = nullptr;

    ChainRig() : machine(simulation, hostConfig())
    {
        auto profile = workload::appPreset("feed", 512ull << 20);
        app = &machine.addApp(
            profile, tier::TierChainSpec::parse("zswap+ssd"));
        machine.start();
        app->start();
        simulation.runUntil(5 * sim::SEC);
        chain = machine.chains().front();
    }

    /** Push cold pages into the SSD tier (tier 1). */
    void
    offloadCold(std::uint64_t bytes)
    {
        setAllHeat(machine, 0);
        machine.memory().reclaim(app->cgroup(), bytes,
                                 simulation.now());
    }
};

} // namespace

TEST(TierEvacuationTest, OfflineTierDrainsToSurvivors)
{
    ChainRig rig;
    rig.offloadCold(220ull << 20);
    ASSERT_GT(rig.machine.swap().usedBytes(), 0u);
    const auto zswap_before = rig.machine.zswap().usedBytes();

    rig.chain->setTierOffline(1, true, rig.simulation.now());

    // Budgeted drain: each maintenance pass moves at most
    // tier::MOVE_BUDGET_BYTES, so the drain takes multiple ticks.
    auto t = rig.simulation.now();
    std::uint64_t passes = 0;
    mem::TierMaintainOutcome first{};
    while (rig.machine.swap().usedBytes() > 0 && passes < 300) {
        const auto outcome =
            rig.machine.memory().tierMaintain(rig.app->cgroup(), t);
        if (passes == 0)
            first = outcome;
        t += 6 * sim::SEC;
        ++passes;
    }

    EXPECT_EQ(rig.machine.swap().usedBytes(), 0u);
    EXPECT_GT(passes, 1u) << "drain must be budgeted, not instant";
    EXPECT_GT(first.evacuatedPages, 0u);
    EXPECT_LE(first.movedBytes, tier::MOVE_BUDGET_BYTES);
    EXPECT_GT(rig.machine.zswap().usedBytes(), zswap_before);
    EXPECT_GT(rig.app->cgroup().stats().tierEvacuate, 0u);
    EXPECT_EQ(rig.app->cgroup().stats().tierLost, 0u);
    EXPECT_TRUE(fault::auditHost(rig.machine).empty());
}

TEST(TierEvacuationTest, UnsavablePagesAreLostAndRefaultHard)
{
    ChainRig rig;
    rig.offloadCold(200ull << 20);
    ASSERT_GT(rig.machine.swap().usedBytes(), 0u);

    // Both tiers die: evacuation has no survivor to drain to.
    const auto now = rig.simulation.now();
    rig.chain->setTierOffline(0, true, now);
    rig.chain->setTierOffline(1, true, now);

    auto t = now;
    std::uint64_t passes = 0;
    auto &mm = rig.machine.memory();
    auto &cg = rig.app->cgroup();
    while (mm.memcgOf(cg).swapBytes > 0 && passes < 300) {
        mm.tierMaintain(cg, t);
        t += 6 * sim::SEC;
        ++passes;
    }

    const auto &mcg = mm.memcgOf(cg);
    EXPECT_GT(mcg.lostPages, 0u);
    EXPECT_GT(cg.stats().tierLost, 0u);
    EXPECT_TRUE(fault::auditHost(rig.machine).empty());

    // Touching a lost page is a hard major fault: the page comes back
    // (zero-filled) with a large memory stall, not silent corruption.
    mem::PageIdx lost = mem::NO_PAGE;
    const auto &pages = mm.pages();
    for (mem::PageIdx i = 0; i < pages.size(); ++i)
        if (pages[i].where == mem::Where::LOST) {
            lost = i;
            break;
        }
    ASSERT_NE(lost, mem::NO_PAGE);
    const auto lost_before = mcg.lostPages;
    const auto result = mm.access(lost, t);
    EXPECT_TRUE(result.faulted);
    EXPECT_GE(result.memStall, sim::fromUsec(50'000.0));
    EXPECT_EQ(pages[lost].where, mem::Where::RAM);
    EXPECT_EQ(mcg.lostPages, lost_before - 1);
    EXPECT_EQ(cg.stats().lostRefault, 1u);
    EXPECT_TRUE(fault::auditHost(rig.machine).empty());
}

TEST(TierEvacuationTest, OfflineTierStillServesLoads)
{
    ChainRig rig;
    rig.offloadCold(200ull << 20);
    ASSERT_GT(rig.machine.swap().usedBytes(), 0u);

    // Offline with no maintenance pass yet: the evacuation drain has
    // not started, so pages stay put. The chain only excludes the
    // tier from placement — the device is still reachable, so faults
    // load from it normally (pinned behaviour; a truly dead device is
    // SSD_OFFLINE).
    rig.chain->setTierOffline(1, true, rig.simulation.now());

    auto &mm = rig.machine.memory();
    const auto &pages = mm.pages();
    mem::PageIdx swapped = mem::NO_PAGE;
    for (mem::PageIdx i = 0; i < pages.size(); ++i)
        if (pages[i].where == mem::Where::SWAP) {
            swapped = i;
            break;
        }
    ASSERT_NE(swapped, mem::NO_PAGE);

    const auto before = rig.app->cgroup().stats().pswpin;
    const auto result = mm.access(swapped, rig.simulation.now());
    EXPECT_TRUE(result.faulted);
    EXPECT_GT(result.ioStall, 0u);
    EXPECT_EQ(pages[swapped].where, mem::Where::RAM);
    EXPECT_EQ(rig.app->cgroup().stats().pswpin, before + 1);
}

TEST(TierEvacuationTest, MidChainOfflineFaultPlanKeepsServingLoads)
{
    // The injector path of the same pin: tier 0 of a three-tier chain
    // goes offline mid-run; faults on its pages keep resolving and
    // the run survives with clean accounting.
    auto fleet = host::FleetSpec{}
                     .hosts(1)
                     .epoch(30 * sim::SEC)
                     .ram_mb(256)
                     .page_kb(64)
                     .seed(13)
                     .tiers("zswap:8mb+zswap+ssd")
                     .workload("feed", 192)
                     .controller("senpai")
                     .faults(plan("t=60 kind=tier-offline arg=0\n"))
                     .build();
    fleet.enableInvariantAudit(fault::auditHost);
    fleet.start();

    fleet.run(4 * sim::MINUTE);

    EXPECT_EQ(fleet.failedCount(), 0u);
    EXPECT_TRUE(fleet.auditViolations().empty());
    EXPECT_GT(fleet.host(0).apps().front()->cgroup().stats().pswpin +
                  fleet.host(0).apps().front()->cgroup().stats().zswpin,
              0u);
}

TEST(TierEvacuationTest, ReadmissionRampsStoresAfterRecovery)
{
    ChainRig rig;
    const auto now = rig.simulation.now();
    rig.chain->setTierOffline(1, true, now);
    rig.chain->setTierOffline(1, false, now);

    // Right after recovery only a fraction of stores is admitted;
    // past the window the tier takes full load again.
    std::uint64_t admitted_early = 0;
    for (int i = 0; i < 100; ++i)
        admitted_early +=
            rig.chain->storeFrom(1, PAGE, 1.0, now + i).result.accepted
                ? 1
                : 0;
    EXPECT_GT(admitted_early, 0u);
    EXPECT_LT(admitted_early, 100u);

    const auto later = now + tier::READMIT_WINDOW + sim::SEC;
    std::uint64_t admitted_late = 0;
    for (int i = 0; i < 100; ++i)
        admitted_late +=
            rig.chain->storeFrom(1, PAGE, 1.0, later + i).result.accepted
                ? 1
                : 0;
    EXPECT_EQ(admitted_late, 100u);
}

// --- retry budgets --------------------------------------------------------

TEST(RetryBudgetTest, SwapStoreRetriesTransientWriteErrors)
{
    sim::Simulation simulation;
    backend::SsdDevice dev(backend::ssdSpecForClass('C'), 21);
    backend::SwapBackend swap(dev, 64 << 20);

    // Every write fails: the store burns the whole retry budget and
    // is then rejected.
    dev.setWriteErrorRate(1.0);
    const auto rejected = swap.store(PAGE, 1.0, sim::SEC);
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(swap.retries(), backend::RETRY_POLICY.attempts - 1);
    EXPECT_EQ(swap.storeErrors(), backend::RETRY_POLICY.attempts);

    // No faults: the retry layer must not even draw RNG, and stores
    // succeed with zero retries.
    dev.setWriteErrorRate(0.0);
    const auto before = swap.retries();
    const auto accepted = swap.store(PAGE, 1.0, 2 * sim::SEC);
    EXPECT_TRUE(accepted.accepted);
    EXPECT_EQ(swap.retries(), before);
}

TEST(RetryBudgetTest, SwapRetryBackoffAddsLatency)
{
    sim::Simulation simulation;
    backend::SsdDevice flaky_dev(backend::ssdSpecForClass('C'), 22);
    backend::SwapBackend flaky(flaky_dev, 64 << 20);
    backend::SsdDevice clean_dev(backend::ssdSpecForClass('C'), 22);
    backend::SwapBackend clean(clean_dev, 64 << 20);

    // Fail roughly half the writes: accepted stores that needed a
    // retry must carry the backoff in their latency.
    flaky_dev.setWriteErrorRate(0.5);
    sim::SimTime flaky_total = 0, clean_total = 0;
    for (int i = 0; i < 200; ++i) {
        const auto now = static_cast<sim::SimTime>(i) * sim::SEC;
        const auto result = flaky.store(PAGE, 1.0, now);
        if (result.accepted)
            flaky_total += result.latency;
        clean_total += clean.store(PAGE, 1.0, now).latency;
    }
    EXPECT_GT(flaky.retries(), 0u);
    EXPECT_GT(flaky_total / std::max<std::uint64_t>(1, 200),
              clean_total / 200);
}

TEST(RetryBudgetTest, ZswapStallIsCappedByTheOpTimeout)
{
    backend::ZswapPool pool({}, 23);

    // An unbounded allocator stall is clamped to attempts * opTimeout
    // (the store is abandoned and retried, not waited out).
    pool.setStallUs(50'000.0);
    const auto capped = pool.store(PAGE, 2.0, sim::SEC);
    ASSERT_TRUE(capped.accepted);
    EXPECT_GT(pool.retries(), 0u);

    backend::ZswapPool exact(backend::ZswapConfig{}, 23);
    exact.setStallUs(
        static_cast<double>(backend::RETRY_POLICY.attempts) *
        sim::toUsec(backend::RETRY_POLICY.opTimeout));
    const auto reference = exact.store(PAGE, 2.0, sim::SEC);
    ASSERT_TRUE(reference.accepted);
    EXPECT_EQ(capped.latency, reference.latency);

    // A stall below one op-timeout is taken as-is, no retries.
    backend::ZswapPool mild(backend::ZswapConfig{}, 23);
    mild.setStallUs(200.0);
    mild.store(PAGE, 2.0, sim::SEC);
    EXPECT_EQ(mild.retries(), 0u);
}

// --- invariant auditor ----------------------------------------------------

TEST(InvariantAuditorTest, HealthyHostAuditsClean)
{
    ChainRig rig;
    rig.offloadCold(200ull << 20);
    rig.simulation.runUntil(rig.simulation.now() + sim::MINUTE);
    EXPECT_TRUE(fault::auditHost(rig.machine).empty());
}

TEST(InvariantAuditorTest, PlantedCorruptionIsReported)
{
    ChainRig rig;
    rig.offloadCold(200ull << 20);
    auto &mm = rig.machine.memory();

    // Teleport a resident page to LOST without any accounting: the
    // auditor must notice on several axes (LRU size, lost counter,
    // conservation).
    auto &pages = mm.pages();
    mem::PageIdx victim = mem::NO_PAGE;
    for (mem::PageIdx i = 0; i < pages.size(); ++i)
        if (pages[i].where == mem::Where::RAM) {
            victim = i;
            break;
        }
    ASSERT_NE(victim, mem::NO_PAGE);
    const auto saved = pages[victim].where;
    pages[victim].where = mem::Where::LOST;
    EXPECT_FALSE(fault::auditHost(rig.machine).empty());
    pages[victim].where = saved;
    EXPECT_TRUE(fault::auditHost(rig.machine).empty());

    // A drifted byte counter is caught too.
    auto &mcg = mm.memcgOf(rig.app->cgroup());
    mcg.zswapBytes += 1;
    EXPECT_FALSE(fault::auditHost(rig.machine).empty());
    mcg.zswapBytes -= 1;
    EXPECT_TRUE(fault::auditHost(rig.machine).empty());
}

TEST(InvariantAuditorTest, LoopingTierListYieldsFewNamedViolations)
{
    ChainRig rig;
    rig.offloadCold(200ull << 20);
    ASSERT_TRUE(fault::auditHost(rig.machine).empty());
    auto &pages = rig.machine.memory().pages();
    const mem::LruList &ssd_list =
        rig.machine.memory().memcgOf(rig.app->cgroup()).tierLists[1];
    ASSERT_GT(ssd_list.size(), 100u);

    // Point the SSD tier list's third page back at its second: the
    // list loops after three pages while its length counter still
    // counts them all. A walk that trusted the counter would go round
    // the loop once per counted page (and forever once the counter
    // wrapped below zero), with a violation at every step.
    const mem::PageIdx second = pages[ssd_list.head()].next;
    const mem::PageIdx third = pages[second].next;
    const mem::PageIdx fourth = pages[third].next;
    pages[third].next = second;
    // The loop, and the list's length, bytes and flagged pages that
    // the shortened walk no longer matches.
    const auto violations = fault::auditHost(rig.machine);
    EXPECT_EQ(violations.size(), 4u)
        << ::testing::PrintToString(violations);
    const auto reported = [&](const std::string &text) {
        return std::any_of(violations.begin(), violations.end(),
                           [&](const std::string &v) {
                               return v.find(text) != std::string::npos;
                           });
    };
    EXPECT_TRUE(reported("tier list 1 loops back to page " +
                         std::to_string(second)))
        << ::testing::PrintToString(violations);
    EXPECT_TRUE(reported("tier-list length counter " +
                         std::to_string(ssd_list.size()) + " != 3"))
        << ::testing::PrintToString(violations);

    pages[third].next = fourth;
    EXPECT_TRUE(fault::auditHost(rig.machine).empty());
}

TEST(InvariantAuditorTest, OffloadKindMatchesItsStore)
{
    ChainRig rig;
    rig.offloadCold(200ull << 20);
    // Hot pages enter the chain's zswap tier (tier 0).
    setAllHeat(rig.machine, 7);
    rig.machine.memory().reclaim(rig.app->cgroup(), 150ull << 20,
                                 rig.simulation.now());
    ASSERT_TRUE(fault::auditHost(rig.machine).empty());
    auto &mm = rig.machine.memory();
    auto &pages = mm.pages();
    mem::PageIdx zswapped = mem::NO_PAGE;
    for (mem::PageIdx i = 0; i < pages.size(); ++i)
        if (pages[i].memcg != 0xffff &&
            pages[i].where == mem::Where::ZSWAP) {
            zswapped = i;
            break;
        }
    ASSERT_NE(zswapped, mem::NO_PAGE);

    // A zswap page booked as swap, its bytes moved along with it: every
    // counter still agrees with the page table, but the kind no longer
    // matches what its backend does with pages.
    auto &mcg = mm.memcgOf(rig.app->cgroup());
    const std::uint32_t stored = pages[zswapped].storedBytes;
    pages[zswapped].where = mem::Where::SWAP;
    mcg.zswapBytes -= stored;
    mcg.swapBytes += stored;
    const auto violations = fault::auditHost(rig.machine);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("page in swap stored in zswap"),
              std::string::npos)
        << violations[0];

    pages[zswapped].where = mem::Where::ZSWAP;
    mcg.zswapBytes += stored;
    mcg.swapBytes -= stored;
    EXPECT_TRUE(fault::auditHost(rig.machine).empty());
}

TEST(InvariantAuditorTest, RamUsedMatchesThePools)
{
    ChainRig rig;
    rig.offloadCold(200ull << 20);
    // Hot pages enter the chain's zswap tier (tier 0)...
    setAllHeat(rig.machine, 7);
    auto &mm = rig.machine.memory();
    mm.reclaim(rig.app->cgroup(), 150ull << 20, rig.simulation.now());
    // ...and fault back in: every swap-in takes its compressed copy
    // out of ramUsed() as the pool frees it.
    std::uint64_t swapped_in = 0;
    for (mem::PageIdx i = 0; i < mm.pages().size(); ++i)
        if (mm.pages()[i].memcg != 0xffff &&
            mm.pages()[i].where == mem::Where::ZSWAP) {
            mm.access(i, rig.simulation.now());
            ++swapped_in;
        }
    ASSERT_GT(swapped_in, 0u);
    ASSERT_TRUE(fault::auditHost(rig.machine).empty());

    // A page stored into the zswap pool behind the memory manager's
    // back: the pool holds DRAM that ramUsed() never saw.
    backend::OffloadBackend *pool = rig.chain->tier(0);
    ASSERT_TRUE(pool->storesInHostDram());
    const auto stored = pool->store(rig.machine.memory().pageBytes(), 4.0,
                                    rig.simulation.now());
    ASSERT_TRUE(stored.accepted);
    const auto violations = fault::auditHost(rig.machine);
    EXPECT_TRUE(std::any_of(violations.begin(), violations.end(),
                            [](const std::string &v) {
                                return v.find("ramUsed") !=
                                       std::string::npos;
                            }))
        << ::testing::PrintToString(violations);

    pool->release(stored.storedBytes);
    EXPECT_TRUE(fault::auditHost(rig.machine).empty());
}

TEST(InvariantAuditorTest, StaleIdleBreakdownReuseIsReported)
{
    ChainRig rig;
    rig.simulation.runUntil(rig.simulation.now() + 6 * sim::MINUTE);
    auto &pages = rig.machine.memory().pages();
    const sim::SimTime now = rig.simulation.now();

    // The clean audit leaves idleBreakdown() counts taken at now. A
    // direct lastAccess write is a page change nothing invalidates —
    // what a missed invalidation looks like — so the counts reused
    // at the same instant go stale, and the recount must say so.
    EXPECT_TRUE(fault::auditHost(rig.machine).empty());
    mem::PageIdx cold = mem::NO_PAGE;
    for (mem::PageIdx i = 0; i < pages.size(); ++i)
        if (pages[i].memcg != 0xffff &&
            now - pages[i].lastAccess > 5 * sim::MINUTE) {
            cold = i;
            break;
        }
    ASSERT_NE(cold, mem::NO_PAGE);
    const sim::SimTime saved = pages[cold].lastAccess;
    pages[cold].lastAccess = now;
    const auto violations = fault::auditHost(rig.machine);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("idleBreakdown"), std::string::npos)
        << violations[0];
    pages[cold].lastAccess = saved;
    EXPECT_TRUE(fault::auditHost(rig.machine).empty());
}

// --- the acceptance scenario ---------------------------------------------

TEST(SelfHealingAcceptanceTest, CrashAndTierOutagePlanHealsCompletely)
{
    const auto run = [](unsigned jobs) {
        auto fleet = host::FleetSpec{}
                         .hosts(2)
                         .epoch(30 * sim::SEC)
                         .ram_mb(256)
                         .page_kb(64)
                         .seed(17)
                         .tiers("zswap:8mb+ssd")
                         .workload("feed", 192)
                         .controller("senpai")
                         .restart(restartPolicy(2, 60 * sim::SEC))
                         .customize(plans({"t=60 kind=host-crash\n"
                                           "t=300 kind=controller-crash "
                                           "arg=20\n",
                                           "t=90 kind=tier-offline arg=1\n"
                                           "t=240 kind=tier-online arg=1\n"}))
                         .build();
        fleet.enableInvariantAudit(fault::auditHost);
        fleet.start();

        fleet.run(10 * sim::MINUTE, jobs);

        EXPECT_EQ(fleet.failedCount(), 0u);
        EXPECT_GE(fleet.restartedCount(), 1u);
        EXPECT_EQ(fleet.permanentlyFailedCount(), 0u);
        EXPECT_TRUE(fleet.auditViolations().empty())
            << fleet.auditViolations().front();
        // The evacuated tier's pages are all accounted for: moved,
        // refaulted, or explicitly lost — audited every epoch above.
        EXPECT_GT(fleet.host(0).controllerRestarts(), 0u);

        std::vector<double> digest;
        digest.push_back(static_cast<double>(fleet.restartedCount()));
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            auto &cg = fleet.host(i).apps().front()->cgroup();
            digest.push_back(static_cast<double>(cg.memCurrent()));
            digest.push_back(
                static_cast<double>(cg.stats().pswpin));
            digest.push_back(
                static_cast<double>(cg.stats().tierEvacuate));
        }
        return digest;
    };

    EXPECT_EQ(run(1), run(4));
}
