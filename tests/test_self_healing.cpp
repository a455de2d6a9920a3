/**
 * @file
 * The self-healing contract:
 *
 *  - a RestartPolicy rebuilds a crashed host from its builder recipe
 *    at an epoch boundary, resumed on the fleet clock, and recovery
 *    is bit-identical for any --jobs;
 *  - the restart budget is finite: a host that keeps crashing ends up
 *    permanently failed, and with restarts disabled (the default) a
 *    failed host stays quarantined — the pre-self-healing behaviour;
 *  - Fleet::collect() excludes frozen (failed) hosts from fleet
 *    percentiles;
 *  - the controller watchdog rebuilds a crashed controller from the
 *    host's factory; a stalled controller resumes the same object;
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
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/invariant_auditor.hpp"
#include "host/fleet.hpp"
#include "mem/memory_manager.hpp"
#include "mem/page.hpp"
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

/** Arm @p plan on host @p i of @p fleet. */
std::unique_ptr<fault::FaultInjector>
armed(host::Fleet &fleet, std::size_t i, const std::string &plan)
{
    auto injector = std::make_unique<fault::FaultInjector>(
        fleet.host(i), fault::FaultPlan::parseString(plan));
    injector->arm();
    return injector;
}

/** Stamp @p heat onto every page at the current decay epoch. */
void
setAllHeat(host::Host &machine, std::uint8_t heat)
{
    const auto epoch = mem::heatEpochAt(
        machine.simulation().now(),
        machine.memory().config().heatDecayPeriod);
    for (auto &page : machine.memory().pages()) {
        page.heat = heat;
        page.heatEpoch = epoch;
    }
}

} // namespace

// --- host restart & reintegration ----------------------------------------

TEST(HostRestartTest, CrashedHostIsRebuiltAndRejoinsTheFleet)
{
    host::Fleet fleet = fleetSpec(2, 7).build();
    fleet.setRestartPolicy(restartPolicy(2));
    fleet.start();
    auto injector = armed(fleet, 0, "t=60 kind=host-crash\n");

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
    host::Fleet fleet = fleetSpec(2, 7).build();
    fleet.start();
    auto injector = armed(fleet, 0, "t=60 kind=host-crash\n");

    fleet.run(3 * sim::MINUTE);

    EXPECT_EQ(fleet.failedCount(), 1u);
    EXPECT_EQ(fleet.restartedCount(), 0u);
    EXPECT_EQ(fleet.permanentlyFailedCount(), 1u);
    EXPECT_EQ(fleet.hostError(0), "host-crash fault injected");
}

TEST(HostRestartTest, RepeatCrashesExhaustTheBudget)
{
    host::Fleet fleet = fleetSpec(2, 9).build();
    fleet.setRestartPolicy(restartPolicy(2));
    fleet.start();

    // Every incarnation of host 0 crashes again shortly after its
    // rebuild: the restart hook re-arms the next crash.
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    injectors.push_back(armed(fleet, 0, "t=60 kind=host-crash\n"));
    fleet.onHostRestart([&](std::size_t i, host::Host &machine) {
        if (i != 0)
            return;
        fault::FaultPlan next;
        next.events.push_back({fleet.now() + 10 * sim::SEC,
                               fault::FaultKind::HOST_CRASH, 0.0});
        injectors.push_back(
            std::make_unique<fault::FaultInjector>(machine, next));
        injectors.back()->arm();
    });

    fleet.run(20 * sim::MINUTE);

    EXPECT_EQ(fleet.restartedCount(), 2u);
    EXPECT_EQ(fleet.failedCount(), 1u);
    EXPECT_EQ(fleet.permanentlyFailedCount(), 1u);
}

TEST(HostRestartTest, RecoveryIsBitIdenticalAcrossJobs)
{
    const auto digest = [](unsigned jobs) {
        host::Fleet fleet = fleetSpec(4, 11).build();
        fleet.setRestartPolicy(restartPolicy(3));
        fleet.enableInvariantAudit(fault::auditHost);
        fleet.start();

        std::vector<fault::FaultPlan> plans(fleet.size());
        plans[0] = fault::FaultPlan::parseString(
            "t=45 kind=host-crash\n"
            "t=200 kind=ssd-write-error arg=0.4\n"
            "t=260 kind=ssd-online\n");
        plans[2] = fault::FaultPlan::parseString(
            "t=90 kind=host-crash\n");
        std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            if (plans[i].empty())
                continue;
            injectors.push_back(std::make_unique<fault::FaultInjector>(
                fleet.host(i), plans[i]));
            injectors.back()->arm();
        }
        fleet.onHostRestart([&](std::size_t i, host::Host &machine) {
            fault::FaultPlan rest;
            for (const auto &event : plans[i].events)
                if (event.at > fleet.now())
                    rest.events.push_back(event);
            if (rest.empty())
                return;
            injectors.push_back(std::make_unique<fault::FaultInjector>(
                machine, std::move(rest)));
            injectors.back()->arm();
        });

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

TEST(FleetCollectTest, FrozenHostsStayOutOfFleetPercentiles)
{
    host::Fleet fleet = fleetSpec(3, 5).build();
    fleet.start();
    auto injector = armed(fleet, 1, "t=60 kind=host-crash\n");

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
    host::Fleet fleet = fleetSpec(1, 3).build();
    fleet.start();
    auto injector =
        armed(fleet, 0, "t=60 kind=controller-crash arg=20\n");

    fleet.run(3 * sim::MINUTE);

    EXPECT_EQ(fleet.host(0).controllerRestarts(), 1u);
    ASSERT_NE(fleet.host(0).controller(), nullptr);
    EXPECT_TRUE(fleet.host(0).controller()->running());
}

TEST(ControllerWatchdogTest, StallResumesTheSameObjectWithoutRebuild)
{
    host::Fleet fleet = fleetSpec(1, 3).build();
    fleet.start();
    core::Controller *before = fleet.host(0).controller();
    auto injector =
        armed(fleet, 0, "t=60 kind=controller-stall arg=20\n");

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
    // moveBudgetBytes, so the drain takes multiple ticks.
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
    EXPECT_LE(first.movedBytes,
              rig.chain->config().moveBudgetBytes);
    EXPECT_GT(rig.machine.zswap().usedBytes(), zswap_before);
    EXPECT_GT(rig.chain->evacuatedPages(), 0u);
    EXPECT_EQ(rig.chain->lostPages(), 0u);
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
    EXPECT_GT(rig.chain->lostPages(), 0u);
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
                     .build();
    fleet.enableInvariantAudit(fault::auditHost);
    fleet.start();
    auto injector = armed(fleet, 0, "t=60 kind=tier-offline arg=0\n");

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

    const auto later =
        now + rig.chain->config().readmitWindow + sim::SEC;
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
    EXPECT_EQ(swap.retries(), swap.retryPolicy().attempts - 1);
    EXPECT_EQ(swap.storeErrors(), swap.retryPolicy().attempts);

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
        static_cast<double>(exact.retryPolicy().attempts) *
        sim::toUsec(exact.retryPolicy().opTimeout));
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
                         .build();
        fleet.enableInvariantAudit(fault::auditHost);
        fleet.start();

        std::vector<fault::FaultPlan> plans(fleet.size());
        plans[0] = fault::FaultPlan::parseString(
            "t=60 kind=host-crash\n"
            "t=300 kind=controller-crash arg=20\n");
        plans[1] = fault::FaultPlan::parseString(
            "t=90 kind=tier-offline arg=1\n"
            "t=240 kind=tier-online arg=1\n");
        std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            injectors.push_back(std::make_unique<fault::FaultInjector>(
                fleet.host(i), plans[i]));
            injectors.back()->arm();
        }
        fleet.onHostRestart([&](std::size_t i, host::Host &machine) {
            fault::FaultPlan rest;
            for (const auto &event : plans[i].events)
                if (event.at > fleet.now())
                    rest.events.push_back(event);
            if (rest.empty())
                return;
            injectors.push_back(std::make_unique<fault::FaultInjector>(
                machine, std::move(rest)));
            injectors.back()->arm();
        });

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
