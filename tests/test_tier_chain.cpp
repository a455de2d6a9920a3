/**
 * @file
 * The composable tier-chain contract: TierChainSpec parsing is strict
 * and round-trips, per-page hotness decays and saturates correctly,
 * placement maps heat onto chain positions, stores fall through caps
 * and offline tiers, background maintenance demotes cooled pages and
 * promotes reheated ones under the movement budget, placement is
 * invisible on one-tier chains, every chain exports per-tier
 * metrics, tier faults degrade (not fail) the aggregate status, and a
 * three-tier fleet run is bit-identical for any --jobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/nvm.hpp"
#include "backend/zswap.hpp"
#include "core/senpai.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "host/fleet.hpp"
#include "host/host.hpp"
#include "psi/psi.hpp"
#include "tier/tier_chain.hpp"
#include "tier/tier_spec.hpp"
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

} // namespace

// --- TierChainSpec parsing ---------------------------------------------------

TEST(TierSpecTest, ParsesChainsAndRoundTrips)
{
    const auto chain = tier::TierChainSpec::parse("zswap:256mb+ssd");
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain.tiers[0].kind, tier::TierKind::ZSWAP);
    EXPECT_EQ(chain.tiers[0].capBytes, 256ull << 20);
    EXPECT_EQ(chain.tiers[1].kind, tier::TierKind::SSD);
    EXPECT_EQ(chain.tiers[1].capBytes, 0u);
    EXPECT_EQ(chain.toString(), "zswap:256mb+ssd");
    EXPECT_EQ(tier::TierChainSpec::parse(chain.toString()), chain);

    // "cxl" is an alias for the NVM backend.
    EXPECT_EQ(tier::TierChainSpec::parse("cxl").tiers[0].kind,
              tier::TierKind::NVM);

    // Empty chains: no anon offloading.
    EXPECT_TRUE(tier::TierChainSpec::parse("").empty());
    EXPECT_TRUE(tier::TierChainSpec::parse("none").empty());
    EXPECT_EQ(tier::TierChainSpec{}.toString(), "none");

    // The placement key: hotness is the default and prints no key,
    // workingset prints it; every form round-trips.
    const auto ws =
        tier::TierChainSpec::parse("zswap+ssd;placement=workingset");
    EXPECT_EQ(ws.placement, tier::TierPlacement::WORKINGSET);
    EXPECT_EQ(ws.tiers, tier::TierChainSpec::parse("zswap+ssd").tiers);
    EXPECT_NE(ws, tier::TierChainSpec::parse("zswap+ssd"));
    EXPECT_EQ(ws.toString(), "zswap+ssd;placement=workingset");
    const auto hot =
        tier::TierChainSpec::parse("zswap:64mb+ssd;placement=hotness");
    EXPECT_EQ(hot.placement, tier::TierPlacement::HOTNESS);
    EXPECT_EQ(hot, tier::TierChainSpec::parse("zswap:64mb+ssd"));
    EXPECT_EQ(hot.toString(), "zswap:64mb+ssd");
    for (const char *text :
         {"zswap", "ssd;placement=workingset", "cxl;placement=hotness",
          "zswap:1gb+nvm;placement=workingset", "none"}) {
        const auto spec = tier::TierChainSpec::parse(text);
        EXPECT_EQ(tier::TierChainSpec::parse(spec.toString()), spec)
            << text;
    }
}

TEST(TierSpecTest, RejectsMalformedSpecs)
{
    const auto bad = [](const std::string &text,
                        const std::string &named = "") {
        std::string error;
        const bool ok = tier::isValidTierChainSpec(text, &error);
        EXPECT_FALSE(ok) << text;
        EXPECT_FALSE(error.empty()) << text;
        EXPECT_NE(error.find(named), std::string::npos) << error;
        EXPECT_THROW(tier::TierChainSpec::parse(text),
                     std::invalid_argument)
            << text;
    };
    bad("floppy");          // unknown tier
    bad("ssd:16mb");        // only zswap takes a cap
    bad("zswap:mb");        // capacity needs digits
    bad("zswap:16tb");      // bad unit
    bad("zswap:0mb");       // zero cap
    // 2^64 bytes once wrapped to an uncapped 0, and a 20-digit count
    // to a smaller cap.
    bad("zswap:17592186044416mb", "capacity overflows 64-bit bytes");
    bad("zswap:99999999999999999999mb", "capacity overflows 64-bit bytes");
    bad("zswap++ssd");      // empty token
    bad("zswap+zswap+zswap+zswap+zswap+zswap+zswap+zswap+ssd"); // 9 tiers
    bad("zswap+ssd;placement=lru", "unknown placement 'lru'");
    bad("zswap+ssd;move=0", "unknown key 'move'");
    bad("zswap+ssd;placement=workingset;placement=hotness",
        "duplicate key 'placement'");
    bad("zswap+ssd;placement=", "placement needs a value");
    bad("zswap+ssd;placement", "placement needs a value");
    bad("zswap+ssd;", "unknown key ''");
    bad("none;placement=workingset", "'none' takes no keys");
    bad(";placement=hotness", "'none' takes no keys");
    bad("zswap+;placement=hotness", "empty tier token");

    std::string error;
    EXPECT_TRUE(
        tier::isValidTierChainSpec("zswap:64mb+zswap+ssd", &error));
    EXPECT_TRUE(error.empty());
    // The largest whole-MiB cap below 2^64 bytes round-trips.
    EXPECT_EQ(tier::TierChainSpec::parse("zswap:17592186044415mb")
                  .toString(),
              "zswap:17592186044415mb");
}

// --- per-page hotness --------------------------------------------------------

TEST(HeatTest, DecayHalvesPerEpochAndZeroesAfterEight)
{
    mem::Page page;
    page.heat = 8;
    page.heatEpoch = 0;
    EXPECT_EQ(mem::decayedHeat(page, 0), 8u);
    EXPECT_EQ(mem::decayedHeat(page, 1), 4u);
    EXPECT_EQ(mem::decayedHeat(page, 3), 1u);
    EXPECT_EQ(mem::decayedHeat(page, 8), 0u);
    EXPECT_EQ(mem::decayedHeat(page, 200), 0u);
}

TEST(HeatTest, TouchSaturatesAndReanchorsTheEpoch)
{
    mem::Page page;
    mem::touchHeat(page, 0, 300);
    EXPECT_EQ(page.heat, 0xff);

    // Touching at a later epoch decays first, then adds.
    page.heat = 8;
    page.heatEpoch = 0;
    mem::touchHeat(page, 2, 1); // 8 >> 2 == 2, +1
    EXPECT_EQ(page.heat, 3);
    EXPECT_EQ(page.heatEpoch, 2);
}

TEST(HeatTest, EpochWraparoundReadsAsColdNotHot)
{
    mem::Page page;
    page.heat = 0xff;
    page.heatEpoch = 250;
    // 256 epochs later the uint8 epoch wraps past the stamp; the
    // unsigned delta stays >= 8, so stale heat reads as cold.
    EXPECT_EQ(mem::decayedHeat(page, 2), 0u);  // delta 8
    EXPECT_EQ(mem::decayedHeat(page, 251), 127u); // delta 1: halved
}

// --- TierChain unit behaviour ------------------------------------------------

namespace
{

/** A small fixed-capacity byte-addressable tier for chain units. */
std::unique_ptr<backend::NvmBackend>
nvmTier(std::uint64_t pages)
{
    auto spec = backend::nvmSpecPreset("cxl-dram");
    spec.capacityBytes = pages * PAGE;
    spec.simulatedPageBytes = PAGE;
    return std::make_unique<backend::NvmBackend>(spec);
}

} // namespace

TEST(TierChainTest, PlacementIndexMapsHeatAcrossTiers)
{
    auto a = nvmTier(64), b = nvmTier(64), c = nvmTier(64);
    tier::TierChain chain("test", {a.get(), b.get(), c.get()},
                          tier::TierChainConfig{});
    // Hot pages enter the top, cold pages the bottom, monotonically.
    EXPECT_EQ(chain.placementIndex(7, false), 0);
    EXPECT_EQ(chain.placementIndex(0xff, false), 0);
    EXPECT_EQ(chain.placementIndex(0, false), 2);
    int last = 2;
    for (unsigned heat = 0; heat <= 7; ++heat) {
        const int idx = chain.placementIndex(heat, false);
        EXPECT_LE(idx, last) << heat;
        last = idx;
    }

    // Working-set placement ignores heat entirely.
    tier::TierChainConfig ws_config;
    ws_config.placement = tier::TierPlacement::WORKINGSET;
    ws_config.moveBudgetBytes = 0;
    tier::TierChain ws("ws", {a.get(), c.get()}, ws_config);
    EXPECT_EQ(ws.placementIndex(0, true), 0);
    EXPECT_EQ(ws.placementIndex(7, false), 1);
}

TEST(TierChainTest, StoreFallsThroughCapsAndOfflineTiers)
{
    auto a = nvmTier(2), b = nvmTier(2), c = nvmTier(64);
    tier::TierChain chain("test", {a.get(), b.get(), c.get()},
                          tier::TierChainConfig{});

    // Tier 0 takes two pages, then the third falls through.
    EXPECT_EQ(chain.storeFrom(0, PAGE, 1.0, 0).tierIndex, 0);
    EXPECT_EQ(chain.storeFrom(0, PAGE, 1.0, 0).tierIndex, 0);
    EXPECT_EQ(chain.storeFrom(0, PAGE, 1.0, 0).tierIndex, 1);

    // An offline middle tier is skipped by the fall-through.
    chain.setTierOffline(1, true, 0);
    const auto skipped = chain.storeFrom(0, PAGE, 1.0, 0);
    EXPECT_TRUE(skipped.result.accepted);
    EXPECT_EQ(skipped.tierIndex, 2);

    // Everything offline: nothing attempted, store rejected.
    chain.setTierOffline(0, true, 0);
    chain.setTierOffline(2, true, 0);
    const auto none = chain.storeFrom(0, PAGE, 1.0, 0);
    EXPECT_FALSE(none.result.accepted);
    EXPECT_EQ(none.tier, nullptr);
    EXPECT_EQ(none.tierIndex, -1);
}

TEST(TierChainTest, AggregatesStatusUtilizationAndOverhead)
{
    backend::ZswapConfig zconfig;
    zconfig.simulatedPageBytes = PAGE;
    backend::ZswapPool pool(zconfig);
    auto cold = nvmTier(4);
    tier::TierChain chain("test", {&pool, cold.get()},
                          tier::TierChainConfig{});

    EXPECT_EQ(chain.status(), backend::BackendStatus::HEALTHY);

    ASSERT_TRUE(chain.storeFrom(0, PAGE, 3.0, 0).result.accepted);
    ASSERT_TRUE(chain.storeFrom(1, PAGE, 1.0, 0).result.accepted);
    // Utilization surfaces the most-constrained tier (1 of 4 pages).
    EXPECT_DOUBLE_EQ(chain.utilization(),
                     std::max(pool.utilization(),
                              cold->utilization()));

    // One tier down degrades the chain; all tiers down fail it.
    chain.setTierOffline(1, true, 0);
    EXPECT_EQ(chain.status(), backend::BackendStatus::DEGRADED);
    chain.setTierOffline(0, true, 0);
    EXPECT_EQ(chain.status(), backend::BackendStatus::FAILED);
    // Back online: the readmission ramp throttles store admission
    // only, so the status recovers at once.
    chain.setTierOffline(1, false, 0);
    EXPECT_EQ(chain.status(), backend::BackendStatus::DEGRADED);
}

// --- hotness-driven placement and maintenance (host level) -------------------

namespace
{

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

TEST(TierMaintainTest, ColdPagesEnterTheLastTierHotTheFirst)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto profile = workload::appPreset("feed", 512ull << 20);
    auto &app = machine.addApp(
        profile, tier::TierChainSpec::parse("zswap+ssd"));
    machine.start();
    app.start();
    simulation.runUntil(5 * sim::SEC);

    // Cold (heat 0) pages enter at the bottom: the SSD tier.
    setAllHeat(machine, 0);
    machine.memory().reclaim(app.cgroup(), 200ull << 20,
                             simulation.now());
    EXPECT_GT(machine.swap().usedBytes(), 0u);
    EXPECT_EQ(machine.zswap().usedBytes(), 0u);

    // Hot pages enter at the top: the compressed tier.
    setAllHeat(machine, 7);
    machine.memory().reclaim(app.cgroup(), 150ull << 20,
                             simulation.now());
    EXPECT_GT(machine.zswap().usedBytes(), 0u);
}

TEST(TierMaintainTest, MaintenanceDemotesCooledPages)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto profile = workload::appPreset("feed", 512ull << 20);
    auto &app = machine.addApp(
        profile, tier::TierChainSpec::parse("zswap+ssd"));
    machine.start();
    app.start();
    simulation.runUntil(5 * sim::SEC);

    // Hot pages land in the warm tier...
    setAllHeat(machine, 7);
    machine.memory().reclaim(app.cgroup(), 200ull << 20,
                             simulation.now());
    ASSERT_GT(machine.zswap().usedBytes(), 0u);
    const auto swap_before = machine.swap().usedBytes();

    // ...then cool off: a maintenance pass well past the decay
    // horizon moves them down to the SSD.
    const auto later = simulation.now() + 10 * 30 * sim::SEC;
    const auto outcome =
        machine.memory().tierMaintain(app.cgroup(), later);
    EXPECT_GT(outcome.demotedPages, 0u);
    EXPECT_GT(outcome.movedBytes, 0u);
    EXPECT_GT(machine.swap().usedBytes(), swap_before);
    EXPECT_GT(app.cgroup().stats().tierDemote, 0u);
    ASSERT_FALSE(machine.chains().empty());
    EXPECT_GT(machine.chains().front()->demotedPages(), 0u);
}

TEST(TierMaintainTest, MaintenancePromotesReheatedPages)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto profile = workload::appPreset("feed", 512ull << 20);
    auto &app = machine.addApp(
        profile, tier::TierChainSpec::parse("zswap+ssd"));
    machine.start();
    app.start();
    simulation.runUntil(5 * sim::SEC);

    // Cold pages land on the SSD...
    setAllHeat(machine, 0);
    machine.memory().reclaim(app.cgroup(), 200ull << 20,
                             simulation.now());
    ASSERT_GT(machine.swap().usedBytes(), 0u);
    const auto zswap_before = machine.zswap().usedBytes();

    // ...then reheat (as repeated faults would): maintenance pulls
    // them up into the compressed tier.
    setAllHeat(machine, 7);
    const auto outcome = machine.memory().tierMaintain(
        app.cgroup(), simulation.now());
    EXPECT_GT(outcome.promotedPages, 0u);
    EXPECT_GT(machine.zswap().usedBytes(), zswap_before);
    EXPECT_GT(app.cgroup().stats().tierPromote, 0u);
    ASSERT_FALSE(machine.chains().empty());
    EXPECT_GT(machine.chains().front()->promotedPages(), 0u);
}

TEST(TierMaintainTest, MovementRespectsTheByteBudget)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto profile = workload::appPreset("feed", 512ull << 20);
    auto &app = machine.addApp(
        profile, tier::TierChainSpec::parse("zswap+ssd"));
    machine.start();
    app.start();
    simulation.runUntil(5 * sim::SEC);

    setAllHeat(machine, 7);
    machine.memory().reclaim(app.cgroup(), 200ull << 20,
                             simulation.now());
    const auto later = simulation.now() + 10 * 30 * sim::SEC;
    const auto outcome =
        machine.memory().tierMaintain(app.cgroup(), later);
    ASSERT_FALSE(machine.chains().empty());
    EXPECT_LE(outcome.movedBytes,
              machine.chains().front()->config().moveBudgetBytes);
}

// --- one-tier placement equivalence ----------------------------------------

namespace
{

/** Everything two single-host runs can disagree about. */
std::vector<double>
hostDigest(host::Host &machine)
{
    auto &cg = machine.apps().front()->cgroup();
    return {
        static_cast<double>(cg.memCurrent()),
        static_cast<double>(cg.stats().pswpin),
        static_cast<double>(cg.stats().pswpout),
        static_cast<double>(cg.stats().pgsteal),
        static_cast<double>(cg.stats().wsRefault),
        static_cast<double>(machine.zswap().usedBytes()),
        static_cast<double>(machine.swap().usedBytes()),
        static_cast<double>(machine.ssd().bytesWritten()),
        machine.apps().front()->lastTick().completedRps,
        static_cast<double>(cg.psi().totalSome(
            psi::Resource::MEM, machine.simulation().now())),
    };
}

std::vector<double>
runOneTierHost(const std::string &tiers)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto profile = workload::appPreset("feed", 512ull << 20);
    auto &app =
        machine.addApp(profile, tier::TierChainSpec::parse(tiers));
    machine.start();
    app.start();
    core::Senpai senpai(simulation, machine.memory(), app.cgroup());
    senpai.start();
    simulation.runUntil(3 * sim::MINUTE);
    return hostDigest(machine);
}

} // namespace

TEST(OneTierPlacementTest, WorkingSetMatchesHotnessByteForByte)
{
    // A one-tier chain has a single placement target and never
    // schedules maintenance, so the placement key must not show up in
    // results. This is what lets one-tier call sites drop the key.
    for (const std::string tiers : {"zswap", "ssd"}) {
        const auto hotness = runOneTierHost(tiers);
        EXPECT_EQ(hotness,
                  runOneTierHost(tiers + ";placement=workingset"))
            << tiers;
        EXPECT_GT(hotness[2], 0.0) << tiers << ": nothing swapped out";
    }
}

// --- per-tier observability --------------------------------------------------

TEST(TierMetricsTest, SpecChainsExportPerTierSeries)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto profile = workload::appPreset("feed", 512ull << 20);
    auto &app = machine.addApp(
        profile, tier::TierChainSpec::parse("zswap:64mb+ssd"));
    machine.enableMetrics(6 * sim::SEC);
    machine.start();
    app.start();
    simulation.runUntil(30 * sim::SEC);
    setAllHeat(machine, 7);
    machine.memory().reclaim(app.cgroup(), 200ull << 20,
                             simulation.now());

    const std::string prefix = "app." + app.cgroup().name() + ".";
    auto *sampler = machine.sampler();
    ASSERT_NE(sampler, nullptr);
    // Sample before the workload faults the evicted pages back.
    sampler->sampleOnce();
    for (const char *name :
         {"tier.0.pages", "tier.0.bytes", "tier.1.pages",
          "tier.1.bytes", "tier.demoted", "tier.promoted"})
        EXPECT_NE(sampler->find(prefix + name), nullptr) << name;

    // The warm tier holds the evicted hot pages.
    const auto *pages0 = sampler->find(prefix + "tier.0.pages");
    ASSERT_NE(pages0, nullptr);
    ASSERT_FALSE(pages0->samples().empty());
    EXPECT_GT(pages0->samples().back().value, 0.0);

    // Every chain exports these series, whatever its length or
    // placement; an app without a chain exports none.
    for (const std::string tiers :
         {"zswap", "zswap+ssd;placement=workingset", "none"}) {
        const auto spec = tier::TierChainSpec::parse(tiers);
        sim::Simulation other_sim;
        host::Host other(other_sim, hostConfig());
        const std::string other_prefix =
            "app." + other.addApp(profile, spec).cgroup().name() + ".";
        other.enableMetrics(6 * sim::SEC);
        other.sampler()->sampleOnce();
        const auto has = [&](const std::string &name) {
            return other.sampler()->find(other_prefix + name) != nullptr;
        };
        EXPECT_EQ(has("tier.0.pages"), spec.size() >= 1) << tiers;
        EXPECT_EQ(has("tier.1.bytes"), spec.size() >= 2) << tiers;
        EXPECT_FALSE(has("tier.2.pages")) << tiers;
        EXPECT_EQ(has("tier.demoted"), !spec.empty()) << tiers;
        EXPECT_EQ(has("tier.promote_p99_us"), !spec.empty()) << tiers;
    }
}

// --- tier faults -------------------------------------------------------------

TEST(TierFaultTest, MiddleTierOfflineDegradesAndRecovers)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto profile = workload::appPreset("feed", 512ull << 20);
    auto &app = machine.addApp(
        profile, tier::TierChainSpec::parse("zswap:8mb+zswap+ssd"));
    machine.start();
    app.start();

    fault::FaultInjector injector(
        machine, fault::FaultPlan::parseString(
                     "t=10 kind=tier-offline arg=1\n"
                     "t=60 kind=tier-online arg=1\n"));
    injector.arm();

    simulation.runUntil(30 * sim::SEC);
    ASSERT_FALSE(machine.chains().empty());
    tier::TierChain *chain = machine.chains().front();
    ASSERT_EQ(chain->size(), 3u);
    EXPECT_TRUE(chain->tierOffline(1));
    // One tier down: degraded, not failed — and the aggregate
    // propagates into the host-wide backend status via worseStatus.
    EXPECT_EQ(chain->status(), backend::BackendStatus::DEGRADED);
    EXPECT_EQ(fault::hostBackendStatus(machine),
              backend::BackendStatus::DEGRADED);

    // Eviction still makes progress through the remaining tiers.
    setAllHeat(machine, 3); // mid-heat: placement targets the middle
    const auto outcome = machine.memory().reclaim(
        app.cgroup(), 200ull << 20, simulation.now());
    EXPECT_GT(outcome.anonPages, 0u);
    EXPECT_EQ(machine.zswap().usedBytes(), 0u); // offline tier skipped

    simulation.runUntil(90 * sim::SEC);
    EXPECT_FALSE(chain->tierOffline(1));
    EXPECT_EQ(chain->status(), backend::BackendStatus::HEALTHY);
}

// --- fleet determinism -------------------------------------------------------

namespace
{

std::vector<double>
tieredFleetDigest(std::uint64_t seed, unsigned jobs)
{
    host::Fleet fleet = host::FleetSpec{}
                            .hosts(6)
                            .epoch(30 * sim::SEC)
                            .name_prefix("tiered")
                            .ram_mb(256)
                            .page_kb(64)
                            .seed(seed)
                            .tiers("zswap:32mb+zswap+ssd")
                            .workload("feed", 192)
                            .controller("senpai")
                            .build();
    fleet.start();
    fleet.run(2 * sim::MINUTE, jobs);

    std::vector<double> digest;
    const auto append = [&](const std::function<double(host::Host &)>
                                &metric) {
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
        return static_cast<double>(cg(h).stats().tierDemote);
    });
    append([&](host::Host &h) {
        return static_cast<double>(cg(h).stats().tierPromote);
    });
    append([&](host::Host &h) {
        return static_cast<double>(h.ssd().bytesWritten());
    });
    append([&](host::Host &h) {
        double used = 0;
        for (const tier::TierChain *chain : h.chains())
            for (std::size_t t = 0; t < chain->size(); ++t)
                used += static_cast<double>(chain->tier(t)->usedBytes());
        return used;
    });
    append([&](host::Host &h) {
        return static_cast<double>(cg(h).psi().totalSome(
            psi::Resource::MEM, h.simulation().now()));
    });
    return digest;
}

} // namespace

TEST(TieredFleetTest, ThreeTierRunBitIdenticalAcrossJobs)
{
    const auto serial = tieredFleetDigest(7, 1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, tieredFleetDigest(7, 4));
}
