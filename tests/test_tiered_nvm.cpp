/**
 * @file
 * Tests for the §5.2 tiered backend hierarchy (zswap warm tier + SSD
 * cold tier) and the §2.5 NVM / CXL backend models.
 */

#include <gtest/gtest.h>

#include "backend/nvm.hpp"
#include "core/senpai.hpp"
#include "host/host.hpp"
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

/** The §5.2 hierarchy: working-set pages to the zswap warm tier, all
 *  others to the SSD cold tier, with no background movement. */
tier::TierChainSpec
tiered()
{
    return tier::TierChainSpec::parse("zswap+ssd;placement=workingset");
}

} // namespace

// --- NVM backend -------------------------------------------------------------

TEST(NvmBackendTest, Presets)
{
    const auto optane = backend::nvmSpecPreset("optane");
    const auto cxl = backend::nvmSpecPreset("cxl-dram");
    EXPECT_GT(optane.readMedianUs, cxl.readMedianUs);
    EXPECT_THROW(backend::nvmSpecPreset("floppy"),
                 std::invalid_argument);
}

TEST(NvmBackendTest, StoreAndLoadFullPages)
{
    backend::NvmBackend nvm(backend::nvmSpecPreset("optane"));
    const auto store = nvm.store(PAGE, 1.0, 0);
    ASSERT_TRUE(store.accepted);
    EXPECT_EQ(store.storedBytes, static_cast<std::uint64_t>(PAGE));
    EXPECT_EQ(nvm.usedBytes(), static_cast<std::uint64_t>(PAGE));
    EXPECT_FALSE(nvm.isBlockDevice());
    EXPECT_FALSE(nvm.storesInHostDram());

    const auto load = nvm.load(store.storedBytes, sim::SEC);
    EXPECT_FALSE(load.blockIo); // byte-addressable
    EXPECT_GT(load.latency, 0u);
    EXPECT_EQ(nvm.usedBytes(), 0u);
}

TEST(NvmBackendTest, FasterThanSsdSlowerThanZswapPerByte)
{
    auto spec = backend::nvmSpecPreset("optane");
    spec.simulatedPageBytes = PAGE;
    backend::NvmBackend nvm(spec);
    backend::SsdDevice ssd(backend::ssdSpecForClass('C'), 1);

    double nvm_total = 0, ssd_total = 0;
    for (int i = 0; i < 2000; ++i) {
        const auto now = static_cast<sim::SimTime>(i) * 10 * sim::MSEC;
        const auto stored = nvm.store(PAGE, 1.0, now);
        nvm_total +=
            static_cast<double>(nvm.load(stored.storedBytes, now).latency);
        ssd_total += static_cast<double>(ssd.read(PAGE, now));
    }
    EXPECT_LT(nvm_total, ssd_total / 5.0);
}

TEST(NvmBackendTest, CapacityEnforced)
{
    auto spec = backend::nvmSpecPreset("cxl-dram");
    spec.capacityBytes = 2 * PAGE;
    backend::NvmBackend nvm(spec);
    EXPECT_TRUE(nvm.store(PAGE, 1.0, 0).accepted);
    EXPECT_TRUE(nvm.store(PAGE, 1.0, 0).accepted);
    EXPECT_FALSE(nvm.store(PAGE, 1.0, 0).accepted);
    EXPECT_DOUBLE_EQ(nvm.utilization(), 1.0);
}

TEST(NvmBackendTest, HostNvmTier)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(
        workload::appPreset("ads_a", 512ull << 20),
        tier::TierChainSpec::parse("nvm"));
    machine.start();
    app.start();
    simulation.runUntil(5 * sim::SEC);
    machine.memory().reclaim(app.cgroup(), 460ull << 20,
                             simulation.now());
    EXPECT_GT(machine.nvm().usedBytes(), 0u);
    EXPECT_EQ(machine.swap().usedBytes(), 0u);
    EXPECT_EQ(machine.ssd().bytesWritten(), 0u);
}

// --- tiered hierarchy ----------------------------------------------------------

TEST(TieredTest, ColdPagesGoToSsdWarmToZswap)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto profile = workload::appPreset("feed", 512ull << 20);
    auto &app = machine.addApp(profile, tiered());
    machine.start();
    app.start();
    simulation.runUntil(5 * sim::SEC);

    // First eviction wave: nothing has working-set history yet, so
    // everything lands on the SSD cold tier.
    machine.memory().reclaim(app.cgroup(), 200ull << 20,
                             simulation.now());
    EXPECT_GT(machine.swap().usedBytes(), 0u);
    const auto zswap_first = machine.zswap().usedBytes();

    // Fault some pages back (marking them working set), evict again:
    // those pages now land in the compressed warm tier.
    simulation.runUntil(30 * sim::SEC);
    std::vector<mem::PageIdx> swapped;
    auto &pages = machine.memory().pages();
    for (mem::PageIdx i = 0; i < pages.size(); ++i)
        if (pages[i].where == mem::Where::SWAP && swapped.size() < 200)
            swapped.push_back(i);
    for (const auto idx : swapped)
        machine.memory().access(idx, simulation.now());
    // They are ACTIVE_ANON now; demote by reclaiming a lot.
    machine.memory().reclaim(app.cgroup(), 300ull << 20,
                             simulation.now());
    EXPECT_GT(machine.zswap().usedBytes(), zswap_first);
}

TEST(TieredTest, IncompressibleFallsThroughToSsd)
{
    sim::Simulation simulation;
    auto config = hostConfig();
    host::Host machine(simulation, config);
    // Incompressible workload: the zswap tier rejects; the tiered
    // policy must still make progress through the SSD.
    auto profile = workload::appPreset("ads_b", 512ull << 20);
    auto &app = machine.addApp(profile, tiered());
    machine.memory().memcgOf(app.cgroup()).compressibility = 1.0;
    machine.start();
    app.start();
    simulation.runUntil(5 * sim::SEC);

    // Mark everything working set so the warm tier is preferred...
    for (auto &page : machine.memory().pages())
        page.flags |= mem::PG_WORKINGSET;
    const auto outcome = machine.memory().reclaim(
        app.cgroup(), 200ull << 20, simulation.now());
    // ...yet eviction succeeded via fall-through.
    EXPECT_GT(outcome.anonPages, 0u);
    EXPECT_GT(machine.swap().usedBytes(), 0u);
}

TEST(TieredTest, PoolCapBoundsZswapDram)
{
    sim::Simulation simulation;
    auto config = hostConfig();
    config.zswap.maxPoolBytes = 8ull << 20; // tiny warm tier
    host::Host machine(simulation, config);
    auto profile = workload::appPreset("feed", 512ull << 20);
    auto &app = machine.addApp(profile, tiered());
    machine.start();
    app.start();
    simulation.runUntil(5 * sim::SEC);
    for (auto &page : machine.memory().pages())
        page.flags |= mem::PG_WORKINGSET; // all prefer the warm tier
    machine.memory().reclaim(app.cgroup(), 300ull << 20,
                             simulation.now());
    EXPECT_LE(machine.zswap().usedBytes(), 8ull << 20);
    EXPECT_GT(machine.swap().usedBytes(), 0u); // overflow demoted
}

TEST(TieredTest, LoadsResolveFromTheRightTier)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto profile = workload::appPreset("feed", 256ull << 20);
    auto &app = machine.addApp(profile, tiered());
    machine.start();
    app.start();
    simulation.runUntil(5 * sim::SEC);
    machine.memory().reclaim(app.cgroup(), 128ull << 20,
                             simulation.now());

    // Fault back one page from each tier and check stall semantics.
    auto &pages = machine.memory().pages();
    bool checked_swap = false, checked_zswap = false;
    for (mem::PageIdx i = 0;
         i < pages.size() && !(checked_swap && checked_zswap); ++i) {
        if (pages[i].where == mem::Where::SWAP && !checked_swap) {
            const auto r = machine.memory().access(i, simulation.now());
            EXPECT_GT(r.ioStall, 0u); // SSD: block IO
            checked_swap = true;
        } else if (pages[i].where == mem::Where::ZSWAP &&
                   !checked_zswap) {
            const auto r = machine.memory().access(i, simulation.now());
            EXPECT_EQ(r.ioStall, 0u); // compressed memory: no IO
            EXPECT_GT(r.memStall, 0u);
            checked_zswap = true;
        }
    }
    EXPECT_TRUE(checked_swap);
}

TEST(TieredTest, SenpaiWorksUnchangedOnTieredBackend)
{
    // §5.2's point: the hierarchy slots in below the same controller.
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto profile = workload::appPreset("feed", 512ull << 20);
    auto &app = machine.addApp(profile, tiered());
    machine.start();
    app.start();
    core::Senpai senpai(simulation, machine.memory(), app.cgroup());
    senpai.start();
    simulation.runUntil(15 * sim::MINUTE);
    EXPECT_GT(app.cgroup().stats().pgsteal, 0u);
    EXPECT_LT(app.cgroup().memCurrent(), app.allocatedBytes());
}
