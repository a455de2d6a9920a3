/**
 * @file
 * Determinism anchors: identical seeds must produce bit-identical
 * results across independent runs — the property that makes the
 * paired A/B tier methodology (§4.2) and every recorded experiment
 * reproducible.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "backend/filesystem.hpp"
#include "backend/ssd.hpp"
#include "backend/zswap.hpp"
#include "core/senpai.hpp"
#include "host/host.hpp"
#include "mem/memory_manager.hpp"
#include "tier/tier_chain.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace
{

/** Everything a run can disagree about, collapsed into one struct. */
struct RunDigest {
    std::uint64_t memCurrent;
    std::uint64_t pgscan;
    std::uint64_t pgsteal;
    std::uint64_t pswpin;
    std::uint64_t pswpout;
    std::uint64_t wsRefault;
    std::uint64_t ssdWritten;
    double rps;
    sim::SimTime memSome;
    sim::SimTime ioSome;

    bool
    operator==(const RunDigest &other) const
    {
        return memCurrent == other.memCurrent &&
               pgscan == other.pgscan && pgsteal == other.pgsteal &&
               pswpin == other.pswpin && pswpout == other.pswpout &&
               wsRefault == other.wsRefault &&
               ssdWritten == other.ssdWritten && rps == other.rps &&
               memSome == other.memSome && ioSome == other.ioSome;
    }
};

RunDigest
run(std::uint64_t seed, const std::string &tiers)
{
    sim::Simulation simulation;
    host::HostConfig config;
    config.mem.ramBytes = 1ull << 30;
    config.mem.pageBytes = 64 * 1024;
    config.seed = seed;
    host::Host machine(simulation, config);
    auto &app = machine.addApp(workload::appPreset("feed", 512ull << 20),
                               tier::TierChainSpec::parse(tiers));
    machine.start();
    app.start();
    core::Senpai senpai(simulation, machine.memory(), app.cgroup(),
                        core::senpaiAggressiveConfig());
    senpai.start();
    simulation.runUntil(10 * sim::MINUTE);

    const auto &stats = app.cgroup().stats();
    return RunDigest{
        app.cgroup().memCurrent(),
        stats.pgscan,
        stats.pgsteal,
        stats.pswpin,
        stats.pswpout,
        stats.wsRefault,
        machine.ssd().bytesWritten(),
        app.lastTick().completedRps,
        app.cgroup().psi().totalSome(psi::Resource::MEM,
                                     simulation.now()),
        app.cgroup().psi().totalSome(psi::Resource::IO,
                                     simulation.now()),
    };
}

} // namespace

TEST(DeterminismTest, IdenticalSeedsBitIdenticalRuns)
{
    for (const char *tiers :
         {"zswap", "ssd", "zswap+ssd;placement=workingset"}) {
        const auto first = run(1234, tiers);
        const auto second = run(1234, tiers);
        EXPECT_TRUE(first == second) << "tiers " << tiers;
    }
}

TEST(DeterminismTest, DifferentSeedsDiverge)
{
    const auto a = run(1, "zswap");
    const auto b = run(2, "zswap");
    // Same physics, different noise: digests must not be identical.
    EXPECT_FALSE(a == b);
}

TEST(DeterminismTest, SubtreeReclaimOrderIsStableAcrossInstances)
{
    // The memcg index maps (hash tables keyed by pointer) must never
    // influence observable ordering: two independently constructed
    // managers — whose cgroup addresses differ — fed the same
    // operation sequence must produce identical counters.
    auto episode = [] {
        cgroup::CgroupTree tree;
        backend::SsdDevice ssd(backend::ssdSpecForClass('C'), 1);
        backend::FilesystemBackend fs(ssd);
        backend::ZswapPool zswap({}, 2);
        tier::TierChain chain("zswap", {&zswap}, {});
        mem::MemoryConfig config;
        config.ramBytes = 256ull << 20;
        config.pageBytes = 64 * 1024;
        mem::MemoryManager mm(config, 5);
        auto &parent = tree.create("root");
        std::vector<cgroup::Cgroup *> cgs;
        std::vector<mem::PageIdx> pages;
        for (int c = 0; c < 24; ++c) {
            cgs.push_back(
                &tree.create("c" + std::to_string(c), &parent));
            mm.attach(*cgs.back(), &chain, &fs, 3.0);
            for (int i = 0; i < 20; ++i)
                pages.push_back(
                    mm.newPage(*cgs.back(), i % 2 == 0, true, 0));
        }
        sim::Rng rng(99);
        std::vector<std::uint64_t> digest;
        for (int round = 0; round < 12; ++round) {
            const auto now =
                static_cast<sim::SimTime>(round + 1) * sim::SEC;
            for (int i = 0; i < 64; ++i)
                mm.access(pages[rng.uniformInt(pages.size())], now);
            const auto outcome =
                mm.reclaim(parent, (24 + round) * 64 * 1024, now);
            digest.push_back(outcome.reclaimedBytes);
            digest.push_back(outcome.scannedPages);
        }
        for (const auto *child : cgs) {
            digest.push_back(child->stats().pgscan);
            digest.push_back(child->stats().pgsteal);
            digest.push_back(child->stats().pswpout);
            digest.push_back(child->memCurrent());
        }
        return digest;
    };
    EXPECT_EQ(episode(), episode());
}

TEST(DeterminismTest, PairedTiersStayComparable)
{
    // The A/B methodology: same seed, different treatment. Workload-
    // side counters driven purely by the access pattern (scans) track
    // closely even though reclaim differs.
    const auto control = run(777, "zswap");
    const auto treated = run(777, "ssd");
    EXPECT_NEAR(treated.rps, control.rps, 0.1 * control.rps);
}
