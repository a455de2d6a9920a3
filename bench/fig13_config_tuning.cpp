/**
 * @file
 * Fig. 13 — Senpai configuration tuning on non-memory-bound Web hosts
 * with a compressed-memory backend (§4.4): baseline (TMO disabled) vs
 * the mild production Config A vs the aggressive Config B.
 *
 * Panels: (a) resident memory, (b) RPS, (c) memory PSI, (d) IO PSI,
 * (e) SSD read rate, (f) file cache size.
 *
 * Paper shapes: Config B saves much more memory but drags file cache
 * down, driving SSD reads and IO pressure up and RPS down (the
 * workload is frontend-bound on bytecode served from file cache);
 * Config A tracks baseline pressure and is RPS-neutral.
 */

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "core/senpai.hpp"
#include "sim/simulation.hpp"

using namespace tmo;

namespace
{

constexpr sim::SimTime HORIZON = 8 * sim::HOUR;

struct Tier {
    std::unique_ptr<host::Host> host;
    workload::AppModel *app = nullptr;
    std::unique_ptr<core::Senpai> senpai;
    stats::TimeSeries resident{"resident_gb"};
    stats::TimeSeries rps{"rps"};
    stats::TimeSeries memPsi{"mem_psi_pct"};
    stats::TimeSeries ioPsi{"io_psi_pct"};
    stats::TimeSeries reads{"ssd_reads_per_s"};
    stats::TimeSeries fileCache{"file_cache_gb"};
    sim::SimTime lastMem = 0, lastIo = 0, lastSample = 0;
};

} // namespace

int
main()
{
    bench::banner("Fig. 13",
                  "Senpai config tuning: baseline vs A vs B (zswap)");

    sim::Simulation simulation;
    Tier tiers[3];
    const char *names[3] = {"baseline", "config_a", "config_b"};
    for (int i = 0; i < 3; ++i) {
        auto config = bench::standardHost('C', 2ull << 30, 42);
        tiers[i].host = std::make_unique<host::Host>(
            simulation, config, names[i]);
        auto profile = workload::appPreset("web", 1200ull << 20);
        profile.growthSeconds = 0.0;
        for (auto &region : profile.regions)
            region.lazy = false;
        tiers[i].app = &tiers[i].host->addApp(
            profile, tier::TierChainSpec::parse("zswap"));
        tiers[i].host->start();
        tiers[i].app->start();
    }
    tiers[1].senpai = std::make_unique<core::Senpai>(
        simulation, tiers[1].host->memory(), tiers[1].app->cgroup(),
        bench::scaledProductionConfig());
    tiers[2].senpai = std::make_unique<core::Senpai>(
        simulation, tiers[2].host->memory(), tiers[2].app->cgroup(),
        bench::scaledAggressiveConfig());
    tiers[1].senpai->start();
    tiers[2].senpai->start();

    simulation.every(2 * sim::MINUTE, [&] {
        const auto now = simulation.now();
        for (auto &tier : tiers) {
            const auto info =
                tier.host->memory().info(tier.app->cgroup());
            tier.resident.record(
                now,
                static_cast<double>(tier.app->cgroup().memCurrent()) /
                    (1 << 30));
            tier.rps.record(now, tier.app->lastTick().completedRps);
            tier.fileCache.record(
                now, static_cast<double>(info.fileBytes) / (1 << 30));
            tier.reads.record(now,
                              tier.host->ssd().readOpsRate(now));
            const auto mem = tier.app->cgroup().psi().totalSome(
                psi::Resource::MEM, now);
            const auto io = tier.app->cgroup().psi().totalSome(
                psi::Resource::IO, now);
            if (now > tier.lastSample) {
                const double span =
                    static_cast<double>(now - tier.lastSample);
                tier.memPsi.record(
                    now, static_cast<double>(mem - tier.lastMem) /
                             span * 100.0);
                tier.ioPsi.record(
                    now, static_cast<double>(io - tier.lastIo) /
                             span * 100.0);
            }
            tier.lastMem = mem;
            tier.lastIo = io;
            tier.lastSample = now;
        }
        return true;
    });
    simulation.runUntil(HORIZON);

    std::cout << "time_min";
    for (const auto *panel :
         {"res_gb", "rps", "mem_psi", "io_psi", "ssd_reads", "fcache_gb"})
        for (const auto *tier : names)
            std::cout << "," << panel << "_" << tier;
    std::cout << "\n";
    for (std::size_t i = 0; i < tiers[0].rps.size(); i += 4) {
        std::cout << stats::fmt(
            sim::toSeconds(tiers[0].rps.samples()[i].time) / 60, 0);
        auto v = [&](const stats::TimeSeries &s) {
            return i < s.size() ? s.samples()[i].value : 0.0;
        };
        for (auto panel : {&Tier::resident, &Tier::rps, &Tier::memPsi,
                           &Tier::ioPsi, &Tier::reads,
                           &Tier::fileCache}) {
            for (auto &tier : tiers)
                std::cout << "," << stats::fmt(v(tier.*panel), 3);
        }
        std::cout << "\n";
    }

    std::cout << "\npaper: A saves modestly & is RPS-neutral; B saves"
                 " a lot but raises IO pressure / SSD reads, shrinks"
                 " file cache too far and loses RPS\n";
    bench::ShapeChecker shape;
    const auto late = [&](const stats::TimeSeries &s) {
        return s.meanBetween(HORIZON / 2, HORIZON);
    };
    shape.expect(late(tiers[1].resident) < late(tiers[0].resident),
                 "Config A achieves modest savings vs baseline");
    shape.expect(late(tiers[2].resident) < late(tiers[1].resident),
                 "Config B achieves larger savings than A");
    shape.expect(late(tiers[1].rps) > 0.95 * late(tiers[0].rps),
                 "Config A is RPS-neutral (within 5% of baseline)");
    shape.expect(late(tiers[2].rps) < 0.97 * late(tiers[0].rps),
                 "Config B regresses RPS");
    shape.expect(late(tiers[2].ioPsi) > late(tiers[1].ioPsi),
                 "Config B sustains higher IO pressure than A");
    shape.expect(late(tiers[2].reads) > late(tiers[1].reads),
                 "Config B drives higher SSD read rates");
    shape.expect(late(tiers[2].fileCache) < late(tiers[1].fileCache),
                 "Config B squeezes the file cache harder");
    return shape.verdict();
}
