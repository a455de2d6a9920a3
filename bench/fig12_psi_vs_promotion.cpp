/**
 * @file
 * Fig. 12 — Web under TMO with a fast SSD (class C) vs a slow SSD
 * (class B) (§4.3). Panels: (a) P90 SSD read latency, (b) resident
 * memory & swap size, (c) promotion rate (swap-ins/s), (d) RPS,
 * (e) memory pressure, (f) IO pressure.
 *
 * The headline: the host with the *higher* promotion rate (fast SSD)
 * also has the *higher* RPS and the *lower* pressure — the promotion
 * rate is not a usable proxy for application impact, PSI is.
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
    stats::TimeSeries p90{"p90_read_ms"};
    stats::TimeSeries resident{"resident_gb"};
    stats::TimeSeries swapSize{"swap_gb"};
    stats::TimeSeries promotion{"swapins_per_s"};
    stats::TimeSeries rps{"rps"};
    stats::TimeSeries memPsi{"mem_psi"};
    stats::TimeSeries ioPsi{"io_psi"};
    std::uint64_t lastSwapins = 0;
    sim::SimTime lastMem = 0, lastIo = 0, lastSample = 0;
};

} // namespace

int
main()
{
    bench::banner("Fig. 12", "PSI vs promotion rate: fast vs slow SSD");

    sim::Simulation simulation;
    Tier tiers[2];
    const char classes[2] = {'C', 'B'}; // fast, slow
    const char *names[2] = {"fast", "slow"};
    for (int i = 0; i < 2; ++i) {
        auto config = bench::standardHost(classes[i], 2ull << 30, 42);
        tiers[i].host = std::make_unique<host::Host>(
            simulation, config, names[i]);
        auto profile = workload::appPreset("web", 1300ull << 20);
        profile.growthSeconds = 0.0;
        for (auto &region : profile.regions)
            region.lazy = false;
        tiers[i].app = &tiers[i].host->addApp(
            profile, tier::TierChainSpec::parse("ssd"));
        tiers[i].host->start();
        tiers[i].app->start();
        tiers[i].senpai = std::make_unique<core::Senpai>(
            simulation, tiers[i].host->memory(),
            tiers[i].app->cgroup(), bench::scaledProductionConfig());
        tiers[i].senpai->start();
    }

    simulation.every(2 * sim::MINUTE, [&] {
        const auto now = simulation.now();
        for (auto &tier : tiers) {
            const double window_s =
                sim::toSeconds(now - tier.lastSample);
            tier.p90.record(
                now, tier.host->ssd().readLatency().p90() / 1000.0);
            const auto info =
                tier.host->memory().info(tier.app->cgroup());
            tier.resident.record(
                now, static_cast<double>(info.residentBytes) / (1 << 30));
            tier.swapSize.record(
                now, static_cast<double>(info.swapBytes) / (1 << 30));
            const auto swapins = tier.app->cgroup().stats().pswpin;
            tier.promotion.record(
                now, window_s > 0
                         ? static_cast<double>(swapins -
                                               tier.lastSwapins) /
                               window_s
                         : 0.0);
            tier.lastSwapins = swapins;
            tier.rps.record(now, tier.app->lastTick().completedRps);
            const auto mem = tier.app->cgroup().psi().totalSome(
                psi::Resource::MEM, now);
            const auto io = tier.app->cgroup().psi().totalSome(
                psi::Resource::IO, now);
            if (now > tier.lastSample) {
                const double span =
                    static_cast<double>(now - tier.lastSample);
                tier.memPsi.record(
                    now, static_cast<double>(mem - tier.lastMem) / span *
                             100.0);
                tier.ioPsi.record(
                    now,
                    static_cast<double>(io - tier.lastIo) / span * 100.0);
            }
            tier.lastMem = mem;
            tier.lastIo = io;
            tier.lastSample = now;
        }
        return true;
    });
    simulation.runUntil(HORIZON);

    std::cout << "time_min,p90_fast_ms,p90_slow_ms,res_fast_gb,"
                 "res_slow_gb,swap_fast_gb,swap_slow_gb,promo_fast,"
                 "promo_slow,rps_fast,rps_slow,mempsi_fast,mempsi_slow,"
                 "iopsi_fast,iopsi_slow\n";
    for (std::size_t i = 0; i < tiers[0].rps.size(); i += 2) {
        const auto t = tiers[0].rps.samples()[i].time;
        auto v = [&](const stats::TimeSeries &s) {
            return i < s.size() ? s.samples()[i].value : 0.0;
        };
        std::cout << stats::fmt(sim::toSeconds(t) / 60, 0) << ","
                  << stats::fmt(v(tiers[0].p90), 2) << ","
                  << stats::fmt(v(tiers[1].p90), 2) << ","
                  << stats::fmt(v(tiers[0].resident), 3) << ","
                  << stats::fmt(v(tiers[1].resident), 3) << ","
                  << stats::fmt(v(tiers[0].swapSize), 3) << ","
                  << stats::fmt(v(tiers[1].swapSize), 3) << ","
                  << stats::fmt(v(tiers[0].promotion), 1) << ","
                  << stats::fmt(v(tiers[1].promotion), 1) << ","
                  << stats::fmt(v(tiers[0].rps), 0) << ","
                  << stats::fmt(v(tiers[1].rps), 0) << ","
                  << stats::fmt(v(tiers[0].memPsi), 3) << ","
                  << stats::fmt(v(tiers[1].memPsi), 3) << ","
                  << stats::fmt(v(tiers[0].ioPsi), 3) << ","
                  << stats::fmt(v(tiers[1].ioPsi), 3) << "\n";
    }

    std::cout << "\npaper: slow SSD has worse P90 latency; fast SSD"
                 " swaps more (higher promotion rate) AND delivers"
                 " higher RPS; pressures stay within target on both\n";
    bench::ShapeChecker shape;
    const auto late = [&](const stats::TimeSeries &s) {
        return s.meanBetween(HORIZON / 2, HORIZON);
    };
    shape.expect(late(tiers[1].p90) > 2.0 * late(tiers[0].p90),
                 "slow SSD P90 read latency much worse than fast");
    shape.expect(late(tiers[0].swapSize) > late(tiers[1].swapSize),
                 "fast SSD sustains a larger swap size");
    shape.expect(late(tiers[0].resident) < late(tiers[1].resident),
                 "fast SSD ends with lower resident memory");
    shape.expect(late(tiers[0].promotion) > late(tiers[1].promotion),
                 "fast SSD has the HIGHER promotion rate");
    shape.expect(late(tiers[0].rps) >= late(tiers[1].rps),
                 "...and still the higher (or equal) RPS: promotion"
                 " rate is not a performance proxy");
    shape.expect(late(tiers[1].memPsi) >= late(tiers[0].memPsi) * 0.8,
                 "slow-SSD pressure at least comparable despite less"
                 " offloading");
    return shape.verdict();
}
