/**
 * @file
 * §4.3 / §6 — TMO (PSI-driven Senpai) vs the g-swap baseline (static
 * offline-profiled promotion-rate target) across device heterogeneity.
 *
 * The same g-swap target rate is deployed on a fast-SSD host and a
 * slow-SSD host (profiling was done once, offline, on some machine);
 * Senpai runs with one config too — but PSI folds in device speed, so
 * only Senpai adapts. The table reports savings, stall time, and RPS
 * retention per controller and device.
 */

#include <iostream>
#include <memory>

#include "baseline/gswap.hpp"
#include "bench_common.hpp"
#include "core/senpai.hpp"
#include "sim/simulation.hpp"

using namespace tmo;

namespace
{

struct Outcome {
    double savingsPct = 0.0;
    double stallMsPerMin = 0.0;
    double rpsRetention = 0.0;
};

Outcome
run(bool use_tmo, char ssd_class)
{
    sim::Simulation simulation;
    host::Host machine(simulation,
                       bench::standardHost(ssd_class, 2ull << 30, 42));
    auto profile = workload::appPreset("web", 1300ull << 20);
    profile.growthSeconds = 0.0;
    for (auto &region : profile.regions)
        region.lazy = false;
    auto &app = machine.addApp(profile, tier::TierChainSpec::parse("ssd"));
    machine.start();
    app.start();

    std::unique_ptr<core::Senpai> senpai;
    std::unique_ptr<baseline::GswapController> gswap;
    if (use_tmo) {
        senpai = std::make_unique<core::Senpai>(
            simulation, machine.memory(), app.cgroup(),
            bench::scaledProductionConfig());
        senpai->start();
    } else {
        // Offline-profiled static target (tuned for the fast device).
        gswap = std::make_unique<baseline::GswapController>(
            simulation, machine.memory(), app.cgroup(),
            baseline::GswapConfig{0.2, 6 * sim::SEC, 0.002});
        gswap->start();
    }
    const auto horizon = 6 * sim::HOUR;
    simulation.runUntil(horizon);

    Outcome outcome;
    outcome.savingsPct = bench::savingsFraction(app) * 100.0;
    const auto stall = app.cgroup().psi().totalSome(
        psi::Resource::MEM, simulation.now());
    outcome.stallMsPerMin = static_cast<double>(stall) / sim::MSEC /
                            (sim::toSeconds(horizon) / 60.0);
    outcome.rpsRetention = app.lastTick().completedRps /
                           std::max(1.0, app.lastTick().offeredRps);
    return outcome;
}

} // namespace

int
main()
{
    bench::banner("Table", "TMO (PSI) vs g-swap (promotion target)");

    struct Row {
        const char *controller;
        char ssd;
        Outcome outcome;
    };
    std::vector<Row> rows = {
        {"gswap", 'C', run(false, 'C')},
        {"gswap", 'B', run(false, 'B')},
        {"tmo", 'C', run(true, 'C')},
        {"tmo", 'B', run(true, 'B')},
    };

    stats::Table table;
    table.setHeader({"controller", "device", "savings_%",
                     "stall_ms_per_min", "rps_retention"});
    for (const auto &row : rows) {
        table.addRow({row.controller,
                      std::string("ssd-") + row.ssd,
                      stats::fmt(row.outcome.savingsPct, 1),
                      stats::fmt(row.outcome.stallMsPerMin, 1),
                      stats::fmtPercent(row.outcome.rpsRetention, 1)});
    }
    table.print(std::cout);

    const auto &gswap_fast = rows[0].outcome;
    const auto &gswap_slow = rows[1].outcome;
    const auto &tmo_fast = rows[2].outcome;
    const auto &tmo_slow = rows[3].outcome;

    std::cout << "\npaper: a static promotion target ignores device"
                 " performance; PSI adapts per device and protects the"
                 " workload\n";
    bench::ShapeChecker shape;
    shape.expect(gswap_slow.stallMsPerMin > 2.0 * tmo_slow.stallMsPerMin,
                 "on the slow device g-swap inflicts much more stall"
                 " time than TMO");
    shape.expect(tmo_fast.savingsPct > tmo_slow.savingsPct,
                 "TMO offloads more on the faster device (adapts)");
    const double gswap_adapt =
        std::abs(gswap_fast.savingsPct - gswap_slow.savingsPct);
    shape.expect(gswap_adapt <
                     std::abs(tmo_fast.savingsPct - tmo_slow.savingsPct) +
                         2.0,
                 "g-swap's offload decision barely changes with the"
                 " device");
    shape.expect(tmo_slow.rpsRetention >= gswap_slow.rpsRetention - 0.02,
                 "TMO preserves RPS at least as well on slow devices");
    return shape.verdict();
}
