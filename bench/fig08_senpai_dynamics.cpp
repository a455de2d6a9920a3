/**
 * @file
 * Fig. 8 — Senpai operation: PSI tracking against the pressure
 * threshold and the resulting reclaim-volume tuning (§3.3). The bench
 * records the controller's observed pressure and its reclaim steps
 * and shows the feedback loop: big steps while pressure is far below
 * the threshold, shrinking steps as pressure approaches it.
 */

#include <iostream>

#include "bench_common.hpp"
#include "core/senpai.hpp"
#include "sim/simulation.hpp"

using namespace tmo;

int
main()
{
    bench::banner("Fig. 8", "Senpai PSI tracking and reclaim tuning");

    sim::Simulation simulation;
    host::Host machine(simulation, bench::standardHost());
    auto &app = machine.addApp(
        workload::appPreset("feed", 1ull << 30),
        tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    simulation.runUntil(30 * sim::SEC);

    auto config = core::senpaiProductionConfig();
    // A slightly larger step makes the feedback visible within the
    // bench horizon without changing the control law.
    config.reclaimRatio = 0.004;
    core::Senpai senpai(simulation, machine.memory(), app.cgroup(),
                        config);
    senpai.start();
    simulation.runUntil(20 * sim::MINUTE);

    // Print the two series, downsampled.
    std::cout << "time_s,psi_some_window,reclaim_bytes\n";
    const auto &pressure = senpai.pressureSeries().samples();
    const auto &reclaim = senpai.reclaimSeries().samples();
    for (std::size_t i = 0; i < pressure.size(); i += 5) {
        std::cout << stats::fmt(sim::toSeconds(pressure[i].time), 0)
                  << "," << stats::fmt(pressure[i].value, 6) << ","
                  << stats::fmt(reclaim[i].value, 0) << "\n";
    }

    // Shape: the controller reclaims, pressure stays at or below the
    // same order as the threshold, and reclaim volume responds
    // inversely to observed pressure.
    bench::ShapeChecker shape;
    std::cout << "\npaper: reclaim volume modulates against the"
                 " pressure threshold; steady mild pressure\n";
    shape.expect(senpai.totalRequested() > (50ull << 20),
                 "controller continuously engages reclaim");
    const double late_pressure = senpai.pressureSeries().meanBetween(
        15 * sim::MINUTE, 20 * sim::MINUTE);
    shape.expect(late_pressure < 10 * config.psiThreshold,
                 "steady-state pressure stays mild (~threshold)");

    // Correlation check: ticks with pressure above threshold must have
    // zero reclaim; ticks far below threshold reclaim near the cap.
    bool gating_ok = true;
    double max_step = 0.0;
    for (std::size_t i = 0; i < pressure.size(); ++i) {
        if (pressure[i].value >= config.psiThreshold &&
            reclaim[i].value > 0)
            gating_ok = false;
        max_step = std::max(max_step, reclaim[i].value);
    }
    shape.expect(gating_ok,
                 "no reclaim requested while pressure >= threshold");
    shape.expect(
        max_step <= config.reclaimRatio *
                        static_cast<double>(app.allocatedBytes()) * 1.01,
        "step bounded by reclaim_ratio * current_mem");
    shape.expect(bench::savingsFraction(app) > 0.02,
                 "memory footprint visibly reduced");
    return shape.verdict();
}
