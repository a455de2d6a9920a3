/**
 * @file
 * §3.3 robustness claim — "TMO's effectiveness is not very sensitive
 * to these parameters. [...] we strive for using a single globally
 * optimal Senpai configuration to support all applications."
 *
 * The bench sweeps reclaim_ratio and PSI_threshold across an order of
 * magnitude around the production point and reports savings and RPS
 * retention. The claim holds if savings vary mildly across the sweep
 * (same order of magnitude) while RPS stays essentially flat —
 * i.e. the control law, not the constants, does the work.
 */

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/senpai.hpp"
#include "sim/simulation.hpp"

using namespace tmo;

namespace
{

struct Cell {
    double ratio;
    double threshold;
    double savingsPct = 0.0;
    double rpsRetention = 0.0;
};

Cell
run(double ratio_mult, double threshold_mult)
{
    sim::Simulation simulation;
    host::Host machine(simulation, bench::standardHost());
    auto profile = workload::appPreset("feed", 1ull << 30);
    auto &app = machine.addApp(profile, tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();

    auto config = bench::scaledProductionConfig();
    config.reclaimRatio *= ratio_mult;
    config.psiThreshold *= threshold_mult;
    core::Senpai senpai(simulation, machine.memory(), app.cgroup(),
                        config);
    senpai.start();
    simulation.runUntil(6 * sim::HOUR);

    Cell cell;
    cell.ratio = config.reclaimRatio;
    cell.threshold = config.psiThreshold;
    cell.savingsPct = bench::savingsFraction(app) * 100.0;
    cell.rpsRetention = app.lastTick().completedRps /
                        std::max(1.0, app.lastTick().offeredRps);
    return cell;
}

} // namespace

int
main()
{
    bench::banner("Table",
                  "Senpai parameter sensitivity (§3.3 robustness)");

    const double ratio_mults[] = {0.3, 1.0, 3.0};
    const double threshold_mults[] = {0.3, 1.0, 3.0};

    stats::Table table;
    table.setHeader({"reclaim_ratio", "psi_threshold", "savings_%",
                     "rps_retention"});
    std::vector<Cell> cells;
    for (const double rm : ratio_mults) {
        for (const double tm : threshold_mults) {
            cells.push_back(run(rm, tm));
            const auto &cell = cells.back();
            table.addRow({stats::fmt(cell.ratio, 5),
                          stats::fmt(cell.threshold * 100, 4) + "%",
                          stats::fmt(cell.savingsPct, 1),
                          stats::fmtPercent(cell.rpsRetention, 1)});
        }
    }
    table.print(std::cout);

    double min_savings = 1e9, max_savings = 0;
    double min_rps = 1.0;
    for (const auto &cell : cells) {
        min_savings = std::min(min_savings, cell.savingsPct);
        max_savings = std::max(max_savings, cell.savingsPct);
        min_rps = std::min(min_rps, cell.rpsRetention);
    }

    std::cout << "\npaper: effectiveness not very sensitive to these"
                 " parameters; one global config serves all apps\n";
    bench::ShapeChecker shape;
    shape.expect(min_savings > 2.0,
                 "every configuration in the sweep saves real memory");
    shape.expect(max_savings / std::max(min_savings, 0.1) < 4.0,
                 "savings vary mildly (<4x) across a 10x parameter"
                 " range");
    shape.expect(min_rps > 0.93,
                 "RPS essentially unharmed across the whole sweep");
    return shape.verdict();
}
