/**
 * @file
 * Fig. 2 — Memory recently used within 1/2/5 minutes plus the cold
 * remainder, for seven applications and their average (§2.2).
 *
 * Each app runs alone on an amply provisioned host (no reclaim), and
 * after the workload settles we read the page idle-age histogram.
 */

#include <iostream>

#include "bench_common.hpp"
#include "sim/simulation.hpp"

using namespace tmo;

int
main()
{
    bench::banner("Fig. 2", "application memory coldness (idle ages)");

    struct Row {
        std::string app;
        mem::IdleBreakdown breakdown;
    };
    std::vector<Row> rows;

    for (const auto &name : workload::appPresetNames()) {
        sim::Simulation simulation;
        host::Host machine(simulation, bench::standardHost());
        auto profile = workload::appPreset(name, 1ull << 30);
        // Characterization run: no growth dynamics, just reuse.
        profile.growthSeconds = 0.0;
        for (auto &region : profile.regions)
            region.lazy = false;
        auto &app =
            machine.addApp(profile, tier::TierChainSpec::parse("none"));
        machine.start();
        app.start();
        simulation.runUntil(8 * sim::MINUTE);
        rows.push_back({name, machine.memory().idleBreakdown(
                                  app.cgroup(), simulation.now())});
    }

    stats::Table table;
    table.setHeader({"app", "used_1min_%", "used_2min_%", "used_5min_%",
                     "cold_%"});
    mem::IdleBreakdown avg;
    for (const auto &row : rows) {
        table.addRow({row.app,
                      stats::fmt(row.breakdown.used1min * 100, 1),
                      stats::fmt(row.breakdown.used2min * 100, 1),
                      stats::fmt(row.breakdown.used5min * 100, 1),
                      stats::fmt(row.breakdown.cold * 100, 1)});
        const auto n_rows = static_cast<double>(rows.size());
        avg.used1min += row.breakdown.used1min / n_rows;
        avg.used2min += row.breakdown.used2min / n_rows;
        avg.used5min += row.breakdown.used5min / n_rows;
        avg.cold += row.breakdown.cold / n_rows;
    }
    table.addRow({"average", stats::fmt(avg.used1min * 100, 1),
                  stats::fmt(avg.used2min * 100, 1),
                  stats::fmt(avg.used5min * 100, 1),
                  stats::fmt(avg.cold * 100, 1)});
    table.print(std::cout);

    auto find = [&](const std::string &name) -> const mem::IdleBreakdown & {
        for (const auto &row : rows)
            if (row.app == name)
                return row.breakdown;
        static mem::IdleBreakdown none;
        return none;
    };

    std::cout << "\npaper: Feed 50/8/12/30; Cache B 81% active in 5min;"
                 " Web only 38% active; cold average ~35%, range"
                 " 19-62%\n";
    bench::ShapeChecker shape;
    const auto &feed = find("feed");
    shape.expect(std::abs(feed.used1min - 0.50) < 0.08,
                 "Feed ~50% used within 1 min");
    shape.expect(std::abs(feed.cold - 0.30) < 0.08,
                 "Feed ~30% cold past 5 min");
    const auto &cache_b = find("cache_b");
    shape.expect(1.0 - cache_b.cold > 0.72,
                 "Cache B ~81% active within 5 min");
    const auto &web = find("web");
    shape.expect(1.0 - web.cold < 0.48, "Web only ~38% active in 5 min");
    shape.expect(avg.cold > 0.25 && avg.cold < 0.45,
                 "average cold fraction ~35%");
    double min_cold = 1.0, max_cold = 0.0;
    for (const auto &row : rows) {
        min_cold = std::min(min_cold, row.breakdown.cold);
        max_cold = std::max(max_cold, row.breakdown.cold);
    }
    shape.expect(min_cold < 0.25 && max_cold > 0.55,
                 "cold range spans ~19-62% across apps");
    return shape.verdict();
}
