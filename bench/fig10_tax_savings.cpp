/**
 * @file
 * Fig. 10 — Datacenter and microservice memory-tax savings under TMO,
 * normalized to total server memory (§4.1). Paper: the DC tax shrinks
 * from 13% to ~4% (9% of server memory saved), the microservice tax
 * from 7% to ~3% (4% saved), 13% total tax savings.
 */

#include <iostream>

#include "bench_common.hpp"
#include "core/tmo_daemon.hpp"
#include "sim/simulation.hpp"

using namespace tmo;

namespace
{

struct TaxShares {
    double dcPct;
    double msPct;
};

/** Build the representative host and measure tax shares. */
TaxShares
run(bool with_tmo)
{
    sim::Simulation simulation;
    const std::uint64_t ram = 4ull << 30;
    host::Host machine(simulation, bench::standardHost('C', ram));

    auto &app = machine.addApp(
        workload::appPreset("feed", 2400ull << 20),
        tier::TierChainSpec::parse("none"));
    auto &dc_parent = machine.createContainer("dc_tax");
    auto &ms_parent = machine.createContainer("ms_tax");

    struct Sidecar {
        const char *preset;
        std::uint64_t mb;
        cgroup::Cgroup *parent;
    };
    const Sidecar sidecars[] = {
        {"dc_logging", 220, &dc_parent},
        {"dc_profiling", 160, &dc_parent},
        {"dc_discovery", 150, &dc_parent},
        {"ms_proxy", 160, &ms_parent},
        {"ms_router", 130, &ms_parent},
    };
    std::vector<workload::AppModel *> models = {&app};
    for (const auto &sc : sidecars) {
        auto &model = machine.addApp(
            workload::sidecarPreset(sc.preset, sc.mb << 20),
            tier::TierChainSpec::parse("zswap"), sc.parent);
        model.cgroup().setPriority(cgroup::Priority::LOW);
        models.push_back(&model);
    }
    machine.start();
    for (auto *m : models)
        m->start();

    core::TmoDaemon daemon(simulation, machine.memory());
    if (with_tmo) {
        // First production launch: target the tax containers (§2.3 —
        // their SLAs are relaxed; priority LOW scales up the step).
        for (auto *m : models)
            if (m != &app)
                daemon.manage(m->cgroup());
        daemon.startAll();
    }
    simulation.runUntil(with_tmo ? 2 * sim::HOUR : 5 * sim::MINUTE);

    const double total = static_cast<double>(ram);
    return TaxShares{
        static_cast<double>(dc_parent.memCurrent()) / total * 100,
        static_cast<double>(ms_parent.memCurrent()) / total * 100};
}

} // namespace

int
main()
{
    bench::banner("Fig. 10", "memory-tax savings under TMO");

    const auto before = run(false);
    const auto after = run(true);
    const double dc_saved = before.dcPct - after.dcPct;
    const double ms_saved = before.msPct - after.msPct;

    stats::Table table;
    table.setHeader({"tax class", "w/o TMO_%", "w/ TMO_%", "saved_%"});
    table.addRow({"datacenter", stats::fmt(before.dcPct, 1),
                  stats::fmt(after.dcPct, 1), stats::fmt(dc_saved, 1)});
    table.addRow({"microservice", stats::fmt(before.msPct, 1),
                  stats::fmt(after.msPct, 1), stats::fmt(ms_saved, 1)});
    table.addRow({"total", stats::fmt(before.dcPct + before.msPct, 1),
                  stats::fmt(after.dcPct + after.msPct, 1),
                  stats::fmt(dc_saved + ms_saved, 1)});
    table.print(std::cout);

    std::cout << "\npaper: DC tax saves 9% of server memory,"
                 " microservice tax 4%, total 13%\n";
    bench::ShapeChecker shape;
    shape.expect(std::abs(before.dcPct - 13.0) < 3.0,
                 "DC tax starts near 13% of server memory");
    shape.expect(std::abs(before.msPct - 7.0) < 2.5,
                 "microservice tax starts near 7%");
    shape.expect(dc_saved > 4.0, "DC tax saves a large share (paper: 9%)");
    shape.expect(ms_saved > 1.5,
                 "microservice tax saves a meaningful share (paper: 4%)");
    shape.expect(dc_saved > ms_saved,
                 "DC tax contributes more absolute savings");
    return shape.verdict();
}
