/**
 * @file
 * Fig. 3 — Datacenter and microservice memory tax as a percentage of
 * total server memory (§2.3).
 *
 * A representative host runs one primary application plus the standard
 * sidecar set: datacenter-tax services (logging, profiling, service
 * discovery) and microservice-tax services (proxy, router). The bench
 * measures each tax class's share of server memory.
 */

#include <iostream>

#include "bench_common.hpp"
#include "sim/simulation.hpp"

using namespace tmo;

int
main()
{
    bench::banner("Fig. 3", "datacenter and microservice memory tax");

    sim::Simulation simulation;
    const std::uint64_t ram = 4ull << 30;
    host::Host machine(simulation, bench::standardHost('C', ram));

    // Primary workload plus the sidecar population sized like the
    // paper's fleet averages: DC tax ~13%, microservice tax ~7%.
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
    std::vector<workload::AppModel *> apps = {&app};
    for (const auto &sc : sidecars) {
        auto &model = machine.addApp(
            workload::sidecarPreset(sc.preset, sc.mb << 20),
            tier::TierChainSpec::parse("none"), sc.parent);
        apps.push_back(&model);
    }
    machine.start();
    for (auto *a : apps)
        a->start();
    simulation.runUntil(5 * sim::MINUTE);

    const double total = static_cast<double>(ram);
    const double dc_pct =
        static_cast<double>(dc_parent.memCurrent()) / total * 100;
    const double ms_pct =
        static_cast<double>(ms_parent.memCurrent()) / total * 100;
    const double app_pct =
        static_cast<double>(app.cgroup().memCurrent()) / total * 100;

    stats::Table table;
    table.setHeader({"class", "memory_% of server"});
    table.addRow({"application", stats::fmt(app_pct, 1)});
    table.addRow({"datacenter tax", stats::fmt(dc_pct, 1)});
    table.addRow({"microservice tax", stats::fmt(ms_pct, 1)});
    table.addRow({"total tax", stats::fmt(dc_pct + ms_pct, 1)});
    table.print(std::cout);

    std::cout << "\npaper: datacenter tax 13%, microservice tax 7%,"
                 " total ~20% of server memory\n";
    bench::ShapeChecker shape;
    shape.expect(std::abs(dc_pct - 13.0) < 3.0,
                 "datacenter tax ~13% of server memory");
    shape.expect(std::abs(ms_pct - 7.0) < 2.5,
                 "microservice tax ~7% of server memory");
    shape.expect(std::abs(dc_pct + ms_pct - 20.0) < 4.0,
                 "total tax ~20%");
    shape.expect(dc_pct > ms_pct, "datacenter tax exceeds microservice tax");
    return shape.verdict();
}
