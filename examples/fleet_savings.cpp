/**
 * @file
 * Fleet rollup: heterogeneous hosts (different SSD generations,
 * different workloads, app + sidecar containers) under the TMO daemon,
 * reporting per-host and aggregate savings — the §4.1 deployment view.
 *
 * Also the FleetSpec/HostBuilder showcase: a prototype host plus a
 * per-index customize() hook describes the whole heterogeneous fleet,
 * and run(..., jobs) advances the shards in parallel without changing
 * any result.
 *
 * Build & run:  ./build/examples/fleet_savings
 */

#include <iostream>

#include "host/fleet.hpp"
#include "stats/table.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

int
main()
{
    struct Node {
        const char *app;
        char ssd;
        const char *tiers;
    };
    // A small heterogeneous slice of the fleet: mixed workloads,
    // mixed SSD generations, backend matched to compressibility.
    const Node nodes[] = {
        {"feed", 'C', "zswap"},
        {"web", 'D', "zswap"},
        {"ads_a", 'B', "ssd"},
        {"ads_b", 'C', "ssd"},
        {"warehouse", 'E', "zswap"},
        {"ml_reader", 'G', "ssd"},
    };
    const auto zswap = tier::TierChainSpec::parse("zswap");

    host::Fleet fleet =
        host::FleetSpec{}
            .hosts(std::size(nodes))
            .ram_mb(2048)
            .page_kb(64)
            .controller("tmo")
            .customize([&](std::size_t i, host::HostBuilder &builder) {
                const auto &node = nodes[i];
                builder.name(node.app).ssd_class(node.ssd);
                // Primary app plus a low-priority sidecar pair (the
                // memory tax); the TMO daemon relaxes control on the
                // LOW-priority containers automatically.
                auto profile = workload::appPreset(node.app, 1ull << 30);
                profile.growthSeconds = 0.0;
                for (auto &region : profile.regions)
                    region.lazy = false;
                builder.app(profile,
                            tier::TierChainSpec::parse(node.tiers));
                builder.app(
                    workload::sidecarPreset("dc_logging", 192ull << 20),
                    zswap, cgroup::Priority::LOW);
                builder.app(
                    workload::sidecarPreset("ms_proxy", 128ull << 20),
                    zswap, cgroup::Priority::LOW);
            })
            .build();
    fleet.start();

    std::cout << "TMO fleet: 6 heterogeneous hosts, app + sidecars,"
                 " 8 simulated hours\n\n";
    fleet.run(8 * sim::HOUR, /*jobs=*/4);

    stats::Table table;
    table.setHeader({"host", "ssd", "backend", "host_savings_%",
                     "rps_retention"});
    double total_allocated = 0.0, total_resident = 0.0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        auto &machine = fleet.host(i);
        double allocated = 0.0;
        for (const auto &app : machine.apps())
            allocated += static_cast<double>(app->allocatedBytes());
        const double resident = static_cast<double>(
            machine.cgroups().root().memCurrent());
        total_allocated += allocated;
        total_resident += resident;
        const auto &tick = machine.apps().front()->lastTick();
        table.addRow(
            {machine.name(), machine.ssd().spec().name,
             nodes[i].tiers,
             stats::fmt((1.0 - resident / allocated) * 100.0, 1),
             stats::fmtPercent(tick.completedRps /
                                   std::max(1.0, tick.offeredRps),
                               1)});
    }
    table.print(std::cout);

    std::cout << "\nfleet-wide memory saved: "
              << stats::fmtPercent(
                     1.0 - total_resident / total_allocated, 1)
              << " of allocated (paper: 20-32% of total memory"
                 " fleet-wide, incl. tax)\n";
    return 0;
}
