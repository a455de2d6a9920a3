/**
 * @file
 * Quickstart: one host, one workload, Senpai offloading to zswap.
 *
 * Demonstrates the minimal TMO setup:
 *   1. create a simulation and a host,
 *   2. run an application in a container,
 *   3. attach Senpai with the production configuration,
 *   4. watch resident memory shrink while pressure stays mild.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <iostream>

#include "core/senpai.hpp"
#include "host/host.hpp"
#include "stats/table.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

int
main()
{
    sim::Simulation simulation;

    // A 4 GiB host with a class-C NVMe SSD (Fig. 5).
    host::HostConfig config;
    config.mem.ramBytes = 4ull << 30;
    config.mem.pageBytes = 64 * 1024;
    config.cpus = 16;
    config.ssdClass = 'C';
    host::Host machine(simulation, config, "quickstart");
    machine.start();

    // Run the "feed" workload (Fig. 2: 50% hot, 30% cold) with zswap
    // as the anon offload backend.
    auto profile = workload::appPreset("feed", 3ull << 30);
    auto &app = machine.addApp(profile, tier::TierChainSpec::parse("zswap"));
    app.start();

    // Let the workload reach steady state without TMO.
    simulation.runUntil(10 * sim::MINUTE);
    const auto before = app.cgroup().memCurrent();

    // Attach Senpai with the production config (§3.3):
    // reclaim_ratio = 0.0005, PSI_threshold = 0.1%, interval = 6 s.
    core::Senpai senpai(simulation, machine.memory(), app.cgroup(),
                        core::senpaiProductionConfig());
    senpai.start();

    // Four simulated hours of proactive offloading (production Senpai
    // drains the cold pool over hours, not minutes).
    simulation.runUntil(4 * sim::HOUR + 10 * sim::MINUTE);

    const auto after = app.cgroup().memCurrent();
    const auto info = machine.memory().info(app.cgroup());
    const auto pressure = app.cgroup().psi().some(psi::Resource::MEM);

    std::cout << "TMO quickstart: 'feed' on a 4 GiB host, zswap"
              << " backend\n\n";
    stats::Table table;
    table.setHeader({"metric", "value"});
    table.addRow({"resident before TMO", stats::fmtBytes(
                     static_cast<double>(before))});
    table.addRow({"resident after 4h", stats::fmtBytes(
                     static_cast<double>(after))});
    table.addRow({"memory saved",
                  stats::fmtPercent(1.0 - static_cast<double>(after) /
                                              static_cast<double>(before))});
    table.addRow({"zswap pool", stats::fmtBytes(
                     static_cast<double>(info.zswapBytes))});
    table.addRow({"mem PSI some avg10", stats::fmtPercent(pressure.avg10, 3)});
    table.addRow({"RPS", stats::fmt(app.lastTick().completedRps, 0)});
    table.addRow({"offered RPS", stats::fmt(app.lastTick().offeredRps, 0)});
    table.print(std::cout);

    std::cout << "\nSenpai holds pressure just below its "
              << stats::fmtPercent(senpai.config().psiThreshold, 2)
              << " target, so only memory the workload does not need"
              << " is offloaded.\n";
    return 0;
}
