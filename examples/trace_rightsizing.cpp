/**
 * @file
 * Right-sizing a container from an access trace.
 *
 * The §5.1 deployment story: before enabling swap anywhere, TMO's
 * observability alone was valuable — Senpai probing plus PSI showed
 * how much memory each container actually needed. This example feeds
 * a (synthetic, but could-be-real) access trace through the
 * TraceWorkload replayer, lets Senpai probe the container, and asks
 * the WorkingsetProfiler for a provisioning recommendation.
 *
 * Build & run:  ./build/examples/trace_rightsizing
 */

#include <iostream>

#include "core/senpai.hpp"
#include "core/workingset_profiler.hpp"
#include "host/host.hpp"
#include "stats/table.hpp"
#include "tier/tier_chain.hpp"
#include "workload/trace.hpp"

using namespace tmo;

int
main()
{
    sim::Simulation simulation;
    host::HostConfig config;
    config.mem.ramBytes = 2ull << 30;
    config.mem.pageBytes = 64 * 1024;
    host::Host machine(simulation, config, "rightsizing");
    auto &cg = machine.createContainer("traced-service");
    // Anon pages offload through a chain; this one has the host's
    // zswap pool as its only tier.
    tier::TierChain chain("zswap", {&machine.zswap()}, {});
    machine.memory().attach(cg, &chain, &machine.filesystem(), 3.0);

    // A service with a 1 GiB address space but a much smaller real
    // working set: 20% hot (Zipf), plus one-off scans that inflate
    // the footprint — the classic overprovisioning pattern.
    workload::TraceSynthesisConfig trace_config;
    trace_config.pages = 16384; // 1 GiB at 64 KiB pages
    trace_config.duration = 90 * sim::MINUTE;
    trace_config.accessesPerSec = 600;
    trace_config.workingSetFraction = 0.20;
    trace_config.zipf = 1.3; // hot core, long cold tail
    // One-off scan touches: rare enough that scanned pages go cold.
    trace_config.scanFraction = 0.003;
    auto records = workload::synthesizeTrace(trace_config, 99);
    std::cout << "replaying " << records.size()
              << " trace records over 90 simulated minutes...\n\n";

    workload::TraceWorkload trace(simulation, machine.memory(), cg,
                                  std::move(records),
                                  trace_config.pages);
    machine.start();
    trace.start();

    // Let the footprint build, then probe with Senpai while the
    // profiler watches.
    simulation.runUntil(15 * sim::MINUTE);
    const auto footprint = cg.memCurrent();

    auto senpai_config = core::senpaiAggressiveConfig();
    senpai_config.source = core::PressureSource::AVG60;
    core::Senpai senpai(simulation, machine.memory(), cg,
                        senpai_config);
    core::WorkingsetProfiler profiler(simulation, cg, 0.01);
    senpai.start();
    profiler.start();
    simulation.runUntil(90 * sim::MINUTE);

    const auto estimate = profiler.estimate();
    stats::Table table;
    table.setHeader({"metric", "value"});
    table.addRow({"peak footprint",
                  stats::fmtBytes(static_cast<double>(footprint))});
    table.addRow({"accesses replayed",
                  std::to_string(trace.stats().accesses)});
    table.addRow({"min healthy resident",
                  stats::fmtBytes(static_cast<double>(
                      estimate.minHealthyBytes))});
    table.addRow({"recommended container size",
                  stats::fmtBytes(static_cast<double>(
                      estimate.recommendedBytes))});
    table.addRow({"overprovisioning exposed",
                  stats::fmtPercent(estimate.overprovisionFraction(),
                                    1)});
    table.addRow({"refaults during probing",
                  std::to_string(trace.stats().refaults)});
    table.print(std::cout);

    std::cout << "\nIn production this profile is how TMO's file-only"
                 " phase right-sized containers before any swapping"
                 " was enabled (§5.1).\n";
    return 0;
}
