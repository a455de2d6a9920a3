/**
 * @file
 * §2.5 / §5.2 outlook — offload-backend comparison including the
 * future tiers: SSD swap, zswap, the two-tier zswap+SSD hierarchy,
 * Optane-class NVM, and CXL-attached memory. One workload, one
 * controller configuration; only the backend changes.
 *
 * Expected shape: faster backends let the same mild-pressure
 * controller offload more (the §4.3 principle extrapolated), and the
 * tiered hierarchy approaches zswap's savings while bounding the
 * compressed pool's DRAM overhead.
 */

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/senpai.hpp"
#include "sim/simulation.hpp"

using namespace tmo;

namespace
{

struct Result {
    std::string backend;
    double savingsPct = 0.0;   ///< net of any DRAM pool overhead
    double grossPct = 0.0;     ///< pages offloaded / allocated
    double stallMsPerMin = 0.0;
    double poolMb = 0.0;
};

Result
run(const std::string &label, const std::string &tiers,
    const std::string &nvm_preset = "optane")
{
    sim::Simulation simulation;
    auto config = bench::standardHost();
    config.nvmPreset = nvm_preset;
    host::Host machine(simulation, config);
    auto profile = workload::appPreset("web", 1300ull << 20);
    profile.growthSeconds = 0.0;
    for (auto &region : profile.regions)
        region.lazy = false;
    auto &app =
        machine.addApp(profile, tier::TierChainSpec::parse(tiers));
    machine.start();
    app.start();
    core::Senpai senpai(simulation, machine.memory(), app.cgroup(),
                        bench::scaledProductionConfig());
    senpai.start();
    const auto horizon = 6 * sim::HOUR;
    simulation.runUntil(horizon);

    Result result;
    result.backend = label;
    result.savingsPct = bench::savingsFraction(app) * 100.0;
    const auto info = machine.memory().info(app.cgroup());
    result.grossPct =
        100.0 *
        (1.0 - static_cast<double>(info.residentBytes) /
                   static_cast<double>(app.allocatedBytes()));
    result.stallMsPerMin =
        sim::toUsec(app.cgroup().psi().totalSome(psi::Resource::MEM,
                                                 simulation.now())) /
        1000.0 / (sim::toSeconds(horizon) / 60.0);
    result.poolMb =
        static_cast<double>(machine.zswap().usedBytes()) / (1 << 20);
    return result;
}

} // namespace

int
main()
{
    bench::banner("Table",
                  "backend outlook: SSD / zswap / tiered / NVM / CXL");

    std::vector<Result> results = {
        run("ssd-C", "ssd"),
        run("zswap", "zswap"),
        run("tiered(zswap+ssd)", "zswap+ssd;placement=workingset"),
        run("nvm-optane", "nvm", "optane"),
        run("cxl-dram", "nvm", "cxl-dram"),
    };

    stats::Table table;
    table.setHeader({"backend", "net_savings_%", "gross_offload_%",
                     "mem_stall_ms_per_min", "zswap_pool_MiB"});
    for (const auto &r : results) {
        table.addRow({r.backend, stats::fmt(r.savingsPct, 1),
                      stats::fmt(r.grossPct, 1),
                      stats::fmt(r.stallMsPerMin, 1),
                      stats::fmt(r.poolMb, 1)});
    }
    table.print(std::cout);

    const auto &ssd = results[0];
    const auto &zswap = results[1];
    const auto &tiered = results[2];
    const auto &nvm = results[3];
    const auto &cxl = results[4];

    std::cout << "\npaper outlook: faster backends -> deeper offload"
                 " at the same pressure target; the hierarchy bounds"
                 " pool DRAM\n";
    bench::ShapeChecker shape;
    // Cheap faults let the controller hold more pages out (gross);
    // zswap's *net* savings then depend on compressibility, which is
    // why the backend choice is per-application (§4.1).
    shape.expect(zswap.grossPct > ssd.grossPct,
                 "zswap (fast faults) holds more of Web offloaded than"
                 " SSD");
    shape.expect(nvm.savingsPct > ssd.savingsPct,
                 "NVM beats SSD swap (no block IO, microsecond reads)");
    shape.expect(cxl.savingsPct >= nvm.savingsPct * 0.95,
                 "CXL-class latency at least matches NVM");
    shape.expect(cxl.savingsPct > zswap.savingsPct * 0.9,
                 "uncompressed CXL competes with zswap without DRAM"
                 " pool overhead");
    shape.expect(tiered.savingsPct >
                     0.85 * std::max(ssd.savingsPct,
                                     zswap.savingsPct) &&
                     tiered.poolMb <= zswap.poolMb,
                 "the hierarchy matches the best single tier while"
                 " bounding pool DRAM");
    shape.expect(ssd.stallMsPerMin * zswap.grossPct >=
                     zswap.stallMsPerMin * ssd.grossPct * 0.8,
                 "SSD pays more stall per byte offloaded");
    return shape.verdict();
}
