/**
 * @file
 * A/B load test on the Web workload, the paper's §4.2 methodology:
 * two identical tiers (same seed, same workload), the treatment tier
 * running TMO with a compressed-memory backend. Prints the RPS and
 * resident-memory trajectories side by side.
 *
 * Build & run:  ./build/examples/web_loadtest
 */

#include <iostream>
#include <memory>

#include "core/senpai.hpp"
#include "host/host.hpp"
#include "stats/table.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace
{

struct Tier {
    std::unique_ptr<host::Host> host;
    workload::AppModel *app = nullptr;
};

Tier
makeTier(sim::Simulation &simulation, const std::string &tiers,
         const std::string &name)
{
    host::HostConfig config;
    config.mem.ramBytes = 1ull << 30;
    config.mem.pageBytes = 64 * 1024;
    config.seed = 4242; // identical across tiers: paired A/B test
    Tier tier;
    tier.host = std::make_unique<host::Host>(simulation, config, name);
    auto profile = workload::appPreset("web", 1100ull << 20);
    profile.growthSeconds = 1800;
    tier.app =
        &tier.host->addApp(profile, tier::TierChainSpec::parse(tiers));
    tier.app->cgroup().setMemMax(1ull << 30);
    tier.host->start();
    tier.app->start();
    return tier;
}

} // namespace

int
main()
{
    sim::Simulation simulation;
    auto control = makeTier(simulation, "none", "control");
    auto treatment = makeTier(simulation, "zswap", "treatment");

    // TMO on the treatment tier only.
    core::Senpai senpai(simulation, treatment.host->memory(),
                        treatment.app->cgroup());
    senpai.start();

    std::cout << "Web A/B load test: control (no swap) vs treatment"
                 " (TMO + zswap)\n\n";
    stats::Table table;
    table.setHeader({"t_min", "rps_control", "rps_treatment",
                     "resident_control", "resident_treatment",
                     "zswap_pool"});
    for (int minute = 10; minute <= 120; minute += 10) {
        simulation.runUntil(static_cast<sim::SimTime>(minute) *
                            sim::MINUTE);
        const auto info = treatment.host->memory().info(
            treatment.app->cgroup());
        table.addRow(
            {std::to_string(minute),
             stats::fmt(control.app->lastTick().completedRps, 0),
             stats::fmt(treatment.app->lastTick().completedRps, 0),
             stats::fmtBytes(static_cast<double>(
                 control.app->cgroup().memCurrent())),
             stats::fmtBytes(static_cast<double>(
                 treatment.app->cgroup().memCurrent())),
             stats::fmtBytes(static_cast<double>(info.zswapBytes))});
    }
    table.print(std::cout);

    const double control_rps = control.app->lastTick().completedRps;
    const double treatment_rps =
        treatment.app->lastTick().completedRps;
    std::cout << "\nAt the 2-hour mark the treatment tier serves "
              << stats::fmtPercent(
                     treatment_rps / std::max(1.0, control_rps) - 1.0, 1)
              << " more RPS: offloading removed the memory bound that"
                 " throttles the control tier.\n";
    return 0;
}
