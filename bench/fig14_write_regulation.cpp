/**
 * @file
 * Fig. 14 — SSD endurance handling (§4.5): swap-out write rate across
 * a cluster over 14 days, P50 and P90, without write regulation for
 * the first week and with regulation (modulated down to 1 MB/s) for
 * the second.
 *
 * Workload: Ads B (anon-heavy, poorly compressible) on SSD swap with
 * an aggressive Senpai, the configuration that stresses endurance.
 */

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "core/senpai.hpp"
#include "host/fleet.hpp"
#include "sim/simulation.hpp"

using namespace tmo;

namespace
{

constexpr int CLUSTER = 12;
constexpr int DAYS = 14;
/**
 * Write rates are absolute bytes/s and therefore compress with the
 * footprint scale (~1/50 of production hosts). The regulation budget
 * scales identically and rates are reported in fleet-equivalent MB/s
 * so the table reads in the paper's units.
 */
constexpr double WRITE_SCALE = bench::FOOTPRINT_SCALE;
constexpr double BUDGET_BYTES_PER_SEC = 1e6 / WRITE_SCALE;
/** One simulated "day" is compressed so the bench finishes quickly;
 *  rates are reported per (real) second, which is scale-free. */
constexpr sim::SimTime DAY_LEN = 40 * sim::MINUTE;

} // namespace

int
main()
{
    bench::banner("Fig. 14",
                  "swap-out write rate, cluster P50/P90, regulation"
                  " from day 8");

    // Aggressive controller, no write budget yet: churns the SSD.
    // The factory runs per host (in index order) once its containers
    // exist; raw observer pointers let the bench retune the running
    // controllers when regulation deploys on day 8.
    std::vector<core::Senpai *> senpais;
    auto aggressive = [&](host::Host &machine)
        -> std::unique_ptr<core::Controller> {
        auto senpai_config = core::senpaiAggressiveConfig();
        senpai_config.writeBudgetBytesPerSec = 0.0;
        auto senpai = std::make_unique<core::Senpai>(
            machine.simulation(), machine.memory(),
            machine.apps().front()->cgroup(), senpai_config);
        senpais.push_back(senpai.get());
        return senpai;
    };

    host::Fleet fleet =
        host::FleetSpec{}
            .hosts(CLUSTER)
            .name_prefix("ads")
            .epoch(DAY_LEN)
            .controller(aggressive)
            .customize([&](std::size_t i, host::HostBuilder &builder) {
                auto config =
                    bench::standardHost('C', 1ull << 30,
                                        1000 + static_cast<int>(i));
                config.appTick = 2 * sim::SEC;
                builder.config(config);
                auto profile =
                    workload::appPreset("ads_b", 800ull << 20);
                // Continuous production of new soon-cold model data
                // keeps offload writes flowing for days (the
                // endurance hazard).
                profile.churnBytesPerSec = 4e6;
                builder.app(profile, tier::TierChainSpec::parse("ssd"));
            })
            .build();
    fleet.start();

    stats::Table table;
    table.setHeader({"day", "P50_MBps", "P90_MBps", "regulated"});
    std::vector<double> p50_series, p90_series;
    for (int day = 1; day <= DAYS; ++day) {
        if (day == 8) {
            // Deploy write regulation fleet-wide (1 MB/s threshold).
            for (auto *s : senpais) {
                auto config = s->config();
                config.writeBudgetBytesPerSec = BUDGET_BYTES_PER_SEC;
                s->setConfig(config);
            }
        }
        fleet.run(static_cast<sim::SimTime>(day) * DAY_LEN,
                  /*jobs=*/4);
        std::vector<double> rates;
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            auto &machine = fleet.host(i);
            auto &mcg = machine.memory().memcgOf(
                machine.apps().front()->cgroup());
            rates.push_back(mcg.swapoutBytes.rate(fleet.now()) *
                            WRITE_SCALE / 1e6);
        }
        const double p50 = stats::exactQuantile(rates, 0.5);
        const double p90 = stats::exactQuantile(rates, 0.9);
        p50_series.push_back(p50);
        p90_series.push_back(p90);
        table.addRow({std::to_string(day), stats::fmt(p50, 2),
                      stats::fmt(p90, 2), day >= 8 ? "yes" : "no"});
    }
    table.print(std::cout);

    std::cout << "\npaper: unregulated swap-out runs multiple MB/s"
                 " (P90 above P50); regulation modulates the cluster"
                 " down to ~1 MB/s\n";
    bench::ShapeChecker shape;
    double unreg_p90 = 0, unreg_p50 = 0;
    for (int d = 2; d < 7; ++d) {
        unreg_p90 = std::max(unreg_p90, p90_series[d]);
        unreg_p50 = std::max(unreg_p50, p50_series[d]);
    }
    const double reg_p90 =
        (p90_series[11] + p90_series[12] + p90_series[13]) / 3.0;
    const double reg_p50 =
        (p50_series[11] + p50_series[12] + p50_series[13]) / 3.0;
    shape.expect(unreg_p50 > 1.5,
                 "unregulated P50 well above the 1 MB/s budget");
    shape.expect(unreg_p90 >= unreg_p50,
                 "P90 at or above P50 across the cluster");
    shape.expect(reg_p90 < 1.6,
                 "regulated P90 modulated to ~1 MB/s");
    shape.expect(reg_p50 < 1.3,
                 "regulated P50 modulated to ~1 MB/s");
    shape.expect(reg_p90 < unreg_p90 / 2.0,
                 "regulation cuts the write rate by a large factor");
    return shape.verdict();
}
