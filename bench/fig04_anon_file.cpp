/**
 * @file
 * Fig. 4 — Anonymous vs file-backed memory breakdown for the memory
 * taxes and several large applications (§2.4).
 */

#include <iostream>

#include "bench_common.hpp"
#include "sim/simulation.hpp"

using namespace tmo;

namespace
{

/** Measure one workload's anon/file split after it settles. */
std::pair<double, double>
measure(const workload::AppProfile &profile_in)
{
    sim::Simulation simulation;
    host::Host machine(simulation, bench::standardHost());
    auto profile = profile_in;
    profile.growthSeconds = 0.0;
    for (auto &region : profile.regions)
        region.lazy = false;
    auto &app = machine.addApp(profile, tier::TierChainSpec::parse("none"));
    machine.start();
    app.start();
    simulation.runUntil(30 * sim::SEC);
    const auto info = machine.memory().info(app.cgroup());
    const double total =
        static_cast<double>(info.anonBytes + info.fileBytes);
    if (total <= 0)
        return {0.0, 0.0};
    return {static_cast<double>(info.anonBytes) / total * 100.0,
            static_cast<double>(info.fileBytes) / total * 100.0};
}

} // namespace

int
main()
{
    bench::banner("Fig. 4", "anonymous vs file-backed memory");

    stats::Table table;
    table.setHeader({"workload", "anon_%", "file_%"});
    bench::ShapeChecker shape;

    struct Entry {
        std::string label;
        workload::AppProfile profile;
    };
    std::vector<Entry> entries;
    entries.push_back({"datacenter_tax",
                       workload::sidecarPreset("dc_logging",
                                               512ull << 20)});
    entries.push_back({"microservice_tax",
                       workload::sidecarPreset("ms_proxy",
                                               512ull << 20)});
    for (const auto &name :
         {"ads_a", "ads_b", "video", "feed", "cache_a", "re", "web"}) {
        entries.push_back({name, workload::appPreset(name,
                                                     1ull << 30)});
    }

    double ads_anon = 0, cache_anon = 0, video_anon = 0;
    for (const auto &entry : entries) {
        const auto [anon, file] = measure(entry.profile);
        table.addRow({entry.label, stats::fmt(anon, 1),
                      stats::fmt(file, 1)});
        if (entry.label == "ads_a")
            ads_anon = anon;
        if (entry.label == "cache_a")
            cache_anon = anon;
        if (entry.label == "video")
            video_anon = anon;
    }
    table.print(std::cout);

    std::cout << "\npaper: split varies wildly across workloads; ads"
                 " (ML models) are anon-heavy, caches/video are"
                 " file-heavy\n";
    shape.expect(ads_anon > 70.0, "Ads A is anon-heavy (>70%)");
    shape.expect(cache_anon < 50.0, "Cache A is file-heavy");
    shape.expect(video_anon < 50.0, "Video is file-heavy");
    shape.expect(std::abs(ads_anon - cache_anon) > 25.0,
                 "breakdown varies wildly across applications");
    return shape.verdict();
}
