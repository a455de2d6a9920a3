/**
 * @file
 * Continuous benchmark runner: machine-readable performance trajectory.
 *
 * TMO ships because its userspace overhead is negligible (§4);
 * keeping this reproduction "as fast as the hardware allows" needs
 * numbers, not vibes. This runner times the hot paths the micro_*
 * suites cover (memcg lookup, page access/fault, LRU rotation, PSI
 * task change, RNG, reclaim scan throughput, idle-age breakdown) plus
 * a representative fig-style workload (one host, feed preset, Senpai)
 * under fixed seeds, and emits BENCH_<sha>.json:
 *
 *   {
 *     "schema": "tmo-bench/1",
 *     "git_sha": "<sha>",            // --sha flag or GIT_SHA env
 *     "scale": "quick" | "full",
 *     "host": { "pages": N, "cgroups": M },
 *     "metrics": {
 *       "<name>": { "value": <number>, "unit": "<unit>",
 *                    "better": "lower" | "higher" }
 *     },
 *     "checks": { "<name>": <number> }   // determinism anchors, not gated
 *   }
 *
 * tools/bench_check.py compares a fresh run against the committed
 * baseline (bench/BENCH_baseline.json) and fails on regressions
 * beyond a tolerance; the CI `bench` job wires both together.
 *
 * Wall-clock timing is inherently machine-dependent — every metric is
 * the median of repeated runs, and the gate uses a generous relative
 * tolerance. The `checks` section, in contrast, must be bit-stable
 * across machines (fixed seeds, simulated clock only).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "backend/filesystem.hpp"
#include "backend/nvm.hpp"
#include "backend/ssd.hpp"
#include "backend/zswap.hpp"
#include "cgroup/cgroup.hpp"
#include "core/senpai.hpp"
#include "core/workingset_profiler.hpp"
#include "host/fleet.hpp"
#include "host/fleet_spec.hpp"
#include "host/host.hpp"
#include "stats/histogram.hpp"
#include "mem/memory_manager.hpp"
#include "psi/psi.hpp"
#include "sim/rng.hpp"
#include "tier/tier_chain.hpp"
#include "tier/tier_spec.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;
using Clock = std::chrono::steady_clock;

namespace
{

constexpr std::uint32_t PAGE = 64 * 1024;

struct Metric {
    double value = 0.0;
    std::string unit;
    std::string better; // "lower" or "higher"
};

struct Report {
    std::string sha = "local";
    std::string scale = "full";
    std::size_t pages = 0;
    std::size_t cgroups = 0;
    std::map<std::string, Metric> metrics;
    std::map<std::string, double> checks;
};

/** Optimization barrier for benchmark results. */
volatile double g_sink = 0.0;

double
elapsedNs(Clock::time_point start, Clock::time_point end)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
}

/** Median wall time of @p reps runs of @p fn, nanoseconds. */
template <typename Fn>
double
medianNs(int reps, Fn &&fn)
{
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        fn();
        times.push_back(elapsedNs(start, Clock::now()));
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

/** A field of /proc/self/status in bytes (0 off-Linux / missing). */
double
procStatusBytes(const char *key)
{
#ifdef __linux__
    std::ifstream status("/proc/self/status");
    std::string line;
    const std::string prefix = std::string(key) + ":";
    while (std::getline(status, line)) {
        if (line.rfind(prefix, 0) == 0) {
            std::istringstream fields(line.substr(prefix.size()));
            double kb = 0.0;
            fields >> kb;
            return kb * 1024.0;
        }
    }
#endif
    (void)key;
    return 0.0;
}

/** Peak resident set size of this process, bytes (0 off-Linux). */
double
peakRssBytes()
{
    return procStatusBytes("VmHWM");
}

/** Current resident set size, bytes (fleet-scale per-host deltas). */
double
currentRssBytes()
{
    return procStatusBytes("VmRSS");
}

/**
 * A multi-cgroup memory-manager fixture: @p n_cg cgroups under one
 * parent, @p n_pages pages total spread round-robin, alternating
 * anon/file. Mirrors the micro_reclaim Setup but at fleet-like
 * cgroup counts — the shapes the index map and the idle sweep target.
 */
struct ManagerFixture {
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd{backend::ssdSpecForClass('C'), 1};
    backend::FilesystemBackend fs{ssd};
    backend::ZswapPool zswap{{}, 2};
    tier::TierChain chain{"zswap", {&zswap}, {}};
    std::unique_ptr<mem::MemoryManager> mm;
    cgroup::Cgroup *parent = nullptr;
    std::vector<cgroup::Cgroup *> cgs;
    std::vector<mem::PageIdx> pages;

    ManagerFixture(std::size_t n_cg, std::size_t n_pages)
    {
        mem::MemoryConfig config;
        config.ramBytes =
            static_cast<std::uint64_t>(n_pages + 4096) * PAGE;
        config.pageBytes = PAGE;
        mm = std::make_unique<mem::MemoryManager>(config, 3);
        parent = &tree.create("bench");
        for (std::size_t c = 0; c < n_cg; ++c) {
            cgs.push_back(
                &tree.create("cg" + std::to_string(c), parent));
            mm->attach(*cgs.back(), &chain, &fs, 3.0);
        }
        pages.reserve(n_pages);
        for (std::size_t i = 0; i < n_pages; ++i)
            pages.push_back(mm->newPage(*cgs[i % n_cg], i % 2 == 0,
                                        true, 0));
    }
};

void
runMicroSuites(Report &report, std::size_t n_cg, std::size_t n_pages)
{
    ManagerFixture fx(n_cg, n_pages);

    // --- memcg lookup (micro_reclaim territory: the per-page entry
    // point every newPage/reclaim call goes through) ----------------
    {
        const std::size_t iters = 2'000'000;
        std::uint64_t sink = 0;
        const double ns = medianNs(3, [&] {
            for (std::size_t i = 0; i < iters; ++i)
                sink += fx.mm->memcgOf(*fx.cgs[i % n_cg])
                            .lru.totalPages();
        });
        g_sink = static_cast<double>(sink);
        report.metrics["memcg_lookup_ns_per_op"] =
            {ns / static_cast<double>(iters), "ns/op", "lower"};
    }

    // --- resident access (LRU bookkeeping fast path) -----------------
    {
        const std::size_t iters = 1'000'000;
        sim::SimTime now = 0;
        const double ns = medianNs(3, [&] {
            for (std::size_t i = 0; i < iters; ++i) {
                now += 100;
                fx.mm->access(fx.pages[i % fx.pages.size()], now);
            }
        });
        report.metrics["access_resident_ns_per_op"] =
            {ns / static_cast<double>(iters), "ns/op", "lower"};
    }

    // --- idle-age breakdown at profiler cadence ----------------------
    // Touch a small warm set far in the future, then poll the
    // breakdown for every cgroup: the working-set profiler pattern.
    // Each round polls at a whole second (the profiler's cadence,
    // where the generation counts answer) within a minute of the warm
    // set's stamps, so every bucket has generations to sum. The one
    // page-table walk that starts the counts runs before the timing.
    {
        const sim::SimTime now = sim::HOUR;
        for (std::size_t i = 0; i < fx.pages.size() / 64; ++i)
            fx.mm->access(fx.pages[i], now);
        g_sink = fx.mm->idleBreakdown(*fx.cgs.front(), now).cold;
        const int polls = 1000;
        const double ns = medianNs(3, [&] {
            double acc = 0.0;
            for (int p = 0; p < polls; ++p) {
                const sim::SimTime at =
                    now + static_cast<sim::SimTime>(1 + p % 60) * sim::SEC;
                for (auto *cg : fx.cgs)
                    acc += fx.mm->idleBreakdown(*cg, at).cold;
            }
            g_sink = acc;
        });
        report.metrics["idle_breakdown_us_per_poll"] =
            {ns / 1e3 / static_cast<double>(polls * fx.cgs.size()),
             "us/poll", "lower"};
    }

    // --- subtree reclaim throughput + scan efficiency ----------------
    {
        sim::SimTime now = sim::HOUR;
        std::uint64_t reclaimed = 0, scanned = 0;
        const double ns = medianNs(3, [&] {
            for (int round = 0; round < 8; ++round) {
                now += 6 * sim::SEC;
                const auto outcome = fx.mm->reclaim(
                    *fx.parent,
                    static_cast<std::uint64_t>(n_cg) * 4 * PAGE, now);
                reclaimed += outcome.reclaimedBytes / PAGE;
                scanned += outcome.scannedPages;
            }
            // Refill outside nothing: refault cost stays out of the
            // timed loop by keeping rounds small against the pool.
        });
        report.metrics["reclaim_pages_per_sec"] =
            {reclaimed ? static_cast<double>(reclaimed) / 3.0 /
                             (ns / 1e9)
                       : 0.0,
             "pages/s", "higher"};
        report.metrics["reclaim_scan_efficiency"] =
            {scanned ? static_cast<double>(reclaimed) /
                           static_cast<double>(scanned)
                     : 0.0,
             "reclaimed/scanned", "higher"};
        report.checks["reclaim_scanned_pages"] =
            static_cast<double>(scanned);
    }

    // --- fault path (zswap round trip, micro_reclaim's
    // BM_FaultFromZswap shape) ---------------------------------------
    {
        sim::SimTime now = 2 * sim::HOUR;
        fx.mm->reclaim(*fx.parent,
                       static_cast<std::uint64_t>(n_pages) / 4 * PAGE,
                       now);
        std::vector<mem::PageIdx> offloaded;
        for (const auto idx : fx.pages)
            if (!fx.mm->pages()[idx].resident())
                offloaded.push_back(idx);
        if (!offloaded.empty()) {
            double faults = 0.0;
            const double ns = medianNs(1, [&] {
                for (const auto idx : offloaded) {
                    now += 1000;
                    fx.mm->access(idx, now);
                    ++faults;
                }
            });
            report.metrics["fault_zswap_ns_per_op"] =
                {ns / std::max(faults, 1.0), "ns/op", "lower"};
            report.checks["faulted_pages"] = faults;
        }
    }

    // --- micro_lru: rotation hot path --------------------------------
    {
        std::vector<mem::Page> lru_pages(65536);
        mem::LruList list;
        for (mem::PageIdx i = 0; i < 65536; ++i)
            list.addHead(lru_pages, i);
        const std::size_t iters = 4'000'000;
        const double ns = medianNs(3, [&] {
            for (std::size_t i = 0; i < iters; ++i)
                list.moveToHead(lru_pages, list.tail());
        });
        report.metrics["lru_rotate_ns_per_op"] =
            {ns / static_cast<double>(iters), "ns/op", "lower"};
    }

    // --- micro_psi: task-change hook ---------------------------------
    {
        psi::PsiGroup group;
        sim::SimTime now = 0;
        // One task enters the group on-CPU; the bench then flips it
        // between executing and memory-stalled. `stalled` lives
        // outside the lambda so repetitions stay state-consistent.
        group.taskChange(0, psi::TSK_ONCPU, now);
        bool stalled = false;
        const std::size_t iters = 2'000'000;
        const double ns = medianNs(3, [&] {
            for (std::size_t i = 0; i < iters; ++i) {
                now += 1000;
                if (stalled)
                    group.taskChange(psi::TSK_MEMSTALL,
                                     psi::TSK_ONCPU, now);
                else
                    group.taskChange(psi::TSK_ONCPU,
                                     psi::TSK_MEMSTALL, now);
                stalled = !stalled;
            }
        });
        report.metrics["psi_task_change_ns_per_op"] =
            {ns / static_cast<double>(iters), "ns/op", "lower"};
    }

    // --- micro_rng: innermost simulation loop ------------------------
    {
        sim::Rng rng(1);
        const std::size_t iters = 8'000'000;
        std::uint64_t sink = 0;
        const double ns = medianNs(3, [&] {
            for (std::size_t i = 0; i < iters; ++i)
                sink ^= rng.next();
        });
        g_sink = static_cast<double>(sink);
        report.metrics["rng_ns_per_op"] =
            {ns / static_cast<double>(iters), "ns/op", "lower"};
    }
}

/**
 * Tier-chain hot paths: placement arithmetic (runs per evicted page),
 * the fall-through store/release round trip, and the budgeted
 * background maintenance pass (demotion throughput at Senpai cadence).
 * The demoted-page count is a cross-machine determinism anchor.
 */
void
runTierChainBench(Report &report)
{
    // --- placement: decayedHeat + placementIndex per eviction --------
    {
        auto zc = backend::ZswapConfig{};
        zc.simulatedPageBytes = PAGE;
        backend::ZswapPool warm(zc, 2);
        auto mid_spec = backend::nvmSpecPreset("cxl-dram");
        mid_spec.simulatedPageBytes = PAGE;
        mid_spec.capacityBytes = 8ull << 30;
        backend::NvmBackend mid(mid_spec);
        auto cold_spec = backend::nvmSpecPreset("optane");
        cold_spec.simulatedPageBytes = PAGE;
        cold_spec.capacityBytes = 8ull << 30;
        backend::NvmBackend cold(cold_spec);
        tier::TierChain chain("bench", {&warm, &mid, &cold},
                              tier::TierChainConfig{});

        {
            std::vector<mem::Page> heat_pages(4096);
            for (std::size_t i = 0; i < heat_pages.size(); ++i) {
                heat_pages[i].heat = static_cast<std::uint8_t>(i % 11);
                heat_pages[i].heatEpoch =
                    static_cast<std::uint8_t>(i % 5);
            }
            const std::size_t iters = 4'000'000;
            std::uint64_t sink = 0;
            const double ns = medianNs(3, [&] {
                for (std::size_t i = 0; i < iters; ++i) {
                    const auto &page =
                        heat_pages[i % heat_pages.size()];
                    const auto epoch =
                        static_cast<std::uint8_t>(i % 7);
                    sink += static_cast<std::uint64_t>(
                        chain.placementIndex(
                            mem::decayedHeat(page, epoch), false));
                }
            });
            g_sink = static_cast<double>(sink);
            report.metrics["tier_placement_ns_per_op"] =
                {ns / static_cast<double>(iters), "ns/op", "lower"};
        }

        // --- store: fall-through round trip over three tiers ---------
        {
            const std::size_t iters = 50'000;
            std::vector<std::pair<backend::OffloadBackend *,
                                  std::uint64_t>>
                stored;
            stored.reserve(iters);
            const double ns = medianNs(3, [&] {
                stored.clear();
                sim::SimTime now = 0;
                for (std::size_t i = 0; i < iters; ++i) {
                    now += 1000;
                    const auto outcome = chain.storeFrom(
                        i % chain.size(), PAGE, 3.0, now);
                    if (outcome.result.accepted)
                        stored.emplace_back(
                            outcome.tier,
                            outcome.result.storedBytes);
                }
                for (const auto &[tier, bytes] : stored)
                    tier->release(bytes);
            });
            report.metrics["tier_store_ns_per_op"] =
                {ns / static_cast<double>(iters), "ns/op", "lower"};
        }
    }

    // --- maintenance: demotion throughput under the move budget ------
    {
        sim::Simulation simulation;
        host::HostConfig config;
        config.mem.ramBytes = 1ull << 30;
        config.mem.pageBytes = PAGE;
        config.seed = 42;
        host::Host machine(simulation, config);
        auto &app = machine.addApp(
            workload::appPreset("feed", 512ull << 20),
            tier::TierChainSpec::parse("zswap+ssd"));
        machine.start();
        app.start();
        simulation.runUntil(5 * sim::SEC);

        // Evict hot: everything lands in the warm tier, then cools.
        const auto epoch = mem::heatEpochAt(
            simulation.now(),
            machine.memory().config().heatDecayPeriod);
        for (auto &page : machine.memory().pages()) {
            page.heat = 7;
            page.heatEpoch = epoch;
        }
        machine.memory().reclaim(app.cgroup(), 200ull << 20,
                                 simulation.now());

        const auto later = simulation.now() + 10 * 30 * sim::SEC;
        std::uint64_t demoted = 0;
        const double ns = medianNs(1, [&] {
            for (int pass = 0; pass < 40; ++pass)
                demoted += machine.memory()
                               .tierMaintain(app.cgroup(), later)
                               .demotedPages;
        });
        report.metrics["tier_maintain_pages_per_sec"] =
            {demoted ? static_cast<double>(demoted) / (ns / 1e9)
                     : 0.0,
             "pages/s", "higher"};
        report.checks["tier_maintain_demoted"] =
            static_cast<double>(demoted);
    }
}

/**
 * Representative fig-style workload: one host, feed preset, Senpai
 * probing, working-set profiler polling coldness — the §4.1-shaped
 * single-host experiment all fig benches build on. Fixed seed; the
 * sim-side counters land in `checks` as cross-machine determinism
 * anchors while the wall time is the gated metric.
 */
void
runFigWorkload(Report &report, sim::SimTime minutes)
{
    double wall_ns = 0.0;
    std::uint64_t pgscan = 0, pgsteal = 0;
    const double ns = medianNs(1, [&] {
        sim::Simulation simulation;
        host::HostConfig config;
        config.mem.ramBytes = 1ull << 30;
        config.mem.pageBytes = PAGE;
        config.seed = 42;
        host::Host machine(simulation, config);
        auto &app = machine.addApp(
            workload::appPreset("feed", 512ull << 20),
            tier::TierChainSpec::parse("zswap"));
        machine.start();
        app.start();
        core::Senpai senpai(simulation, machine.memory(),
                            app.cgroup(),
                            core::senpaiAggressiveConfig());
        senpai.start();
        core::WorkingsetProfiler profiler(simulation, app.cgroup());
        profiler.attachMemory(&machine.memory());
        profiler.start();
        simulation.runUntil(minutes * sim::MINUTE);
        pgscan = app.cgroup().stats().pgscan;
        pgsteal = app.cgroup().stats().pgsteal;
    });
    wall_ns = ns;
    report.metrics["fig_workload_wall_ms"] =
        {wall_ns / 1e6, "ms", "lower"};
    if (wall_ns > 0.0)
        report.metrics["fig_workload_scanned_pages_per_sec"] =
            {static_cast<double>(pgscan) / (wall_ns / 1e9),
             "pages/s", "higher"};
    report.checks["fig_workload_pgscan"] = static_cast<double>(pgscan);
    report.checks["fig_workload_pgsteal"] =
        static_cast<double>(pgsteal);
}

/**
 * Request-level serving path: one host, feed preset on a diurnal
 * traffic curve, Senpai reclaiming underneath. The wall-clock cost
 * per served request gates the open-loop generator + queue model
 * (arrival loop, critical-page touches, histogram updates); the
 * simulated p99 latency is seed-pinned and lands in `checks` as a
 * cross-machine determinism anchor.
 */
void
runServingBench(Report &report, sim::SimTime minutes)
{
    std::uint64_t completed = 0;
    double p99_us = 0.0;
    const double ns = medianNs(1, [&] {
        sim::Simulation simulation;
        host::HostConfig config;
        config.mem.ramBytes = 1ull << 30;
        config.mem.pageBytes = PAGE;
        config.seed = 42;
        host::Host machine(simulation, config);
        auto profile = workload::appPreset("feed", 512ull << 20);
        profile.traffic = workload::TrafficSpec::parse(
            "diurnal:rps=400,amp=0.5,period-min=8");
        auto &app =
            machine.addApp(profile, tier::TierChainSpec::parse("zswap"));
        machine.start();
        app.start();
        core::Senpai senpai(simulation, machine.memory(),
                            app.cgroup(),
                            core::senpaiAggressiveConfig());
        senpai.start();
        simulation.runUntil(minutes * sim::MINUTE);
        completed = app.requests().completed;
        p99_us = app.requests().latencyUs.p99();
    });
    report.metrics["request_latency_ns_per_op"] =
        {completed ? ns / static_cast<double>(completed) : 0.0,
         "ns/op", "lower"};
    report.checks["request_completed"] =
        static_cast<double>(completed);
    report.checks["request_p99_us"] = p99_us;
}

/**
 * Fleet scale-out: throughput of the sharded engine plus hierarchical
 * aggregation (hosts x simulated seconds per wall second at --jobs 4)
 * and resident bytes per host (page-table SoA compaction +
 * reservation). The same serving fleet runs serially and under
 * --jobs 4; both runs aggregate per-host metrics and the merged
 * request-latency histogram, and the digests must match exactly —
 * the hierarchical gather is bit-identical to the flat host walk.
 * That lands in `checks` as fleet_scale_serial_parallel_equal, which
 * tools/bench_check.py hard-gates at 1.0.
 */
void
runFleetScaleBench(Report &report, bool quick)
{
    const std::size_t hosts = quick ? 96 : 256;
    const sim::SimTime duration = (quick ? 1 : 2) * sim::MINUTE;

    struct FleetRun {
        std::vector<double> digest;
        double wall_ns = 0.0;
        double rss_delta = 0.0;
    };
    const auto runOnce = [&](unsigned jobs) {
        FleetRun out;
        const double rss_before = currentRssBytes();
        host::Fleet fleet = host::FleetSpec{}
                                .hosts(hosts)
                                .epoch(30 * sim::SEC)
                                .name_prefix("scale")
                                .ram_mb(128)
                                .page_kb(64)
                                .cpus(8)
                                .seed(42)
                                .tiers("zswap")
                                .workload("feed", 96)
                                .traffic("flat:rps=30")
                                .controller("senpai")
                                .build();
        fleet.start();
        const auto start = Clock::now();
        fleet.run(duration, jobs);
        // Aggregation is part of the measured path: the hierarchical
        // gather is what keeps wide fleets from serializing here.
        out.digest = fleet.collect([](host::Host &machine) {
            return static_cast<double>(
                machine.apps().front()->cgroup().memCurrent());
        });
        const stats::Histogram lat = fleet.mergeHistograms(
            [](host::Host &machine)
                -> std::vector<const stats::Histogram *> {
                std::vector<const stats::Histogram *> hists;
                for (const auto &app : machine.apps())
                    if (app->servingRequests())
                        hists.push_back(&app->requests().latencyUs);
                return hists;
            });
        out.wall_ns = elapsedNs(start, Clock::now());
        out.rss_delta = currentRssBytes() - rss_before;
        out.digest.push_back(static_cast<double>(lat.count()));
        out.digest.push_back(lat.min());
        out.digest.push_back(lat.max());
        out.digest.push_back(lat.mean());
        out.digest.push_back(lat.p50());
        out.digest.push_back(lat.p99());
        out.digest.push_back(lat.p999());
        return out;
    };

    // Serial first: its RSS delta is measured from a clean slate (the
    // allocator retains the first fleet's arenas, so a second run's
    // delta would undercount).
    const FleetRun serial = runOnce(1);
    const FleetRun parallel = runOnce(4);

    const double sim_sec = sim::toSeconds(duration);
    report.metrics["fleet_scale_host_sim_sec_per_wall_sec"] = {
        parallel.wall_ns > 0.0 ? static_cast<double>(hosts) * sim_sec /
                                     (parallel.wall_ns / 1e9)
                               : 0.0,
        "host*s/s", "higher"};
    report.metrics["fleet_scale_rss_bytes_per_host"] = {
        serial.rss_delta / static_cast<double>(hosts), "B", "lower"};
    report.checks["fleet_scale_hosts"] = static_cast<double>(hosts);
    report.checks["fleet_scale_serial_parallel_equal"] =
        serial.digest == parallel.digest ? 1.0 : 0.0;
    // Bit-stable anchor: total requests the fleet served.
    report.checks["fleet_scale_request_count"] =
        serial.digest[hosts]; // first histogram slot after the hosts
}

std::string
jsonNumber(double v)
{
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

void
writeJson(const Report &report, const std::string &path)
{
    std::ofstream out(path);
    out << "{\n";
    out << "  \"schema\": \"tmo-bench/1\",\n";
    out << "  \"git_sha\": \"" << report.sha << "\",\n";
    out << "  \"scale\": \"" << report.scale << "\",\n";
    out << "  \"host\": { \"pages\": " << report.pages
        << ", \"cgroups\": " << report.cgroups << " },\n";
    out << "  \"metrics\": {\n";
    std::size_t i = 0;
    for (const auto &[name, metric] : report.metrics) {
        out << "    \"" << name << "\": { \"value\": "
            << jsonNumber(metric.value) << ", \"unit\": \""
            << metric.unit << "\", \"better\": \"" << metric.better
            << "\" }";
        out << (++i < report.metrics.size() ? ",\n" : "\n");
    }
    out << "  },\n";
    out << "  \"checks\": {\n";
    i = 0;
    for (const auto &[name, value] : report.checks) {
        out << "    \"" << name << "\": " << jsonNumber(value);
        out << (++i < report.checks.size() ? ",\n" : "\n");
    }
    out << "  }\n";
    out << "}\n";
}

void
usage()
{
    std::cout
        << "usage: bench_runner [--quick] [--sha <sha>] [--out <file>]\n"
           "  --quick   small page/cgroup counts (CI smoke)\n"
           "  --sha     git sha recorded in the report "
           "(default: $GIT_SHA or 'local')\n"
           "  --out     output path (default: BENCH_<sha>.json)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Report report;
    if (const char *env = std::getenv("GIT_SHA"))
        report.sha = env;
    std::string out_path;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--sha" && i + 1 < argc) {
            report.sha = argv[++i];
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "bench_runner: unknown argument: " << arg
                      << "\n";
            usage();
            return 2;
        }
    }

    // 64 cgroups x 1M pages is the acceptance-scale configuration;
    // quick mode keeps the same shape at smoke-test cost.
    report.scale = quick ? "quick" : "full";
    report.cgroups = 64;
    report.pages = quick ? 65'536 : 1'048'576;

    std::cout << "bench_runner: scale=" << report.scale << " pages="
              << report.pages << " cgroups=" << report.cgroups
              << " sha=" << report.sha << "\n";

    runMicroSuites(report, report.cgroups, report.pages);
    runTierChainBench(report);
    runFigWorkload(report, quick ? 3 : 10);
    runServingBench(report, quick ? 3 : 8);
    runFleetScaleBench(report, quick);
    report.metrics["peak_rss_mb"] =
        {peakRssBytes() / (1024.0 * 1024.0), "MiB", "lower"};

    if (out_path.empty())
        out_path = "BENCH_" + report.sha + ".json";
    writeJson(report, out_path);

    for (const auto &[name, metric] : report.metrics)
        std::cout << "  " << name << " = " << metric.value << " "
                  << metric.unit << "\n";
    std::cout << "bench_runner: wrote " << out_path << "\n";
    return 0;
}
