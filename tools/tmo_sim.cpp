/**
 * @file
 * tmo_sim — command-line scenario driver.
 *
 * Runs one workload on a simulated host — or a sharded fleet of them —
 * under a chosen offload tier chain and controller, printing a
 * per-minute series and a final summary. Handy for exploring
 * configurations without writing code:
 *
 *   tmo_sim --app web --tiers zswap --controller senpai --minutes 60
 *   tmo_sim --app ads_b --tiers ssd --ssd-class B --csv
 *   tmo_sim --app web --tiers "zswap+ssd;placement=workingset"
 *   tmo_sim --hosts 64 --jobs 8 --minutes 60        # fleet percentiles
 *   tmo_sim --tiers ssd --fault-plan faults.txt     # scripted bad day
 *   tmo_sim --hosts 16 --chaos 7                    # random faults/host
 *
 * With --hosts > 1 each host runs on its own shard clock (seeded by
 * host index) and the per-minute series switches to cross-host
 * percentiles; --jobs only changes wall-clock time, never the output.
 *
 * Flags (defaults in brackets):
 *   --app NAME           workload preset [feed]
 *   --footprint-mb N     workload footprint [1024]
 *   --ram-mb N           host DRAM [2048]
 *   --tiers SPEC         anon tier chain, fastest first [zswap], e.g.
 *                        ssd, zswap:256mb+ssd or zswap+zswap:1gb+nvm
 *                        ("none" disables anon offloading); append
 *                        ";placement=workingset" for the two-tier
 *                        working-set hierarchy without background
 *                        movement (default placement=hotness)
 *   --ssd-class C        SSD device class A-G [C]
 *   --zswap-compressor C lzo|lz4|zstd [zstd]
 *   --zswap-allocator A  zbud|z3fold|zsmalloc [zsmalloc]
 *   --controller C       none|senpai|senpai-aggressive|senpai-slo|
 *                        tmo|gswap [senpai]
 *   --psi-threshold F    Senpai pressure target override
 *   --io-psi-threshold F Senpai IO-pressure guard override
 *   --reclaim-ratio F    Senpai base reclaim step override
 *   --max-probe-ratio F  Senpai per-interval step cap override
 *   --trace-rps SPEC     request-level serving: open-loop Poisson
 *                        arrivals over a traffic curve, e.g.
 *                        flat:rps=2000 |
 *                        diurnal:rps=2000,amp=0.6,period-min=60 |
 *                        spike:rps=2000,mult=4,at-min=30,dur-min=10
 *                        (adds per-request p50/p99/p999 output)
 *   --slo-p99-us F       p99 latency target for --controller
 *                        senpai-slo [2000]
 *   --minutes N          simulated duration [60]
 *   --hosts N            fleet size [1]
 *   --jobs N             worker threads for the fleet engine [1]
 *   --epoch-sec N        lockstep barrier period [60]
 *   --seed N             RNG seed [42]
 *   --fault-plan FILE    scripted fault schedule, applied to every host
 *                        (lines: t=<sec> kind=<event> arg=<v>)
 *   --chaos SEED         additionally inject a random per-host fault
 *                        plan derived from SEED (deterministic)
 *   --csv                machine-readable series output
 *   --trace FILE         write the merged event trace (.jsonl/.csv,
 *                        anything else: Chrome trace-event JSON)
 *   --trace-buffer-mb N  per-host trace ring capacity [8]
 *   --metrics-out FILE   write sampled metric series (.jsonl/.csv)
 *   --metrics-interval-sec N  metric sampling period [6]
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_number.hpp"

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "host/controller_registry.hpp"
#include "host/fleet.hpp"
#include "obs/export.hpp"
#include "stats/table.hpp"
#include "stats/timeseries.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace
{

struct Options {
    std::string app = "feed";
    std::uint64_t footprintMb = 1024;
    std::uint64_t ramMb = 2048;
    /** Simulated page size; smaller pages scale the per-host page
     *  count up without scaling footprint (fleet-scale smoke). */
    std::uint64_t pageKb = 64;
    /** Tier chain spec ("zswap:256mb+ssd"), validated at parse time. */
    std::string tiers = "zswap";
    char ssdClass = 'C';
    std::string zswapCompressor = "zstd";
    std::string zswapAllocator = "zsmalloc";
    std::string controller = "senpai";
    double psiThreshold = 0.0; // 0 = keep the config default
    double ioPsiThreshold = 0.0;
    double reclaimRatio = 0.0;
    double maxProbeRatio = 0.0;
    /** Traffic curve for request-level serving; empty = legacy
     *  closed-form RPS model. */
    std::string traceRps;
    /** senpai-slo p99 target override (µs); 0 = config default. */
    double sloP99Us = 0.0;
    int minutes = 60;
    std::size_t hosts = 1;
    unsigned jobs = 1;
    int epochSec = 60;
    std::uint64_t seed = 42;
    bool csv = false;
    /** Scripted faults, parsed (and thus validated) at flag-parse
     *  time; empty = none. */
    fault::FaultPlan faultPlan;
    std::optional<std::uint64_t> chaosSeed;
    std::string traceFile;
    std::uint64_t traceBufferMb = 8;
    std::string metricsFile;
    int metricsIntervalSec = 6;
    /** Host rebuild budget after a crash; 0 = quarantine only. */
    unsigned restartMax = 0;
    int restartBackoffSec = 30;
};

void
usage()
{
    std::cerr
        << "usage: tmo_sim [--app NAME] [--footprint-mb N] "
           "[--ram-mb N] [--page-kb N]\n"
           "               [--tiers SPEC e.g. zswap:256mb+ssd or "
           "zswap+ssd;placement=workingset]\n"
           "               [--ssd-class A-G]\n"
           "               [--controller "
           "none|senpai|senpai-aggressive|senpai-slo|tmo|gswap]\n"
           "               [--trace-rps SPEC e.g. "
           "diurnal:rps=2000,amp=0.6,period-min=60]\n"
           "               [--slo-p99-us F]\n"
           "               [--zswap-compressor lzo|lz4|zstd] "
           "[--zswap-allocator zbud|z3fold|zsmalloc]\n"
           "               [--psi-threshold F] [--io-psi-threshold F]\n"
           "               [--reclaim-ratio F] [--max-probe-ratio F]\n"
           "               [--minutes N] [--hosts N] [--jobs N]\n"
           "               [--epoch-sec N] [--seed N] "
           "[--fault-plan FILE] [--chaos SEED] [--csv]\n"
           "               [--trace FILE] [--trace-buffer-mb N]\n"
           "               [--metrics-out FILE] "
           "[--metrics-interval-sec N]\n"
           "               [--restart-max N] "
           "[--restart-backoff-sec N]\n";
}

/** Largest --ram-mb and --footprint-mb: 1 TiB. */
constexpr std::uint64_t MAX_MB = std::uint64_t{1} << 20;
/** Largest --page-kb: pageBytes is 32-bit. */
constexpr std::uint64_t MAX_PAGE_KB = (std::uint64_t{1} << 22) - 1;
/** Largest --slo-p99-us: 1000 s. */
constexpr double MAX_SLO_US = 1e9;

bool
parseFlag(const std::string &flag, const char *value, Options &options)
{
    using cli::Lower;
    using cli::parseNumber;
    constexpr auto U64_MAX = std::numeric_limits<std::uint64_t>::max();
    if (flag == "--app") {
        options.app = value;
    } else if (flag == "--footprint-mb") {
        options.footprintMb =
            parseNumber<std::uint64_t>(flag, value, 1, MAX_MB);
    } else if (flag == "--ram-mb") {
        options.ramMb = parseNumber<std::uint64_t>(flag, value, 1, MAX_MB);
    } else if (flag == "--page-kb") {
        options.pageKb =
            parseNumber<std::uint64_t>(flag, value, 1, MAX_PAGE_KB);
    } else if (flag == "--tiers") {
        // Validate now, not after the fleet is built: a malformed
        // chain spec dies here with the parser's named error.
        options.tiers = value;
        std::string error;
        if (!tier::isValidTierChainSpec(options.tiers, &error))
            throw std::invalid_argument(error);
    } else if (flag == "--ssd-class") {
        if (std::strlen(value) != 1 || !backend::isValidSsdClass(value[0]))
            throw std::invalid_argument(std::string("unknown SSD class '") +
                                        value + "' (expected A-G)");
        options.ssdClass = value[0];
    } else if (flag == "--zswap-compressor") {
        options.zswapCompressor = value;
        if (!backend::isKnownCompressor(options.zswapCompressor))
            throw std::invalid_argument(std::string("unknown compressor '") +
                                        value + "' (expected lzo|lz4|zstd)");
    } else if (flag == "--zswap-allocator") {
        options.zswapAllocator = value;
        if (!backend::isKnownAllocator(options.zswapAllocator))
            throw std::invalid_argument(
                std::string("unknown allocator '") + value +
                "' (expected zbud|z3fold|zsmalloc)");
    } else if (flag == "--fault-plan") {
        // Parse (and so validate) the plan file now: a malformed plan
        // must die with a line-numbered error before any simulation
        // state exists.
        options.faultPlan = fault::FaultPlan::fromFile(value);
    } else if (flag == "--chaos") {
        options.chaosSeed =
            parseNumber<std::uint64_t>(flag, value, 0, U64_MAX);
    } else if (flag == "--controller") {
        options.controller = value;
        if (!host::isKnownController(options.controller)) {
            std::string error =
                "unknown controller '" + options.controller + "' (expected ";
            const auto &names = host::knownControllers();
            for (std::size_t n = 0; n < names.size(); ++n)
                error += (n ? "|" : "") + names[n];
            throw std::invalid_argument(error + ")");
        }
    } else if (flag == "--psi-threshold") {
        options.psiThreshold =
            parseNumber(flag, value, 0.0, 1.0, Lower::EXCLUSIVE);
    } else if (flag == "--io-psi-threshold") {
        options.ioPsiThreshold =
            parseNumber(flag, value, 0.0, 1.0, Lower::EXCLUSIVE);
    } else if (flag == "--reclaim-ratio") {
        options.reclaimRatio =
            parseNumber(flag, value, 0.0, 1.0, Lower::EXCLUSIVE);
    } else if (flag == "--max-probe-ratio") {
        options.maxProbeRatio =
            parseNumber(flag, value, 0.0, 1.0, Lower::EXCLUSIVE);
    } else if (flag == "--trace-rps") {
        // Fail fast with the parser's named error, never mid-build.
        options.traceRps = value;
        std::string error;
        if (!workload::isValidTrafficSpec(options.traceRps, &error))
            throw std::invalid_argument(error);
    } else if (flag == "--slo-p99-us") {
        options.sloP99Us =
            parseNumber(flag, value, 0.0, MAX_SLO_US, Lower::EXCLUSIVE);
    } else if (flag == "--minutes") {
        options.minutes = parseNumber(flag, value, 1, cli::MAX_MINUTES);
    } else if (flag == "--hosts") {
        options.hosts =
            parseNumber<std::size_t>(flag, value, 1, cli::MAX_HOSTS);
    } else if (flag == "--jobs") {
        options.jobs = parseNumber(flag, value, 1u, cli::MAX_JOBS);
    } else if (flag == "--epoch-sec") {
        options.epochSec = parseNumber(flag, value, 1, cli::MAX_SECONDS);
    } else if (flag == "--seed") {
        options.seed = parseNumber<std::uint64_t>(flag, value, 0, U64_MAX);
    } else if (flag == "--trace") {
        // An output path that cannot be written fails now, not after
        // the run it would have recorded.
        obs::checkWritable("trace", value);
        options.traceFile = value;
    } else if (flag == "--trace-buffer-mb") {
        options.traceBufferMb = parseNumber<std::uint64_t>(
            flag, value, 1, cli::MAX_TRACE_BUFFER_MB);
    } else if (flag == "--metrics-out") {
        obs::checkWritable("metrics", value);
        options.metricsFile = value;
    } else if (flag == "--metrics-interval-sec") {
        options.metricsIntervalSec =
            parseNumber(flag, value, 1, cli::MAX_SECONDS);
    } else if (flag == "--restart-max") {
        options.restartMax = parseNumber(flag, value, 0u, cli::MAX_RESTARTS);
    } else if (flag == "--restart-backoff-sec") {
        options.restartBackoffSec =
            parseNumber(flag, value, 0, cli::MAX_SECONDS);
    } else {
        return false;
    }
    return true;
}

bool
parse(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--csv") {
            options.csv = true;
            continue;
        }
        if (flag == "--help" || flag == "-h")
            return false;
        if (i + 1 >= argc) {
            std::cerr << "tmo_sim: missing value for " << flag << "\n";
            return false;
        }
        // Every value error is a named std::invalid_argument, thrown
        // before any simulation state exists.
        try {
            if (!parseFlag(flag, argv[++i], options)) {
                std::cerr << "tmo_sim: unknown flag: " << flag << "\n";
                return false;
            }
        } catch (const std::invalid_argument &error) {
            std::cerr << "tmo_sim: " << error.what() << "\n";
            return false;
        }
    }
    return true;
}

// --- per-host metrics (all read at epoch barriers) -----------------------

workload::AppModel &
primaryApp(host::Host &machine)
{
    return *machine.apps().front();
}

double
savingsPct(host::Host &machine)
{
    auto &app = primaryApp(machine);
    if (!app.allocatedBytes())
        return 0.0;
    return 100.0 *
           (1.0 - static_cast<double>(app.cgroup().memCurrent()) /
                      static_cast<double>(app.allocatedBytes()));
}

double
memPsiAvg60(host::Host &machine)
{
    return primaryApp(machine).cgroup().psi().some(psi::Resource::MEM)
               .avg60 *
           100.0;
}

double
ioPsiAvg60(host::Host &machine)
{
    return primaryApp(machine).cgroup().psi().some(psi::Resource::IO)
               .avg60 *
           100.0;
}

/** Every serving app's cumulative latency merged fleet-wide. */
stats::Histogram
fleetLatency(host::Fleet &fleet)
{
    return fleet.mergeHistograms(
        [](host::Host &machine)
            -> std::vector<const stats::Histogram *> {
            std::vector<const stats::Histogram *> hists;
            for (const auto &app : machine.apps())
                if (app->servingRequests())
                    hists.push_back(&app->requests().latencyUs);
            return hists;
        });
}

void
printSingleHostMinute(host::Host &machine, int minute, bool csv,
                      bool serving)
{
    if (!csv && minute % 10 != 0)
        return;
    auto &app = primaryApp(machine);
    const double resident_mb =
        static_cast<double>(app.cgroup().memCurrent()) / (1 << 20);
    std::cout << minute << "," << stats::fmt(resident_mb, 1) << ","
              << stats::fmt(savingsPct(machine), 2) << ","
              << stats::fmt(app.lastTick().completedRps, 0) << ","
              << stats::fmt(memPsiAvg60(machine), 4) << ","
              << stats::fmt(ioPsiAvg60(machine), 4) << ","
              << app.cgroup().stats().pswpin << ","
              << app.cgroup().stats().wsRefault;
    if (serving) {
        const auto &lat = app.requests().latencyUs;
        std::cout << "," << stats::fmt(lat.p50(), 1) << ","
                  << stats::fmt(lat.p99(), 1) << ","
                  << stats::fmt(lat.p999(), 1) << ","
                  << app.requests().dropped;
    }
    std::cout << "\n";
}

void
printFleetMinute(host::Fleet &fleet, int minute, bool csv,
                 bool serving)
{
    if (!csv && minute % 10 != 0)
        return;
    const auto savings = fleet.collect(savingsPct);
    const auto pressure = fleet.collect(memPsiAvg60);
    const auto rps = fleet.collect([](host::Host &machine) {
        return primaryApp(machine).lastTick().completedRps;
    });
    std::uint64_t swapins = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i)
        swapins += primaryApp(fleet.host(i)).cgroup().stats().pswpin;
    // fmtQuantile prints "no data" once every host has failed —
    // collect() then returns an empty vector and indexing it (the old
    // values[0]-style read) would be out of bounds.
    std::cout << minute << "," << stats::fmtQuantile(savings, 0.5, 2)
              << "," << stats::fmtQuantile(savings, 0.9, 2) << ","
              << stats::fmtQuantile(savings, 0.99, 2) << ","
              << stats::fmtQuantile(rps, 0.5, 0) << ","
              << stats::fmtQuantile(pressure, 0.5, 4) << ","
              << stats::fmtQuantile(pressure, 0.9, 4) << ","
              << swapins;
    if (serving) {
        const auto lat = fleetLatency(fleet);
        std::cout << "," << stats::fmt(lat.p50(), 1) << ","
                  << stats::fmt(lat.p99(), 1) << ","
                  << stats::fmt(lat.p999(), 1);
    }
    std::cout << "\n";
}

void
printSingleHostSummary(host::Fleet &fleet, host::Host &machine,
                       const Options &options,
                       const fault::FaultInjector *injector)
{
    auto &app = primaryApp(machine);
    const auto info = machine.memory().info(app.cgroup());
    stats::Table table("summary");
    table.setHeader({"metric", "value"});
    table.addRow({"app", options.app});
    table.addRow({"tiers", options.tiers});
    table.addRow({"controller", machine.controller()
                                    ? machine.controller()->name()
                                    : "none"});
    table.addRow({"allocated", stats::fmtBytes(static_cast<double>(
                                   app.allocatedBytes()))});
    table.addRow({"resident (DRAM)",
                  stats::fmtBytes(static_cast<double>(
                      info.residentBytes + info.zswapBytes))});
    table.addRow({"zswap pool", stats::fmtBytes(static_cast<double>(
                                    info.zswapBytes))});
    table.addRow({"swap/nvm used",
                  stats::fmtBytes(static_cast<double>(info.swapBytes))});
    table.addRow({"ssd bytes written",
                  stats::fmtBytes(static_cast<double>(
                      machine.ssd().bytesWritten()))});
    table.addRow({"oom events",
                  std::to_string(machine.memory().oomEvents())});
    if (app.servingRequests()) {
        const auto &req = app.requests();
        table.addRow({"requests offered", std::to_string(req.offered)});
        table.addRow(
            {"requests completed", std::to_string(req.completed)});
        table.addRow({"requests dropped", std::to_string(req.dropped)});
        table.addRow(
            {"req p50 us", stats::fmt(req.latencyUs.p50(), 1)});
        table.addRow(
            {"req p99 us", stats::fmt(req.latencyUs.p99(), 1)});
        table.addRow(
            {"req p999 us", stats::fmt(req.latencyUs.p999(), 1)});
    }
    if (machine.controller())
        for (const auto &[label, value] :
             machine.controller()->statsRow())
            table.addRow({label, value});
    if (injector)
        for (const auto &[label, value] : injector->statsRow())
            table.addRow({label, value});
    if (fleet.restartPolicy().maxAttempts > 0) {
        table.addRow({"hosts restarted",
                      std::to_string(fleet.restartedCount())});
        table.addRow({"hosts permanently failed",
                      std::to_string(
                          fleet.permanentlyFailedCount())});
    }
    table.print(std::cout);
}

void
printFleetSummary(
    host::Fleet &fleet, const Options &options,
    const std::vector<std::unique_ptr<fault::FaultInjector>>
        &injectors)
{
    const auto savings = fleet.collect(savingsPct);
    const auto pressure = fleet.collect(memPsiAvg60);
    const auto rps_retention =
        fleet.collect([](host::Host &machine) {
            const auto &tick = primaryApp(machine).lastTick();
            return tick.completedRps / std::max(1.0, tick.offeredRps);
        });
    double ssd_written = 0.0;
    std::uint64_t ooms = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        ssd_written +=
            static_cast<double>(fleet.host(i).ssd().bytesWritten());
        ooms += fleet.host(i).memory().oomEvents();
    }
    stats::Table table("fleet summary");
    table.setHeader({"metric", "value"});
    table.addRow({"hosts", std::to_string(fleet.size())});
    table.addRow({"app", options.app});
    table.addRow({"tiers", options.tiers});
    table.addRow({"controller", fleet.host(0).controller()
                                    ? fleet.host(0).controller()->name()
                                    : "none"});
    // collect() is empty once every host has failed; fmtQuantile and
    // fmtQuantilePercent report "no data" instead of reading past the
    // end of an empty value set.
    table.addRow(
        {"savings% P50", stats::fmtQuantile(savings, 0.5, 2)});
    table.addRow(
        {"savings% P90", stats::fmtQuantile(savings, 0.9, 2)});
    table.addRow(
        {"savings% P99", stats::fmtQuantile(savings, 0.99, 2)});
    table.addRow({"mem PSI avg60% P50",
                  stats::fmtQuantile(pressure, 0.5, 4)});
    table.addRow({"mem PSI avg60% P90",
                  stats::fmtQuantile(pressure, 0.9, 4)});
    table.addRow({"rps retention P50",
                  stats::fmtQuantilePercent(rps_retention, 0.5, 1)});
    table.addRow({"ssd bytes written", stats::fmtBytes(ssd_written)});
    table.addRow({"oom events", std::to_string(ooms)});
    const auto fleet_lat = fleetLatency(fleet);
    if (fleet_lat.count() > 0) {
        // Fleet percentiles over every request served (merged
        // histograms), plus the spread of per-app p99s across hosts.
        table.addRow({"requests completed",
                      std::to_string(fleet_lat.count())});
        table.addRow({"req p50 us", stats::fmt(fleet_lat.p50(), 1)});
        table.addRow({"req p99 us", stats::fmt(fleet_lat.p99(), 1)});
        table.addRow({"req p999 us", stats::fmt(fleet_lat.p999(), 1)});
        const auto app_p99 = fleet.collect([](host::Host &machine) {
            return primaryApp(machine).requests().latencyUs.p99();
        });
        table.addRow({"per-app p99 us P50",
                      stats::fmtQuantile(app_p99, 0.5, 1)});
        table.addRow({"per-app p99 us P99",
                      stats::fmtQuantile(app_p99, 0.99, 1)});
    }
    table.addRow({"hosts failed", std::to_string(fleet.failedCount())});
    if (fleet.restartPolicy().maxAttempts > 0) {
        table.addRow({"hosts restarted",
                      std::to_string(fleet.restartedCount())});
        table.addRow({"hosts permanently failed",
                      std::to_string(
                          fleet.permanentlyFailedCount())});
    }
    std::uint64_t faults = 0;
    bool any_injector = false;
    for (const auto &injector : injectors) {
        if (!injector)
            continue;
        any_injector = true;
        faults += injector->injected();
    }
    if (any_injector) {
        std::size_t degraded = 0;
        for (std::size_t i = 0; i < fleet.size(); ++i)
            if (fault::hostBackendStatus(fleet.host(i)) !=
                backend::BackendStatus::HEALTHY)
                ++degraded;
        const auto events =
            fleet.collect([](host::Host &machine) {
                return static_cast<double>(
                    fault::hostDegradationEvents(machine));
            });
        table.addRow({"hosts degraded", std::to_string(degraded)});
        table.addRow({"faults injected", std::to_string(faults)});
        table.addRow({"degradation events P50",
                      stats::fmtQuantile(events, 0.5, 0)});
        table.addRow({"degradation events P99",
                      stats::fmtQuantile(events, 0.99, 0)});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parse(argc, argv, options)) {
        usage();
        return 2;
    }

    host::ControllerOptions controller_options;
    controller_options.psiThreshold = options.psiThreshold;
    controller_options.ioPsiThreshold = options.ioPsiThreshold;
    controller_options.reclaimRatio = options.reclaimRatio;
    controller_options.maxProbeRatio = options.maxProbeRatio;
    controller_options.sloP99Us = options.sloP99Us;

    // Zswap presets were validated at parse time, so these cannot
    // throw.
    host::HostConfig base_config;
    base_config.zswap.compressor =
        backend::compressorPreset(options.zswapCompressor);
    base_config.zswap.allocator =
        backend::allocatorPreset(options.zswapAllocator);

    // "cxl" anywhere in the chain picks the CXL-DRAM NVM preset.
    const bool wants_cxl = options.tiers.find("cxl") != std::string::npos;

    host::Fleet fleet;
    try {
        auto spec =
            host::FleetSpec{}
                .config(base_config)
                .hosts(options.hosts)
                .epoch(static_cast<sim::SimTime>(options.epochSec) *
                       sim::SEC)
                .name_prefix("cli")
                .ram_mb(options.ramMb)
                .page_kb(options.pageKb)
                .ssd_class(options.ssdClass)
                .nvm_preset(wants_cxl ? "cxl-dram" : "optane")
                .seed(options.seed)
                .tiers(options.tiers)
                .workload(options.app, options.footprintMb)
                .controller(host::controllerFactoryFor(
                    options.controller, controller_options));
        if (!options.traceRps.empty())
            spec.traffic(options.traceRps);
        fleet = spec.build();
    } catch (const std::invalid_argument &error) {
        std::cerr << "tmo_sim: " << error.what() << "\n";
        usage();
        return 2;
    }
    if (!options.traceFile.empty())
        fleet.enableTracing(
            static_cast<std::size_t>(options.traceBufferMb) << 20);
    if (!options.metricsFile.empty())
        fleet.enableMetrics(
            static_cast<sim::SimTime>(options.metricsIntervalSec) *
            sim::SEC);
    if (options.restartMax > 0) {
        host::RestartPolicy policy;
        policy.maxAttempts = options.restartMax;
        policy.backoff =
            static_cast<sim::SimTime>(options.restartBackoffSec) *
            sim::SEC;
        fleet.setRestartPolicy(policy);
    }
    fleet.start();

    // Fault delivery: the scripted plan applies to every host; --chaos
    // layers a per-host random plan (seed mixed with the host index)
    // on top. Injection rides each host's own shard clock, so results
    // stay bit-identical for any --jobs.
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors(
        fleet.size());
    const auto duration =
        static_cast<sim::SimTime>(options.minutes) * sim::MINUTE;
    std::vector<fault::FaultPlan> plans(fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        fault::FaultPlan plan = options.faultPlan;
        if (options.chaosSeed) {
            const auto chaos = fault::FaultPlan::random(
                *options.chaosSeed +
                    (i + 1) * 0x9e3779b97f4a7c15ull,
                duration);
            plan.events.insert(plan.events.end(),
                               chaos.events.begin(),
                               chaos.events.end());
        }
        plans[i] = std::move(plan);
        if (plans[i].empty())
            continue;
        injectors[i] = std::make_unique<fault::FaultInjector>(
            fleet.host(i), plans[i]);
        injectors[i]->arm();
    }

    // A rebuilt host resumes its plan from the fleet clock onward:
    // arm() fires past events immediately, so re-arming the full plan
    // would replay the crash that killed the host.
    fleet.onHostRestart([&fleet, &plans, &injectors](
                            std::size_t i, host::Host &machine) {
        fault::FaultPlan rest;
        for (const auto &event : plans[i].events)
            if (event.at > fleet.now())
                rest.events.push_back(event);
        if (rest.empty()) {
            injectors[i].reset();
            return;
        }
        injectors[i] = std::make_unique<fault::FaultInjector>(
            machine, std::move(rest));
        injectors[i]->arm();
    });

    const bool fleet_mode = fleet.size() > 1;
    const bool serving = !options.traceRps.empty();
    if (options.csv) {
        std::cout << (fleet_mode
                          ? "minute,savings_p50,savings_p90,"
                            "savings_p99,rps_p50,mem_psi_p50,"
                            "mem_psi_p90,swapins_total"
                          : "minute,resident_mb,savings_pct,rps,"
                            "mem_psi_avg60,io_psi_avg60,swapins,"
                            "refaults");
        if (serving)
            std::cout << (fleet_mode
                              ? ",req_p50_us,req_p99_us,req_p999_us"
                              : ",req_p50_us,req_p99_us,req_p999_us,"
                                "req_dropped");
        std::cout << "\n";
    }
    for (int minute = 1; minute <= options.minutes; ++minute) {
        fleet.run(static_cast<sim::SimTime>(minute) * sim::MINUTE,
                  options.jobs);
        if (fleet_mode)
            printFleetMinute(fleet, minute, options.csv, serving);
        else
            printSingleHostMinute(fleet.host(0), minute, options.csv,
                                  serving);
    }

    if (!options.csv) {
        if (fleet_mode)
            printFleetSummary(fleet, options, injectors);
        else
            printSingleHostSummary(fleet, fleet.host(0), options,
                                   injectors[0].get());
    }

    try {
        if (!options.traceFile.empty())
            obs::writeTraceFile(options.traceFile, fleet.traces());
        if (!options.metricsFile.empty()) {
            const auto merged = fleet.metricSeries();
            std::vector<const stats::TimeSeries *> series;
            series.reserve(merged.size());
            for (const auto &s : merged)
                series.push_back(&s);
            obs::writeMetricsFile(options.metricsFile, series);
        }
    } catch (const std::runtime_error &error) {
        std::cerr << "tmo_sim: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
