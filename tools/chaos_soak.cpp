/**
 * @file
 * chaos_soak — randomized fault-plan soak runner.
 *
 * Runs N seeds, each a small fleet under a per-host random FaultPlan
 * (FaultPlan::random), and asserts the process survives: no crash, no
 * uncaught exception escaping the fleet engine's per-host isolation.
 * Prints one summary row per seed — seed, faults injected, savings,
 * degradation events, failed hosts — so a soak doubles as a quick
 * degradation-vs-savings scan.
 *
 *   chaos_soak --runs 8 --minutes 10 --hosts 2
 *
 * With --trace/--metrics-out each seed writes its own file, the seed
 * number inserted before the extension (soak.jsonl -> soak.3.jsonl),
 * so a failing seed's event history is on disk when it escapes.
 *
 * Self-healing knobs:
 *   --storm                add a host-crash + controller-crash to
 *                          every host's plan (crash-storm scenario)
 *   --restart-max N        rebuild failed hosts up to N times
 *   --restart-backoff-sec  first-restart backoff (doubles per repeat)
 *   --no-audit             skip the per-epoch invariant auditor
 *
 * Exit status: 0 when every seed completed with no permanently failed
 * host and a clean audit; 1 otherwise (per-host errors and audit
 * violations go to stderr); 2 for a bad invocation, including a
 * --trace or --metrics-out file that cannot be opened for some seed.
 */

#include <cstdint>
#include <exception>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_number.hpp"

#include "fault/invariant_auditor.hpp"
#include "host/controller_registry.hpp"
#include "host/fault_plan.hpp"
#include "host/fleet.hpp"
#include "obs/export.hpp"
#include "stats/table.hpp"

using namespace tmo;

namespace
{

struct Options {
    std::uint64_t runs = 8;
    int minutes = 10;
    std::size_t hosts = 2;
    unsigned jobs = 2;
    std::uint64_t seed = 1;
    std::string traceFile;
    std::uint64_t traceBufferMb = 8;
    std::string metricsFile;
    int metricsIntervalSec = 6;
    unsigned restartMax = 0;
    int restartBackoffSec = 30;
    bool storm = false;
    bool audit = true;
};

void
usage()
{
    std::cerr << "usage: chaos_soak [--runs N] [--minutes N] "
                 "[--hosts N] [--jobs N] [--seed N]\n"
                 "                  [--trace FILE] "
                 "[--trace-buffer-mb N]\n"
                 "                  [--metrics-out FILE] "
                 "[--metrics-interval-sec N]\n"
                 "                  [--storm] [--restart-max N] "
                 "[--restart-backoff-sec N] [--no-audit]\n";
}

/** Largest --runs. */
constexpr std::uint64_t MAX_RUNS = std::uint64_t{1} << 20;

/** soak.jsonl + seed 3 -> soak.3.jsonl (suffix when no extension). */
std::string
perSeedPath(const std::string &path, std::uint64_t seed)
{
    const auto dot = path.rfind('.');
    const auto slash = path.find_last_of("/\\");
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "." + std::to_string(seed);
    return path.substr(0, dot) + "." + std::to_string(seed) +
           path.substr(dot);
}

bool
parse(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h")
            return false;
        if (flag == "--storm") {
            options.storm = true;
            continue;
        }
        if (flag == "--no-audit") {
            options.audit = false;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << "chaos_soak: missing value for " << flag
                      << "\n";
            return false;
        }
        const std::string value = argv[++i];
        using cli::parseNumber;
        // A bad number is a named std::invalid_argument.
        try {
            if (flag == "--runs") {
                options.runs = parseNumber<std::uint64_t>(flag, value, 1,
                                                          MAX_RUNS);
            } else if (flag == "--minutes") {
                options.minutes =
                    parseNumber(flag, value, 1, cli::MAX_MINUTES);
            } else if (flag == "--hosts") {
                options.hosts = parseNumber<std::size_t>(flag, value, 1,
                                                         cli::MAX_HOSTS);
            } else if (flag == "--jobs") {
                options.jobs = parseNumber(flag, value, 1u, cli::MAX_JOBS);
            } else if (flag == "--seed") {
                options.seed = parseNumber<std::uint64_t>(
                    flag, value, 0,
                    std::numeric_limits<std::uint64_t>::max());
            } else if (flag == "--trace") {
                options.traceFile = value;
            } else if (flag == "--trace-buffer-mb") {
                options.traceBufferMb = parseNumber<std::uint64_t>(
                    flag, value, 1, cli::MAX_TRACE_BUFFER_MB);
            } else if (flag == "--metrics-out") {
                options.metricsFile = value;
            } else if (flag == "--metrics-interval-sec") {
                options.metricsIntervalSec =
                    parseNumber(flag, value, 1, cli::MAX_SECONDS);
            } else if (flag == "--restart-max") {
                options.restartMax =
                    parseNumber(flag, value, 0u, cli::MAX_RESTARTS);
            } else if (flag == "--restart-backoff-sec") {
                options.restartBackoffSec =
                    parseNumber(flag, value, 0, cli::MAX_SECONDS);
            } else {
                std::cerr << "chaos_soak: unknown flag: " << flag << "\n";
                return false;
            }
        } catch (const std::invalid_argument &error) {
            std::cerr << "chaos_soak: " << error.what() << "\n";
            return false;
        }
    }
    // A per-seed output file that cannot be opened fails now, before
    // any seed runs, not after its seed's simulation.
    try {
        for (std::uint64_t run = 0; run < options.runs; ++run) {
            const std::uint64_t seed = options.seed + run;
            if (!options.traceFile.empty())
                obs::checkWritable("trace",
                                   perSeedPath(options.traceFile, seed));
            if (!options.metricsFile.empty())
                obs::checkWritable(
                    "metrics", perSeedPath(options.metricsFile, seed));
        }
    } catch (const std::invalid_argument &error) {
        std::cerr << "chaos_soak: " << error.what() << "\n";
        return false;
    }
    return true;
}

double
savingsPct(host::Host &machine)
{
    auto &app = *machine.apps().front();
    if (!app.allocatedBytes())
        return 0.0;
    return 100.0 *
           (1.0 - static_cast<double>(app.cgroup().memCurrent()) /
                      static_cast<double>(app.allocatedBytes()));
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

    const auto duration =
        static_cast<sim::SimTime>(options.minutes) * sim::MINUTE;

    stats::Table table("chaos soak");
    table.setHeader({"seed", "faults", "savings% avg",
                     "degradation events", "hosts failed",
                     "restarted", "perm failed"});

    host::RestartPolicy restart;
    restart.maxAttempts = options.restartMax;
    restart.backoff =
        static_cast<sim::SimTime>(options.restartBackoffSec) * sim::SEC;

    bool escaped = false;
    bool unhealed = false;
    for (std::uint64_t run = 0; run < options.runs; ++run) {
        const std::uint64_t seed = options.seed + run;
        const auto plan_for = [&options, seed, duration](std::size_t i) {
            auto plan = host::FaultPlan::random(
                seed + (i + 1) * 0x9e3779b97f4a7c15ull, duration);
            if (options.storm) {
                // The crash-storm scenario: every host dies outright
                // mid-run and loses its controller later if it came
                // back.
                plan.events.push_back(
                    {static_cast<sim::SimTime>(
                         0.3 * static_cast<double>(duration)),
                     host::FaultKind::HOST_CRASH, 0.0});
                plan.events.push_back(
                    {static_cast<sim::SimTime>(
                         0.55 * static_cast<double>(duration)),
                     host::FaultKind::CONTROLLER_CRASH, 20.0});
            }
            return plan;
        };
        try {
            auto fleet = host::FleetSpec{}
                             .hosts(options.hosts)
                             .name_prefix("soak")
                             .ram_mb(512)
                             .page_kb(64)
                             .seed(seed)
                             .tiers("ssd")
                             .workload("feed", 256)
                             .controller(host::controllerFactoryFor(
                                 "senpai", {}))
                             .customize([&plan_for](
                                            std::size_t i,
                                            host::HostBuilder &builder) {
                                 builder.faults(plan_for(i));
                             })
                             .restart(restart)
                             .build();
            if (!options.traceFile.empty())
                fleet.enableTracing(static_cast<std::size_t>(
                                        options.traceBufferMb)
                                    << 20);
            if (!options.metricsFile.empty())
                fleet.enableMetrics(
                    static_cast<sim::SimTime>(
                        options.metricsIntervalSec) *
                    sim::SEC);
            if (options.audit)
                fleet.enableInvariantAudit(fault::auditHost);
            fleet.start();
            fleet.run(duration, options.jobs);

            std::uint64_t faults = 0;
            std::uint64_t degradation = 0;
            double savings = 0.0;
            for (std::size_t i = 0; i < fleet.size(); ++i) {
                if (const auto *injector = fleet.injector(i))
                    faults += injector->injected();
                degradation +=
                    host::hostDegradationEvents(fleet.host(i));
                savings += savingsPct(fleet.host(i));
            }
            savings /= static_cast<double>(fleet.size());

            table.addRow({std::to_string(seed),
                          std::to_string(faults),
                          stats::fmt(savings, 2),
                          std::to_string(degradation),
                          std::to_string(fleet.failedCount()),
                          std::to_string(fleet.restartedCount()),
                          std::to_string(
                              fleet.permanentlyFailedCount())});

            if (fleet.permanentlyFailedCount() > 0) {
                unhealed = true;
                for (std::size_t i = 0; i < fleet.size(); ++i)
                    if (fleet.hostFailed(i))
                        std::cerr << "chaos_soak: seed " << seed
                                  << ": " << fleet.host(i).name()
                                  << " permanently failed: "
                                  << fleet.hostError(i) << "\n";
            }
            if (!fleet.auditViolations().empty()) {
                unhealed = true;
                for (const auto &violation :
                     fleet.auditViolations())
                    std::cerr << "chaos_soak: seed " << seed
                              << ": invariant violated: "
                              << violation << "\n";
            }

            if (!options.traceFile.empty())
                obs::writeTraceFile(
                    perSeedPath(options.traceFile, seed),
                    fleet.traces());
            if (!options.metricsFile.empty()) {
                const auto merged = fleet.metricSeries();
                std::vector<const stats::TimeSeries *> series;
                series.reserve(merged.size());
                for (const auto &s : merged)
                    series.push_back(&s);
                obs::writeMetricsFile(
                    perSeedPath(options.metricsFile, seed), series);
            }
        } catch (const std::exception &error) {
            escaped = true;
            std::cerr << "chaos_soak: seed " << seed
                      << " escaped: " << error.what() << "\n";
        }
    }
    table.print(std::cout);
    return escaped || unhealed ? 1 : 0;
}
