/**
 * @file
 * One run of one pinned end-to-end workload; perfbench/run.py drives
 * it (README.md in this directory explains the benchmark).
 *
 *   tmo_perfbench --workload NAME --seed N --mode timed|traced|check
 *                 [--spans FILE]
 *   tmo_perfbench --selftest
 *
 * A run is a batch job: build a fleet through host::FleetSpec, start
 * it, advance it barrier by barrier to the workload's simulated
 * length, and print one JSON line on stdout with the wall times, the
 * peak RSS, the result digest and the main simulated results.
 *
 *  - timed: the workload alone; its times are the end-to-end metrics.
 *  - traced: the same run with the benchmark's seams on (a timed
 *    wrapper around every container's memory.reclaim hook, a read of
 *    every app tick's counters, per-host trace rings counted and
 *    cleared at every barrier) and spans around every call the
 *    benchmark makes into a layer. The seams must leave the digest
 *    unchanged.
 *  - check: the same run with fault::auditHost at every barrier.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cgroup/cgroup.hpp"
#include "core/controller.hpp"
#include "core/senpai.hpp"
#include "fault/invariant_auditor.hpp"
#include "host/fleet.hpp"
#include "host/fleet_spec.hpp"
#include "obs/trace.hpp"
#include "psi/psi.hpp"
#include "spans.hpp"
#include "stats/histogram.hpp"
#include "workload/app_profile.hpp"

namespace
{

using namespace tmo;
using perfbench::Span;
using perfbench::SpanLog;

enum class Mode { TIMED, TRACED, CHECK };

constexpr std::size_t MIB = std::size_t{1} << 20;

/** One pinned workload; README.md gives the reason for each. */
struct Workload {
    const char *name;
    std::size_t hosts;
    /** Simulated length of one run. */
    sim::SimTime length;
    /** Lockstep barrier period. */
    sim::SimTime epoch;
    /** Executor lanes, capped at the machine's core count. */
    unsigned lanes;
    /** Gather per-host savings and memory PSI every simulated minute,
     *  as the tmo CLI's per-minute fleet row does. */
    bool gathers;
    /** Poll idleBreakdown for every container at every barrier: the
     *  coldness sample core::WorkingsetProfiler takes. */
    bool idlePolls;
    /** Trace ring per host in the traced run. It must hold everything
     *  a host records between two barriers, and during start. */
    std::size_t ringBytes;
};

const Workload WORKLOADS[] = {
    {"web_serving", 1, 10 * sim::MINUTE, sim::MINUTE, 1, false, false,
     MIB},
    {"memory_bound", 1, 20 * sim::MINUTE, 30 * sim::SEC, 1, false, true,
     32 * MIB},
    {"wide_fleet", 512, 60 * sim::MINUTE, 30 * sim::SEC, 4, true, false,
     MIB / 64},
};

host::FleetSpec
fleetSpec(const Workload &w, std::uint64_t seed)
{
    host::FleetSpec spec;
    spec.hosts(w.hosts).epoch(w.epoch).seed(seed).controller("senpai");
    const std::string name = w.name;
    if (name == "web_serving") {
        // The tmo CLI's defaults (2 GiB RAM, 64 KiB pages, web at
        // 1 GiB); one diurnal period per run.
        spec.ram_mb(2048)
            .page_kb(64)
            .tiers("zswap:256mb+ssd")
            .workload("web", 1024)
            .traffic("diurnal:rps=1200,amp=0.3,period-min=" +
                     std::to_string(w.length / sim::MINUTE));
    } else if (name == "memory_bound") {
        // Fig. 3's memory tax: two apps and two sidecars, 4 GiB of
        // demand on 3 GiB of RAM. Three tiers: the hotness placement
        // then sends a page faulted back from swap and evicted again
        // within the same heat decay period to the 256 MiB compressed
        // tier, and tierMaintain demotes it to the SSD once its heat
        // decays. On two tiers only heat >= 4 enters zswap, and no
        // evicted page here is that hot.
        spec.ram_mb(3072)
            .page_kb(4)
            .tiers("zswap:64mb+zswap:256mb+ssd")
            .workload("feed", 2048)
            .workload("cache_a", 1024)
            .workload("dc_logging", 512)
            .workload("ms_proxy", 512);
    } else {
        spec.ram_mb(96).page_kb(64).tiers("zswap:32mb+ssd").customize(
            [](std::size_t i, host::HostBuilder &builder) {
                const auto &presets = workload::appPresetNames();
                builder.workload(presets[i % presets.size()], 64);
            });
    }
    return spec;
}

/** FNV-1a over the 64-bit words of the simulated results. */
class Digest
{
  public:
    void
    word(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    real(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        word(bits);
    }

    std::string
    hex() const
    {
        char text[17];
        std::snprintf(text, sizeof text, "%016llx",
                      static_cast<unsigned long long>(hash_));
        return text;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

workload::AppModel &
primaryApp(host::Host &machine)
{
    return *machine.apps().front();
}

/** The tmo CLI's per-host savings: the share of the primary app's
 *  footprint not resident in DRAM, in percent. */
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

/** The tmo CLI's per-host memory pressure (some, avg60, percent). */
double
memPsiAvg60(host::Host &machine)
{
    return primaryApp(machine).cgroup().psi().some(psi::Resource::MEM)
               .avg60 *
           100.0;
}

/** Fold the simulated end state into @p digest: per container its
 *  vmstat counters, memory.current, footprint, PSI totals, request
 *  counters and latencies; per host SSD writes and resident pages. */
void
digestEndState(host::Fleet &fleet, Digest &digest)
{
    const sim::SimTime now = fleet.now();
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        host::Host &machine = fleet.host(i);
        digest.word(fleet.hostFailed(i) ? 1 : 0);
        for (const auto &app : machine.apps()) {
            const cgroup::Cgroup &cg = app->cgroup();
            const cgroup::VmStats &s = cg.stats();
            for (const std::uint64_t v :
                 {s.pgscan, s.pgsteal, s.pgactivate, s.pgdeactivate,
                  s.pgrotate, s.pswpout, s.pswpin, s.pgfilesteal,
                  s.pgfilefault, s.wsRefault, s.wsRefaultAnon,
                  s.wsActivate, s.zswpout, s.zswpin, s.tierDemote,
                  s.tierPromote, s.tierEvacuate, s.tierLost,
                  s.lostRefault})
                digest.word(v);
            digest.word(cg.memCurrent());
            digest.word(app->allocatedBytes());
            digest.word(cg.psi().totalSome(psi::Resource::MEM, now));
            digest.word(cg.psi().totalSome(psi::Resource::IO, now));
            const workload::RequestStats &requests = app->requests();
            digest.word(requests.offered);
            digest.word(requests.completed);
            digest.word(requests.dropped);
            digest.real(requests.latencyUs.p50());
            digest.real(requests.latencyUs.p99());
            digest.real(requests.latencyUs.p999());
        }
        digest.word(machine.ssd().bytesWritten());
        digest.word(machine.memory().residentPages());
    }
}

/** The main simulated results, summed over the fleet. */
struct Results {
    std::uint64_t requestsCompleted = 0;
    std::uint64_t requestsDropped = 0;
    double p99Us = 0.0;
    double savingsPct = 0.0;
    std::uint64_t faults = 0;
    std::uint64_t oomEvents = 0;
    /** Evictions into a compressed tier, and pages tierMaintain moved
     *  down the chain. */
    std::uint64_t zswpout = 0;
    std::uint64_t tierDemoted = 0;
};

Results
simulatedResults(host::Fleet &fleet)
{
    Results out;
    double resident = 0.0;
    double allocated = 0.0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        host::Host &machine = fleet.host(i);
        out.oomEvents += machine.memory().oomEvents();
        for (const auto &app : machine.apps()) {
            const cgroup::VmStats &s = app->cgroup().stats();
            out.faults += s.pswpin + s.pgfilefault + s.lostRefault;
            out.zswpout += s.zswpout;
            out.tierDemoted += s.tierDemote;
            out.requestsCompleted += app->requests().completed;
            out.requestsDropped += app->requests().dropped;
            resident += static_cast<double>(app->cgroup().memCurrent());
            allocated += static_cast<double>(app->allocatedBytes());
        }
    }
    if (allocated > 0.0)
        out.savingsPct = 100.0 * (1.0 - resident / allocated);
    const stats::Histogram latency =
        fleet.mergeHistograms([](host::Host &machine) {
            std::vector<const stats::Histogram *> hists;
            for (const auto &app : machine.apps())
                if (app->servingRequests())
                    hists.push_back(&app->requests().latencyUs);
            return hists;
        });
    if (latency.count() > 0)
        out.p99Us = latency.p99();
    return out;
}

/**
 * What the traced run's seams record for one host. One executor lane
 * owns a host for a whole epoch and the main thread reads the slot
 * only between epochs, so no slot is shared between threads.
 */
struct HostProbe {
    /** memory.reclaim calls closed since the last barrier. */
    std::vector<Span> reclaims;
    std::uint64_t touches = 0;
    std::uint64_t faults = 0;
    std::uint64_t refaults = 0;
    std::uint64_t ticks = 0;
};

/** Re-install every container's memory.reclaim hook as a timed
 *  wrapper around the call MemoryManager::attach installs. */
void
timeReclaims(host::Fleet &fleet, std::vector<HostProbe> &probes,
             const SpanLog &log)
{
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        mem::MemoryManager *mm = &fleet.host(i).memory();
        HostProbe *probe = &probes[i];
        for (const auto &app : fleet.host(i).apps())
            app->cgroup().setReclaimFn(
                [mm, probe, &log](cgroup::Cgroup &target,
                                  std::uint64_t bytes, sim::SimTime now) {
                    Span span{"mem.reclaim", log.now(), 0, -1};
                    const std::uint64_t reclaimed =
                        mm->reclaim(target, bytes, now).reclaimedBytes;
                    span.end = log.now();
                    probe->reclaims.push_back(span);
                    return reclaimed;
                });
    }
}

/** Move the reclaim spans the lanes recorded into @p log under
 *  @p parent (main thread, between epochs). */
void
adoptReclaims(std::vector<HostProbe> &probes, SpanLog &log, int parent)
{
    for (HostProbe &probe : probes) {
        for (Span span : probe.reclaims) {
            span.parent = parent;
            log.add(span);
        }
        probe.reclaims.clear();
    }
}

void
readTicks(host::Host &machine, HostProbe &probe)
{
    for (const auto &app : machine.apps()) {
        const workload::TickStats &tick = app->lastTick();
        probe.touches += tick.touches;
        probe.faults += tick.faults;
        probe.refaults += tick.refaults;
        ++probe.ticks;
    }
}

/**
 * Read every app tick's counters from an event 1 ns after the tick.
 * Apps tick at whole multiples of appTick after Fleet::start, and the
 * event only copies counters, so the simulation is unchanged.
 */
void
scheduleTickReads(host::Host &machine, HostProbe &probe)
{
    sim::Simulation &clock = machine.simulation();
    const sim::SimTime tick = machine.config().appTick;
    clock.at(clock.now() + 1, [&clock, &machine, &probe, tick] {
        clock.every(tick, [&machine, &probe] {
            readTicks(machine, probe);
            return true;
        });
    });
}

/** Trace events by type, summed over hosts and barriers. */
struct TraceCounts {
    std::array<std::uint64_t, obs::NUM_TRACE_EVENT_TYPES> byType{};
    /** BACKEND_OP events by code (0 store, 1 load, 2 store-reject,
     *  3 load-error) and obs::BackendTrack. */
    std::array<std::array<std::uint64_t, 4>, 4> backend{};
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
};

/** Count every host's ring and clear it, so that a ring only has to
 *  hold one epoch of events. */
void
drainRings(host::Fleet &fleet, TraceCounts &counts)
{
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        obs::TraceRing *ring = fleet.host(i).trace();
        counts.recorded += ring->recorded();
        counts.dropped += ring->dropped();
        for (const obs::TraceEvent &event : ring->snapshot()) {
            ++counts.byType[static_cast<std::size_t>(event.type)];
            if (event.type == obs::TraceEventType::BACKEND_OP &&
                event.code < 4 && event.domain < 4)
                ++counts.backend[event.code][event.domain];
        }
        ring->clear();
    }
}

void
gather(host::Fleet &fleet, Digest &digest)
{
    for (const double v : fleet.collect(savingsPct))
        digest.real(v);
    for (const double v : fleet.collect(memPsiAvg60))
        digest.real(v);
}

void
pollIdle(host::Fleet &fleet, Digest &digest, SpanLog &log, int parent)
{
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        host::Host &machine = fleet.host(i);
        for (const auto &app : machine.apps()) {
            const int span = log.open("mem.idle_breakdown", parent);
            const mem::IdleBreakdown idle =
                machine.memory().idleBreakdown(app->cgroup(),
                                               fleet.now());
            log.close(span);
            digest.real(idle.used1min);
            digest.real(idle.used2min);
            digest.real(idle.used5min);
            digest.real(idle.cold);
        }
    }
}

std::uint64_t
senpaiRequested(host::Host &machine)
{
    auto *composite =
        dynamic_cast<core::CompositeController *>(machine.controller());
    if (!composite)
        return 0;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < composite->size(); ++i)
        if (auto *senpai =
                dynamic_cast<core::Senpai *>(&composite->part(i)))
            total += senpai->totalRequested();
    return total;
}

/** One flat JSON object; keys keep insertion order. */
class Json
{
  public:
    Json &
    num(const std::string &key, double value)
    {
        std::ostringstream text;
        text.precision(17);
        text << value;
        return raw(key, text.str());
    }

    Json &
    count(const std::string &key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }

    Json &
    str(const std::string &key, const std::string &value)
    {
        return raw(key, "\"" + value + "\"");
    }

    Json &
    raw(const std::string &key, const std::string &json)
    {
        fields_.emplace_back(key, json);
        return *this;
    }

    std::string
    text() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            if (i)
                out += ", ";
            out += "\"" + fields_[i].first + "\": " + fields_[i].second;
        }
        return out + "}";
    }

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Durations of every span of one name. */
struct Timing {
    std::vector<std::int64_t> durations; ///< ascending once finished
    std::int64_t total = 0;
    std::int64_t self = 0;

    double
    at(double q) const
    {
        return durations.empty()
                   ? 0.0
                   : static_cast<double>(
                         perfbench::quantile(durations, q));
    }

    double tailQ() const { return perfbench::tailQuantile(durations.size()); }
};

/**
 * The per-layer numbers of a traced run: span statistics plus the
 * counters read at the same boundaries. @p breakdown receives, per
 * span name, the count and the total and self milliseconds.
 */
Json
layerMetrics(host::Fleet &fleet, const SpanLog &log, int phase,
             const std::vector<HostProbe> &probes,
             const TraceCounts &counts, Json &breakdown)
{
    const std::vector<Span> &spans = log.spans();
    const std::vector<std::int64_t> self = perfbench::selfTimes(spans);
    std::map<std::string, Timing> byName;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        Timing &timing = byName[spans[i].name];
        const std::int64_t duration = spans[i].end - spans[i].start;
        timing.durations.push_back(duration);
        timing.total += duration;
        timing.self += self[i];
    }
    for (auto &[name, timing] : byName) {
        std::sort(timing.durations.begin(), timing.durations.end());
        breakdown.raw(name,
                      Json{}
                          .count("count", timing.durations.size())
                          .num("total_ms",
                               static_cast<double>(timing.total) / 1e6)
                          .num("self_ms",
                               static_cast<double>(timing.self) / 1e6)
                          .text());
    }
    const auto timing = [&byName](const char *name) {
        const auto it = byName.find(name);
        return it == byName.end() ? Timing{} : it->second;
    };
    // Shares are of the run phase as the untraced program spends it:
    // without the benchmark's own ring drains.
    std::int64_t drains = 0;
    for (const Span &span : spans)
        if (span.parent == phase &&
            std::string(span.name) == "obs.ring_drain")
            drains += span.end - span.start;
    const auto phase_ns = static_cast<double>(
        spans[static_cast<std::size_t>(phase)].end -
        spans[static_cast<std::size_t>(phase)].start - drains);

    Json layers;
    const Timing epochs = timing("host.epoch");
    const Timing gathers = timing("host.gather");
    const Timing reclaims = timing("mem.reclaim");
    const Timing idle = timing("mem.idle_breakdown");
    layers.count("host.epochs", epochs.durations.size())
        .num("host.epoch_ms.p50", epochs.at(0.5) / 1e6)
        .num("host.epoch_ms.tail", epochs.at(epochs.tailQ()) / 1e6)
        .num("host.epoch_ms.tail_q", epochs.tailQ())
        .count("host.gathers", gathers.durations.size())
        .num("host.gather_ms.p50", gathers.at(0.5) / 1e6)
        // What no other layer's span covers: the host layer's own
        // self time (the epochs' and the run phase's).
        .num("host.run_self_share",
             static_cast<double>(
                 self[static_cast<std::size_t>(phase)] + epochs.self) /
                 phase_ns)
        .count("mem.reclaim_calls", reclaims.durations.size())
        .num("mem.reclaim_us.p50", reclaims.at(0.5) / 1e3)
        .num("mem.reclaim_us.tail", reclaims.at(reclaims.tailQ()) / 1e3)
        .num("mem.reclaim_us.tail_q", reclaims.tailQ())
        .num("mem.reclaim_share",
             static_cast<double>(reclaims.total) / phase_ns)
        .count("mem.idle_breakdown_polls", idle.durations.size())
        .num("mem.idle_breakdown_ms.p50", idle.at(0.5) / 1e6)
        .num("mem.idle_breakdown_share",
             static_cast<double>(idle.total) / phase_ns);

    HostProbe ticks;
    for (const HostProbe &probe : probes) {
        ticks.touches += probe.touches;
        ticks.faults += probe.faults;
        ticks.refaults += probe.refaults;
        ticks.ticks += probe.ticks;
    }
    layers.count("workload.touches", ticks.touches)
        .count("workload.faults", ticks.faults)
        .count("workload.refaults", ticks.refaults)
        .count("workload.ticks", ticks.ticks);

    cgroup::VmStats vm;
    std::uint64_t oom = 0;
    std::uint64_t ssd_bytes = 0;
    std::uint64_t requested = 0;
    sim::SimTime mem_some = 0;
    sim::SimTime io_some = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        host::Host &machine = fleet.host(i);
        oom += machine.memory().oomEvents();
        ssd_bytes += machine.ssd().bytesWritten();
        requested += senpaiRequested(machine);
        for (const auto &app : machine.apps()) {
            const cgroup::Cgroup &cg = app->cgroup();
            const cgroup::VmStats &s = cg.stats();
            vm.pgscan += s.pgscan;
            vm.pgsteal += s.pgsteal;
            vm.pswpin += s.pswpin;
            vm.pswpout += s.pswpout;
            vm.wsRefault += s.wsRefault;
            vm.wsRefaultAnon += s.wsRefaultAnon;
            vm.tierDemote += s.tierDemote;
            vm.tierPromote += s.tierPromote;
            vm.zswpout += s.zswpout;
            vm.zswpin += s.zswpin;
            mem_some += cg.psi().totalSome(psi::Resource::MEM, fleet.now());
            io_some += cg.psi().totalSome(psi::Resource::IO, fleet.now());
        }
    }
    const auto ratio = [](std::uint64_t part, std::uint64_t whole) {
        return whole ? static_cast<double>(part) /
                           static_cast<double>(whole)
                     : 0.0;
    };
    layers.count("mem.pgscan", vm.pgscan)
        .count("mem.pgsteal", vm.pgsteal)
        .count("mem.pswpin", vm.pswpin)
        .count("mem.pswpout", vm.pswpout)
        .num("mem.reclaim_efficiency", ratio(vm.pgsteal, vm.pgscan))
        .num("mem.refault_ratio",
             ratio(vm.wsRefault + vm.wsRefaultAnon, vm.pgsteal))
        .count("mem.oom_events", oom)
        .count("tier.demoted", vm.tierDemote)
        .count("tier.promoted", vm.tierPromote)
        .count("tier.zswpout", vm.zswpout)
        .count("tier.zswpin", vm.zswpin);

    const std::pair<const char *, int> ops[] = {
        {"stores", 0}, {"loads", 1}, {"store_rejects", 2}};
    const std::pair<const char *, int> tracks[] = {
        {"zswap", obs::TRACK_ZSWAP},
        {"ssd", obs::TRACK_SWAP_SSD},
        {"fs", obs::TRACK_FILESYSTEM}};
    for (const auto &[op, code] : ops)
        for (const auto &[track, domain] : tracks)
            layers.count(std::string("backend.") + op + "." + track,
                         counts.backend[static_cast<std::size_t>(code)]
                                       [static_cast<std::size_t>(domain)]);
    const auto type = [&counts](obs::TraceEventType t) {
        return counts.byType[static_cast<std::size_t>(t)];
    };
    layers
        .num("backend.ssd_mib_written",
             static_cast<double>(ssd_bytes) / static_cast<double>(MIB))
        .count("psi.state_changes", type(obs::TraceEventType::PSI_STATE))
        .num("psi.mem_some_ms", static_cast<double>(mem_some) / 1e6)
        .num("psi.io_some_ms", static_cast<double>(io_some) / 1e6)
        .count("core.senpai_ticks", type(obs::TraceEventType::SENPAI_TICK))
        .num("core.senpai_requested_mib",
             static_cast<double>(requested) / static_cast<double>(MIB))
        .count("obs.events_recorded", counts.recorded)
        .count("obs.events_dropped", counts.dropped);
    return layers;
}

/** Write the spans with their self times, for reading a run by hand. */
void
writeSpans(const std::string &path, const std::string &run_id,
           const SpanLog &log)
{
    const std::vector<Span> &spans = log.spans();
    const std::vector<std::int64_t> self = perfbench::selfTimes(spans);
    std::ofstream out(path);
    out << "{\"run_id\": \"" << run_id << "\", \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i)
        out << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << spans[i].name
            << "\", \"start_ns\": " << spans[i].start
            << ", \"end_ns\": " << spans[i].end
            << ", \"parent\": " << spans[i].parent
            << ", \"self_ns\": " << self[i] << "}";
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/**
 * Peak resident set of this process in MiB. VmHWM belongs to the
 * current program image; getrusage's ru_maxrss also keeps the peak of
 * the image before exec, i.e. of whatever process forked this one.
 */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::TIMED:
        return "timed";
      case Mode::TRACED:
        return "traced";
      case Mode::CHECK:
        return "check";
    }
    return "?";
}

int
runOnce(const Workload &w, std::uint64_t seed, Mode mode,
        const std::string &spans_path)
{
    const bool traced = mode == Mode::TRACED;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    const unsigned lanes = std::min(w.lanes, cores);

    // Declared before the fleet: the reclaim wrappers and tick reads
    // the hosts hold point into them.
    SpanLog log(traced);
    std::vector<HostProbe> probes;
    TraceCounts counts;
    Digest digest;

    const int root = log.open("run", -1);
    int span = log.open("host.build", root);
    const std::int64_t build_begin = log.now();
    host::Fleet fleet = fleetSpec(w, seed).build();
    const std::int64_t build_end = log.now();
    log.close(span);

    if (traced) {
        span = log.open("bench.seams", root);
        probes.resize(fleet.size());
        fleet.enableTracing(w.ringBytes);
        timeReclaims(fleet, probes, log);
        log.close(span);
    }
    if (mode == Mode::CHECK)
        fleet.enableInvariantAudit(fault::auditHost);

    span = log.open("host.start", root);
    const std::int64_t start_begin = log.now();
    fleet.start();
    const std::int64_t start_end = log.now();
    log.close(span);

    if (traced) {
        adoptReclaims(probes, log, span);
        const int seams = log.open("bench.seams", root);
        for (std::size_t i = 0; i < fleet.size(); ++i)
            scheduleTickReads(fleet.host(i), probes[i]);
        log.close(seams);
        const int drain = log.open("obs.ring_drain", root);
        drainRings(fleet, counts);
        log.close(drain);
    }

    // Timed from simulated time 0: users pay the early transient on
    // every run.
    const int phase = log.open("host.run_phase", root);
    const std::int64_t run_begin = log.now();
    while (fleet.now() < w.length) {
        const sim::SimTime barrier =
            std::min(w.length, fleet.now() + w.epoch);
        const int epoch = log.open("host.epoch", phase);
        fleet.run(barrier, lanes);
        log.close(epoch);
        if (traced) {
            adoptReclaims(probes, log, epoch);
            const int drain = log.open("obs.ring_drain", phase);
            drainRings(fleet, counts);
            log.close(drain);
        }
        if (w.gathers && barrier % sim::MINUTE == 0) {
            const int gathering = log.open("host.gather", phase);
            gather(fleet, digest);
            log.close(gathering);
        }
        if (w.idlePolls)
            pollIdle(fleet, digest, log, phase);
    }
    const std::int64_t run_end = log.now();
    log.close(phase);
    if (traced)
        for (std::size_t i = 0; i < fleet.size(); ++i)
            readTicks(fleet.host(i), probes[i]); // the tick at the end
    log.close(root);

    digestEndState(fleet, digest);
    const Results results = simulatedResults(fleet);
    for (const std::string &violation : fleet.auditViolations())
        std::cerr << "audit: " << violation << "\n";
    for (std::size_t i = 0; i < fleet.size(); ++i)
        if (fleet.hostFailed(i))
            std::cerr << "host " << i << " failed: " << fleet.hostError(i)
                      << "\n";

    const auto seconds = [](std::int64_t ns) {
        return static_cast<double>(ns) / 1e9;
    };
    Json out;
    out.str("workload", w.name)
        .count("seed", seed)
        .str("mode", modeName(mode))
        .count("hosts", fleet.size())
        .num("sim_s", sim::toSeconds(w.length))
        .count("lanes", lanes)
        .num("build_s", seconds(build_end - build_begin))
        .num("start_s", seconds(start_end - start_begin))
        .num("setup_s", seconds(build_end - build_begin) +
                            seconds(start_end - start_begin))
        .num("run_s", seconds(run_end - run_begin))
        .num("peak_rss_mib", peakRssMib())
        .str("digest", digest.hex())
        .count("failed_hosts", fleet.failedCount())
        .count("audit_violations", fleet.auditViolations().size())
        .count("requests_completed", results.requestsCompleted)
        .count("requests_dropped", results.requestsDropped)
        .num("p99_us", results.p99Us)
        .num("savings_pct", results.savingsPct)
        .count("faults", results.faults)
        .count("oom_events", results.oomEvents)
        .count("zswpout", results.zswpout)
        .count("tier_demoted", results.tierDemoted);
    if (traced) {
        Json breakdown;
        const Json layers =
            layerMetrics(fleet, log, phase, probes, counts, breakdown);
        const std::string run_id = std::string(w.name) + "-" +
                                   std::to_string(seed) + "-traced";
        out.str("run_id", run_id)
            .raw("layers", layers.text())
            .raw("breakdown", breakdown.text());
        if (!spans_path.empty())
            writeSpans(spans_path, run_id, log);
    }
    std::cout << out.text() << std::endl;
    return 0;
}

/** Self-test of the span arithmetic on a synthetic tree. */
int
selfTest()
{
    // run [0,100) holds a [10,40) (which holds a1 [15,20)), b [30,50)
    // overlapping a, and c [90,120) running past run's end. nest
    // [200,210) holds outer [202,208) and inner [203,204), which lies
    // inside outer.
    const std::vector<Span> spans = {
        {"run", 0, 100, -1},    {"a", 10, 40, 0},
        {"a1", 15, 20, 1},      {"b", 30, 50, 0},
        {"c", 90, 120, 0},      {"nest", 200, 210, -1},
        {"outer", 202, 208, 5}, {"inner", 203, 204, 5},
    };
    const std::vector<std::int64_t> expected = {50, 25, 5, 20, 30, 4, 6, 1};
    bool ok = perfbench::selfTimes(spans) == expected;

    const std::vector<std::int64_t> sorted = {1, 2, 3, 4, 5,
                                              6, 7, 8, 9, 10};
    ok = ok && perfbench::quantile(sorted, 0.5) == 5 &&
         perfbench::quantile(sorted, 0.9) == 9 &&
         perfbench::quantile(sorted, 1.0) == 10;
    ok = ok && perfbench::tailQuantile(19) == 1.0 &&
         perfbench::tailQuantile(20) == 0.5 &&
         perfbench::tailQuantile(60) == 0.75 &&
         perfbench::tailQuantile(100) == 0.9 &&
         perfbench::tailQuantile(1000) == 0.99 &&
         perfbench::tailQuantile(10000) == 0.999;
    std::cout << "selftest spans: " << (ok ? "ok" : "FAILED") << "\n";
    return ok ? 0 : 1;
}

constexpr const char *USAGE =
    "usage: tmo_perfbench --workload web_serving|memory_bound|wide_fleet"
    " --seed N --mode timed|traced|check [--spans FILE]\n"
    "       tmo_perfbench --selftest\n";

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string mode_name = "timed";
    std::string spans_path;
    std::uint64_t seed = 42;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--selftest")
                return selfTest();
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + flag);
            const std::string value = argv[++i];
            if (flag == "--workload")
                workload_name = value;
            else if (flag == "--seed")
                seed = std::stoull(value);
            else if (flag == "--mode")
                mode_name = value;
            else if (flag == "--spans")
                spans_path = value;
            else
                throw std::invalid_argument("unknown flag " + flag);
        }
    } catch (const std::exception &error) {
        std::cerr << "tmo_perfbench: " << error.what() << "\n" << USAGE;
        return 2;
    }

    const Workload *workload = nullptr;
    for (const Workload &candidate : WORKLOADS)
        if (workload_name == candidate.name)
            workload = &candidate;
    Mode mode = Mode::TIMED;
    if (mode_name == "traced")
        mode = Mode::TRACED;
    else if (mode_name == "check")
        mode = Mode::CHECK;
    else if (mode_name != "timed")
        workload = nullptr;
    if (!workload) {
        std::cerr << "tmo_perfbench: unknown workload or mode\n" << USAGE;
        return 2;
    }

    try {
        return runOnce(*workload, seed, mode, spans_path);
    } catch (const std::exception &error) {
        std::cerr << "tmo_perfbench: " << error.what() << "\n";
        return 1;
    }
}
