/**
 * @file
 * Synthetic application driver.
 *
 * An AppModel runs one containerized workload: it owns the container's
 * pages (organized into reuse regions), touches them on a fixed tick,
 * lets faults stall its worker tasks (feeding PSI), and processes a
 * request load whose throughput (RPS) degrades when request-critical
 * regions stall — reproducing the performance coupling the paper's
 * load tests measure (§4.2-§4.4).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cgroup/cgroup.hpp"
#include "mem/memory_manager.hpp"
#include "sched/cpu_coordinator.hpp"
#include "sched/cpu_model.hpp"
#include "sched/task.hpp"
#include "sim/periodic.hpp"
#include "sim/rng.hpp"
#include "stats/ewma.hpp"
#include "stats/histogram.hpp"
#include "workload/app_profile.hpp"
#include "workload/request_gen.hpp"

namespace tmo::workload
{

/** Aggregate results of the most recent tick. */
struct TickStats {
    double offeredRps = 0.0;
    double completedRps = 0.0;
    std::uint64_t touches = 0;
    std::uint64_t criticalTouches = 0;
    std::uint64_t faults = 0;
    std::uint64_t refaults = 0;
    std::uint64_t swapins = 0;
    sim::SimTime memStall = 0;
    sim::SimTime ioStall = 0;
    /** Per-request latency this tick: mean over completions in
     *  request-serving mode, the closed-form estimate otherwise.
     *  Only meaningful when latencySampled is set — idle ticks have
     *  no requests and must not contribute zero samples. */
    double requestLatencyUs = 0.0;
    /** True when requestLatencyUs reflects at least one request. */
    bool latencySampled = false;
    /** Requests shed this tick (queue-limit or throttle), serving
     *  mode only. */
    std::uint64_t dropped = 0;
};

/** Cumulative request-serving counters (TrafficSpec mode only). */
struct RequestStats {
    /** Requests that arrived. */
    std::uint64_t offered = 0;
    /** Requests served to completion. */
    std::uint64_t completed = 0;
    /** Requests shed (queue overflow or memory-bound throttle). */
    std::uint64_t dropped = 0;
    /** Completion latency (µs) of every served request. */
    stats::Histogram latencyUs{0.1, 1e7, 20};
};

/** One running workload instance. */
class AppModel
{
  public:
    /**
     * @param simulation Event loop (drives the tick).
     * @param mm Host memory manager.
     * @param cg Container to run in; must already be attached to @p mm.
     * @param profile Workload description.
     * @param host_cpus CPUs available to this workload.
     * @param seed Per-app deterministic seed.
     * @param tick Workload tick length.
     */
    AppModel(sim::Simulation &simulation, mem::MemoryManager &mm,
             cgroup::Cgroup &cg, AppProfile profile, unsigned host_cpus,
             std::uint64_t seed, sim::SimTime tick = sim::SEC,
             sched::CpuCoordinator *coordinator = nullptr);

    AppModel(const AppModel &) = delete;
    AppModel &operator=(const AppModel &) = delete;

    /** Allocate initial memory and begin ticking. */
    void start();

    /** Stop ticking (container paused; memory stays). */
    void stop() { timer_.stop(); }

    /** Free all memory and start fresh (code-push restart, §4.2). */
    void restart();

    bool running() const { return timer_.running(); }

    /** Results of the last completed tick. */
    const TickStats &lastTick() const { return lastTick_; }

    /** Change offered load mid-run. */
    void setOfferedRps(double rps) { profile_.offeredRps = rps; }

    /** Whether request-level serving is active. */
    bool servingRequests() const { return profile_.traffic.enabled(); }

    /** Cumulative request counters and latency histogram (serving
     *  mode; zeros otherwise). */
    const RequestStats &requests() const { return requests_; }

    /**
     * p99 completion latency (µs) over the most recent closed
     * latency window (~one Senpai interval), or a negative value
     * while no window has completed with samples — the feedback
     * signal for SLO-aware controllers.
     */
    double windowP99Us() const { return windowP99Us_; }

    const AppProfile &profile() const { return profile_; }
    cgroup::Cgroup &cgroup() { return *cg_; }

    /** Allocated (resident + offloaded) footprint in bytes. */
    std::uint64_t allocatedBytes() const;

  private:
    struct Region {
        RegionSpec spec;
        std::vector<mem::PageIdx> pages;
        std::size_t cursor = 0;
        std::uint64_t targetPages = 0;
        /** Fractional touches carried between ticks, so small or very
         *  cold regions get their exact long-run touch rate. */
        double touchCarry = 0.0;
    };

    using Stalls = mem::Stalls;

    void buildRegions();
    void allocateInitial(sim::SimTime now);
    void growLazyRegions(sim::SimTime now, Stalls &stalls);
    void churnColdAllocations(sim::SimTime now, Stalls &stalls);
    void sweepRegion(Region &region, sim::SimTime now,
                     sim::SimTime stall_budget, Stalls &critical,
                     Stalls &background);
    /** Add one batch of touches to lastTick_ and to @p stalls; with
     *  @p critical they count as critical touches too. */
    void count(const mem::TouchTotals &totals, bool critical,
               Stalls &stalls);
    double throttleFactor() const;
    /** Legacy closed-form RPS model (traffic disabled). Returns
     *  completed requests this tick. */
    double modelRequests(sim::SimTime start, const Stalls &critical);
    /** Open-loop per-request serving (traffic enabled). Returns
     *  completed requests this tick. */
    double serveRequests(sim::SimTime start, Stalls &critical);
    /** One request's page fan-out into criticalPages_; returns the
     *  request's fault-stall wall time. */
    sim::SimTime touchCriticalPages(std::uint64_t touches,
                                    sim::SimTime now, Stalls &critical);
    void rollLatencyWindow(sim::SimTime now);
    void tick();
    void freeAll();

    sim::Simulation &sim_;
    mem::MemoryManager &mm_;
    cgroup::Cgroup *cg_;
    AppProfile profile_;
    unsigned hostCpus_;
    /** Shared host CPU coordinator (nullable: app-local model only). */
    sched::CpuCoordinator *coordinator_;
    sim::Rng rng_;
    sim::SimTime tickLen_;

    std::vector<Region> regions_;
    std::vector<std::unique_ptr<sched::Task>> tasks_;

    /** Segments a tick plans per task: run, runqueue wait, memory
     *  stall, memory+IO stall, IO stall. */
    static constexpr std::size_t TICK_SEGMENTS = 5;
    /** Per-tick scratch, overwritten by every tick: once grown to the
     *  most segments a tick has planned, ticks allocate nothing.
     *  Members, not statics: hosts tick concurrently on executor
     *  lanes. */
    std::vector<sim::SimTime> demands_;
    std::vector<sched::CpuShare> shares_;
    std::vector<sched::TaskTimeline> timelines_;
    std::vector<sched::Transition> transitions_;
    sim::Periodic<AppModel, &AppModel::tick> timer_;
    TickStats lastTick_;
    double growthCarry_ = 0.0;
    double churnCarry_ = 0.0;
    std::size_t churnCursor_ = 0;
    /** Smoothed per-request miss cost: a single tick holds too few
     *  critical touches for a stable rate estimate. */
    stats::Ewma missCost_{30 * sim::SEC};

    // --- request-level serving (TrafficSpec mode) ------------------------

    /** Worker pool + admission queue; persists across ticks so a
     *  surge backlog drains realistically. */
    std::unique_ptr<RequestServer> server_;
    /** The critical regions' pages, concatenated in regions_ order:
     *  refilled once per serving tick (region sizes only change
     *  before serving), so a request's touch is one uniform draw into
     *  it — the page a prefix walk over the regions would select. */
    std::vector<mem::PageIdx> criticalPages_;
    RequestStats requests_;
    /** Samples of the currently open latency window. */
    stats::Histogram window_{0.1, 1e7, 20};
    sim::SimTime windowStart_ = 0;
    /** Window length: one Senpai interval, so the controller reads a
     *  fresh signal each control tick. */
    sim::SimTime windowLen_ = 6 * sim::SEC;
    /** p99 of the last closed window; < 0 until one closes with
     *  samples. */
    double windowP99Us_ = -1.0;
};

} // namespace tmo::workload
