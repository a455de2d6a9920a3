/**
 * @file
 * Senpai: the userspace proactive-reclaim controller (§3.3).
 *
 * Senpai continuously engages the kernel's reclaim algorithm, using
 * PSI as feedback on workload health. Every interval it computes, per
 * controlled cgroup:
 *
 *   reclaim_mem = current_mem * reclaim_ratio
 *                 * max(0, 1 - PSI_some / PSI_threshold)
 *
 * and writes the result to the cgroup's stateless memory.reclaim file.
 * As observed pressure approaches the threshold, the step shrinks to
 * zero, settling at a mild steady-state pressure where the workload
 * holds just the memory it needs. Production configuration:
 * reclaim_ratio = 0.0005, PSI_threshold = 0.1%, interval = 6 s,
 * step cap = 1% of the workload per interval.
 *
 * Additional guards (§3.3, §4.5): IO pressure backoff (memory PSI
 * alone misses indirect slowdowns through the storage device), SSD
 * write-endurance regulation, and swap-space exhaustion handling.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cgroup/cgroup.hpp"
#include "core/controller.hpp"
#include "core/write_regulator.hpp"
#include "mem/memory_manager.hpp"
#include "sim/simulation.hpp"
#include "stats/timeseries.hpp"

namespace tmo::core
{

/** Where Senpai reads pressure from. */
enum class PressureSource {
    /** Delta of the PSI total over the last interval (production
     *  behaviour; microsecond resolution, §3.2.4). */
    INTERVAL,
    /** The 60 s running average. Preferred at small simulation scales
     *  where an interval holds only a handful of stall events and the
     *  windowed reading is too noisy to control on. */
    AVG60,
};

/** Senpai tuning knobs. */
struct SenpaiConfig {
    /** Reclaim period. Six seconds in production: long enough to
     *  observe the delayed impact (refaults) of the last step. */
    sim::SimTime interval = 6 * sim::SEC;
    /** Target some-memory pressure (fraction of wall time). */
    double psiThreshold = 0.001; // 0.1%
    /** Base reclaim step as a fraction of current memory. */
    double reclaimRatio = 0.0005;
    /** Hard cap per interval as a fraction of current memory. */
    double maxProbeRatio = 0.01; // 1%
    /** Skip reclaim while some-IO pressure exceeds this fraction. */
    double ioPsiThreshold = 0.005;
    /** SSD swap-out write budget (bytes/s); <= 0 disables (§4.5). */
    double writeBudgetBytesPerSec = 0.0;
    /** Stop offloading anon when the swap partition is this full. */
    double swapHighWatermark = 0.9;
    /** Pressure reading used by the control law. */
    PressureSource source = PressureSource::INTERVAL;
};

/** The production configuration (config "A" of §4.4). */
SenpaiConfig senpaiProductionConfig();

/** An aggressive configuration like config "B" of §4.4: larger step,
 *  higher pressure tolerance — bigger savings, RPS risk. */
SenpaiConfig senpaiAggressiveConfig();

/**
 * One Senpai instance controlling one cgroup.
 *
 * Userspace semantics: the controller only reads exported kernel
 * interfaces (PSI files, memory.current) and writes memory.reclaim;
 * it never touches kernel internals.
 */
class Senpai final : public Controller
{
  public:
    /**
     * @param simulation Event loop.
     * @param mm Host memory manager (for swap/write telemetry).
     * @param cg The controlled container.
     * @param config Tuning knobs.
     */
    Senpai(sim::Simulation &simulation, mem::MemoryManager &mm,
           cgroup::Cgroup &cg, SenpaiConfig config = {});

    ~Senpai() override;

    /** Begin periodic control. */
    void start() override;

    /** Stop controlling (cgroup state is left as-is). */
    void stop() override;

    bool running() const override { return running_; }

    std::string name() const override { return "senpai"; }

    /** Requested-reclaim and pressure telemetry, one row each. */
    StatsRow statsRow() const override;

    /** Record a SENPAI_TICK event (with every modulation term) per
     *  tick into @p ring; nullptr detaches. */
    void setTrace(obs::TraceRing *ring) override { trace_ = ring; }

    /** Register per-cgroup pressure/reclaim probes. */
    void registerMetrics(obs::MetricRegistry &registry) override;

    const SenpaiConfig &config() const { return config_; }
    void setConfig(const SenpaiConfig &config) { config_ = config; }

    cgroup::Cgroup &cgroup() { return *cg_; }

    // --- telemetry -------------------------------------------------------

    /** Reclaim requested at each tick (bytes). */
    const stats::TimeSeries &reclaimSeries() const { return reclaimed_; }

    /** Observed some-memory pressure at each tick (fraction). */
    const stats::TimeSeries &pressureSeries() const { return pressure_; }

    /** Total bytes requested for reclaim so far. */
    std::uint64_t totalRequested() const { return totalRequested_; }

    /** Ticks spent backing off because the anon tier chain reported
     *  DEGRADED or FAILED (graceful degradation, §4). */
    std::uint64_t degradedTicks() const { return degradedTicks_; }

    /** The aggregate status of the controlled cgroup's tier chain
     *  right now (HEALTHY when it is file-only). */
    backend::BackendStatus backendStatus() const;

  private:
    friend struct SenpaiTestPeer;

    void tick();

    sim::Simulation &sim_;
    mem::MemoryManager &mm_;
    cgroup::Cgroup *cg_;
    SenpaiConfig config_;
    WriteRegulator regulator_;

    bool running_ = false;
    obs::TraceRing *trace_ = nullptr;
    sim::EventId event_ = sim::INVALID_EVENT;
    sim::SimTime lastMemSome_ = 0;
    sim::SimTime lastIoSome_ = 0;
    sim::SimTime lastTick_ = 0;
    double lastSwapoutTotal_ = 0.0;
    std::uint64_t totalRequested_ = 0;
    std::uint64_t degradedTicks_ = 0;
    stats::TimeSeries reclaimed_{"senpai_reclaim_bytes"};
    stats::TimeSeries pressure_{"senpai_psi_some_mem"};
};

} // namespace tmo::core
