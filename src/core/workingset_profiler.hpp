/**
 * @file
 * Working-set profiling (§3.3, §5.1).
 *
 * "This proactive approach ... simultaneously provides an accurate
 * workingset profile of the application over time. This allows
 * application developers to more precisely provision memory capacity
 * for their workloads." And §5.1: the improved observability of the
 * file-only deployment "helped accurately setting the memory size for
 * application containers."
 *
 * The profiler samples (resident size, pressure) pairs while a
 * controller probes the workload and derives a provisioning
 * recommendation: the smallest resident size observed while pressure
 * stayed within the health threshold, plus WORKINGSET_SAFETY_MARGIN.
 */

#pragma once

#include <cstdint>

#include "cgroup/cgroup.hpp"
#include "sim/periodic.hpp"
#include "stats/timeseries.hpp"

namespace tmo::mem
{
class MemoryManager;
}

namespace tmo::core
{

/** Added to the minimum healthy size in a recommendation. */
inline constexpr double WORKINGSET_SAFETY_MARGIN = 0.10;

/** Provisioning recommendation derived from a profiling run. */
struct WorkingsetEstimate {
    /** Smallest healthy resident size observed. */
    std::uint64_t minHealthyBytes = 0;
    /** Recommended container size (min healthy + safety margin). */
    std::uint64_t recommendedBytes = 0;
    /** Peak resident size observed (the overprovisioned footprint). */
    std::uint64_t peakBytes = 0;
    /** Samples the estimate is based on. */
    std::size_t samples = 0;

    /** Provisioning headroom the profile exposes, in [0, 1]. */
    double
    overprovisionFraction() const
    {
        if (peakBytes == 0)
            return 0.0;
        return 1.0 - static_cast<double>(recommendedBytes) /
                         static_cast<double>(peakBytes);
    }
};

/**
 * Samples a container's resident size against its memory pressure and
 * recommends a capacity. Run it alongside Senpai (or any controller
 * that probes the workload downward).
 */
class WorkingsetProfiler
{
  public:
    /**
     * @param simulation Event loop.
     * @param cg Container to profile.
     * @param pressure_threshold Health bound on the some-memory
     *        pressure within a sample window (fraction of wall time).
     * @param sample_interval Sampling cadence.
     */
    WorkingsetProfiler(sim::Simulation &simulation, cgroup::Cgroup &cg,
                       double pressure_threshold = 0.001,
                       sim::SimTime sample_interval = 30 * sim::SEC);

    WorkingsetProfiler(const WorkingsetProfiler &) = delete;
    WorkingsetProfiler &operator=(const WorkingsetProfiler &) = delete;

    /** Begin sampling. */
    void start();

    /** Stop sampling. */
    void stop() { timer_.stop(); }

    /**
     * Also sample the cgroup's idle-age breakdown (Fig. 2 coldness)
     * every interval from @p mm. A poll at a whole second sums the
     * memory manager's generation counts; one at any other instant
     * walks its page table. nullptr detaches.
     */
    void attachMemory(mem::MemoryManager *mm) { mm_ = mm; }

    /** Current estimate (recomputed on demand). */
    WorkingsetEstimate estimate() const;

    /** Resident-size series (for plotting profiles over time). */
    const stats::TimeSeries &residentSeries() const { return resident_; }

    /** Per-window pressure series aligned with residentSeries(). */
    const stats::TimeSeries &pressureSeries() const { return pressure_; }

    /**
     * Fraction of the container's pages untouched for > 5 min, one
     * sample per interval (empty unless attachMemory() was called).
     */
    const stats::TimeSeries &coldSeries() const { return cold_; }

  private:
    void sample();

    sim::Simulation &sim_;
    cgroup::Cgroup *cg_;
    mem::MemoryManager *mm_ = nullptr;
    double threshold_;
    sim::Periodic<WorkingsetProfiler, &WorkingsetProfiler::sample> timer_;

    sim::SimTime lastSome_ = 0;
    stats::TimeSeries resident_{"resident_bytes"};
    stats::TimeSeries pressure_{"window_pressure"};
    stats::TimeSeries cold_{"cold_fraction"};
};

} // namespace tmo::core
