/**
 * @file
 * Trace-driven workloads.
 *
 * The synthetic AppModel covers the paper's workloads, but downstream
 * users often have real access traces. TraceWorkload replays a list
 * of (time, logical page, write) records against a container: first
 * touch allocates the page (anon or file by address split), later
 * touches exercise the full LRU/fault machinery, and stall time feeds
 * PSI through a worker task — so traces compose with Senpai, the TMO
 * daemon, and every backend, exactly like synthetic apps.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cgroup/cgroup.hpp"
#include "mem/memory_manager.hpp"
#include "sched/task.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace tmo::workload
{

/** One access in a trace. */
struct TraceRecord {
    /** Absolute simulated time of the access. */
    sim::SimTime time = 0;
    /** Logical page index within the workload's address space. */
    std::uint64_t page = 0;
    /** Write access (dirties file pages). */
    bool write = false;
};

/** Aggregate replay statistics. */
struct TraceStats {
    std::uint64_t accesses = 0;
    std::uint64_t faults = 0;
    std::uint64_t refaults = 0;
    sim::SimTime memStall = 0;
    sim::SimTime ioStall = 0;
};

/** Replays a sorted trace against one container. */
class TraceWorkload
{
  public:
    /**
     * @param simulation Event loop.
     * @param mm Host memory manager; @p cg must be attached.
     * @param cg Container to charge.
     * @param records Trace, sorted by time.
     * @param address_space_pages Size of the logical address space.
     * @param anon_fraction Pages below this fraction of the address
     *        space are anonymous; the rest are file-backed.
     * @param tick Batch granularity for replay.
     */
    TraceWorkload(sim::Simulation &simulation, mem::MemoryManager &mm,
                  cgroup::Cgroup &cg, std::vector<TraceRecord> records,
                  std::uint64_t address_space_pages,
                  double anon_fraction = 0.7,
                  sim::SimTime tick = sim::SEC);

    TraceWorkload(const TraceWorkload &) = delete;
    TraceWorkload &operator=(const TraceWorkload &) = delete;

    /** Begin replay; finishes when the trace is exhausted. */
    void start();

    /** True once every record has been replayed. */
    bool finished() const { return cursor_ >= records_.size(); }

    const TraceStats &stats() const { return stats_; }

    /** Bytes of the address space touched at least once. */
    std::uint64_t allocatedBytes() const;

    cgroup::Cgroup &cgroup() { return *cg_; }

  private:
    void tick();

    sim::Simulation &sim_;
    mem::MemoryManager &mm_;
    cgroup::Cgroup *cg_;
    std::vector<TraceRecord> records_;
    std::uint64_t addressSpacePages_;
    double anonFraction_;
    sim::SimTime tickLen_;

    /** Logical page -> host page (NO_PAGE until first touch). */
    std::vector<mem::PageIdx> mapping_;
    std::size_t cursor_ = 0;
    sched::Task task_;
    /** The worker task's timeline and the replay scratch, kept
     *  across ticks so that a tick allocates nothing. */
    std::vector<sched::TaskTimeline> timeline_;
    std::vector<sched::Transition> transitions_;
    TraceStats stats_;
};

/** Knobs for the synthetic trace generator. */
struct TraceSynthesisConfig {
    /** Logical address space. */
    std::uint64_t pages = 4096;
    /** Trace duration. */
    sim::SimTime duration = 10 * sim::MINUTE;
    /** Accesses per second. */
    double accessesPerSec = 200.0;
    /** Working-set size as a fraction of the address space. */
    double workingSetFraction = 0.25;
    /** Zipf skew within the working set. */
    double zipf = 0.9;
    /** Fraction of accesses falling outside the working set. */
    double scanFraction = 0.05;
    /** Shift the working set to a fresh region halfway through
     *  (workingset-transition stressor). */
    bool phaseShift = false;
    /** Fraction of accesses that are writes. */
    double writeFraction = 0.1;
};

/**
 * Generate a synthetic trace: Zipf-skewed accesses over a working set
 * plus a uniform scan tail, with an optional mid-trace working-set
 * shift. Sorted by time, deterministic for a given seed.
 *
 * @throws std::invalid_argument when pages is 0 or
 *         workingSetFraction is outside (0, 1].
 */
std::vector<TraceRecord> synthesizeTrace(const TraceSynthesisConfig &config,
                                         std::uint64_t seed);

} // namespace tmo::workload
