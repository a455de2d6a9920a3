/**
 * @file
 * CPU contention model.
 *
 * Converts per-task CPU demand within a tick into (run, wait) splits
 * given a host CPU capacity. Waiting time becomes TSK_RUNNABLE in the
 * task timelines, which PSI turns into CPU pressure.
 */

#pragma once

#include <vector>

#include "sim/time.hpp"

namespace tmo::sched
{

/** Result of allocating CPU to one task within a tick. */
struct CpuShare {
    /** Time actually spent executing. */
    sim::SimTime run = 0;
    /** Time spent runnable but waiting for a CPU. */
    sim::SimTime wait = 0;
};

/**
 * Processor-sharing allocation: when total demand exceeds
 * cpus * tick_length, every task's execution stretches by the same
 * factor and the stretch shows up as wait time (capped at the tick).
 *
 * @param demands Per-task desired CPU time within the tick.
 * @param cpus Number of CPUs available to these tasks.
 * @param tick_length Length of the tick.
 * @param shares Output, one per demand: resized and overwritten. A
 *        buffer the caller keeps across ticks, so a tick allocates
 *        nothing once it has grown.
 */
void allocateCpu(const std::vector<sim::SimTime> &demands, unsigned cpus,
                 sim::SimTime tick_length, std::vector<CpuShare> &shares);

} // namespace tmo::sched
