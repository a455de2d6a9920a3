/**
 * @file
 * Tasks: the unit of PSI accounting.
 *
 * A Task models one thread/process of a workload. Its state is a
 * bitmask of psi::TaskState bits; every transition is diffed against
 * the previous state and propagated through the owning cgroup's
 * ancestor chain, exactly like the kernel's psi_task_change().
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cgroup/cgroup.hpp"
#include "psi/psi.hpp"
#include "sim/time.hpp"

namespace tmo::sched
{

struct TaskTimeline;
struct Transition;

/** One schedulable entity contributing to PSI. */
class Task
{
  public:
    /**
     * @param cg Owning container (PSI accounting domain).
     * @param name Debug name.
     */
    Task(cgroup::Cgroup &cg, std::string name);

    ~Task();

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    /**
     * Move to a new state bitmask at time @p now. Bits use
     * psi::TaskState; 0 = idle (sleeping, not stalled).
     */
    void setState(unsigned state, sim::SimTime now);

    unsigned state() const { return state_; }
    cgroup::Cgroup &cgroup() { return *cg_; }
    const std::string &name() const { return name_; }

  private:
    friend void replayTimelines(std::vector<TaskTimeline> &timelines,
                                sim::SimTime tick_end,
                                std::vector<Transition> &scratch);

    cgroup::Cgroup *cg_;
    std::string name_;
    unsigned state_ = 0;
    sim::SimTime lastTransition_ = 0;
};

/** One homogeneous interval of a task's tick timeline. */
struct Segment {
    /** Absolute start time. */
    sim::SimTime start = 0;
    /** Interval length. */
    sim::SimTime duration = 0;
    /** psi::TaskState bits active during the interval (0 = idle). */
    unsigned state = 0;
};

/** A task plus its planned segments within one tick. */
struct TaskTimeline {
    Task *task = nullptr;
    std::vector<Segment> segments;
};

/** One task state change of a replay: replayTimelines()'s scratch
 *  element. */
struct Transition {
    sim::SimTime time = 0;
    /** Position in the flattened order; breaks ties in time. */
    std::uint32_t order = 0;
    /** psi::TaskState bits the task leaves. */
    std::uint8_t clear = 0;
    /** psi::TaskState bits the task enters. */
    std::uint8_t set = 0;
    /** The task's container; the change applies there and in every
     *  ancestor. */
    cgroup::Cgroup *cgroup = nullptr;
};

/**
 * Replay a set of per-task timelines through the PSI state machine in
 * global time order, so concurrent stalls across tasks produce correct
 * some/full accounting. Gaps between segments are idle. All tasks are
 * left idle at @p tick_end. Each timeline's segments are sorted in
 * place by start. A task appears in at most one timeline.
 *
 * The replay makes exactly the PSI updates that calling
 * Task::setState() for each segment's start and end, in stable time
 * order, would make, and none for a change that leaves a task's state
 * as it is.
 *
 * @param scratch Buffer for the flattened state changes, overwritten.
 *        The caller keeps it across ticks, so a replay allocates
 *        nothing once it has grown.
 * @throws std::invalid_argument naming the bits when a segment's state
 *         holds a bit outside psi::TaskState; nothing is applied then.
 */
void replayTimelines(std::vector<TaskTimeline> &timelines,
                     sim::SimTime tick_end,
                     std::vector<Transition> &scratch);

} // namespace tmo::sched
