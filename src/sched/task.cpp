#include "sched/task.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tmo::sched
{

Task::Task(cgroup::Cgroup &cg, std::string name)
    : cg_(&cg), name_(std::move(name))
{}

Task::~Task()
{
    // PSI counts must not leak when a task disappears; drop any
    // remaining state at the time of the last transition.
    if (state_ != 0)
        cg_->psiTaskChange(state_, 0, lastTransition_);
}

void
Task::setState(unsigned state, sim::SimTime now)
{
    lastTransition_ = std::max(lastTransition_, now);
    if (state == state_)
        return;
    const unsigned clear = state_ & ~state;
    const unsigned set = state & ~state_;
    cg_->psiTaskChange(clear, set, now);
    state_ = state;
}

void
replayTimelines(std::vector<TaskTimeline> &timelines,
                sim::SimTime tick_end, std::vector<Transition> &scratch)
{
    // Flatten each timeline into its task's state changes: a segment
    // enters its state at its start, and the task goes idle at its end
    // unless the next segment starts by then. A task's changes come out
    // in time order, and the sort below keeps that order, so the state
    // before each change is the one the previous change left. A change
    // that leaves the state as it is makes no PSI update (nor does
    // Task::setState), so it is dropped here.
    scratch.clear();
    for (auto &tl : timelines) {
        auto &segs = tl.segments;
        // Strictly increasing starts have one sorted order; equal
        // starts keep whatever order std::sort gives them.
        const auto out_of_order = std::adjacent_find(
            segs.begin(), segs.end(),
            [](const Segment &a, const Segment &b) {
                return a.start >= b.start;
            });
        if (out_of_order != segs.end())
            std::sort(segs.begin(), segs.end(),
                      [](const Segment &a, const Segment &b) {
                          return a.start < b.start;
                      });
        cgroup::Cgroup *cg = tl.task->cg_;
        unsigned state = tl.task->state_;
        const auto enter = [&](sim::SimTime time, unsigned next) {
            if (next == state)
                return;
            scratch.push_back({time,
                               static_cast<std::uint32_t>(scratch.size()),
                               static_cast<std::uint8_t>(state & ~next),
                               static_cast<std::uint8_t>(next & ~state),
                               cg});
            state = next;
        };
        for (std::size_t i = 0; i < segs.size(); ++i) {
            const Segment &seg = segs[i];
            if ((seg.state & ~psi::TSK_ALL) != 0)
                throw std::invalid_argument(
                    "replayTimelines: segment state " +
                    std::to_string(seg.state) +
                    " has bits outside psi::TaskState");
            enter(seg.start, seg.state);
            const sim::SimTime end = seg.start + seg.duration;
            if (i + 1 == segs.size() || segs[i + 1].start > end)
                enter(end, 0);
        }
    }
    // Ordering by (time, flatten position) is the order a stable sort
    // by time gives, without its temporary buffer.
    std::sort(scratch.begin(), scratch.end(),
              [](const Transition &a, const Transition &b) {
                  return a.time != b.time ? a.time < b.time
                                          : a.order < b.order;
              });
    for (const Transition &t : scratch)
        t.cgroup->psiTaskChange(t.clear, t.set, std::min(t.time, tick_end));
    // A task's last segment left it idle. Leave every task idle at the
    // end of the tick.
    for (auto &tl : timelines) {
        if (!tl.segments.empty())
            tl.task->state_ = 0;
        tl.task->setState(0, tick_end);
    }
}

} // namespace tmo::sched
