#include "sched/task.hpp"

#include <algorithm>
#include <cassert>

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
    // Flatten to (time, task, state) transitions. Each segment
    // produces a transition at its start; a trailing idle transition is
    // added at its end unless the next segment is contiguous.
    scratch.clear();
    for (auto &tl : timelines) {
        auto &segs = tl.segments;
        std::sort(segs.begin(), segs.end(),
                  [](const Segment &a, const Segment &b) {
                      return a.start < b.start;
                  });
        for (std::size_t i = 0; i < segs.size(); ++i) {
            const Segment &seg = segs[i];
            const auto order = static_cast<std::uint32_t>(scratch.size());
            scratch.push_back({seg.start, order, seg.state, tl.task});
            const sim::SimTime end = seg.start + seg.duration;
            const bool contiguous =
                i + 1 < segs.size() && segs[i + 1].start <= end;
            if (!contiguous)
                scratch.push_back({end, order + 1, 0u, tl.task});
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
        t.task->setState(t.state, std::min(t.time, tick_end));
    // Leave every task idle at the end of the tick.
    for (auto &tl : timelines)
        tl.task->setState(0, tick_end);
}

} // namespace tmo::sched
