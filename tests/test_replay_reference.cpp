/**
 * @file
 * The timeline replay against the one it replaced. That replay applied
 * each transition through Task::setState(), a PSI group at a time, with
 * a PsiGroup that tested every state on every change; both are kept
 * here, as they were, as the reference. Seeded random timelines drive
 * both on mirrored cgroup trees, and every group's totals, counts,
 * averages and trace events must come out the same.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cgroup/cgroup.hpp"
#include "obs/trace.hpp"
#include "psi/psi.hpp"
#include "sched/task.hpp"
#include "sim/rng.hpp"

using namespace tmo;

namespace ref
{

using psi::NUM_RESOURCES;
using psi::Pressure;
using psi::Resource;
using psi::TSK_IOWAIT;
using psi::TSK_MEMSTALL;
using psi::TSK_ONCPU;
using psi::TSK_RUNNABLE;

[[noreturn]] void
invariantViolation(const std::string &what)
{
    throw std::logic_error("psi: " + what);
}

std::size_t
bitIndex(unsigned bit)
{
    switch (bit) {
      case TSK_ONCPU:
        return 0;
      case TSK_RUNNABLE:
        return 1;
      case TSK_MEMSTALL:
        return 2;
      case TSK_IOWAIT:
        return 3;
      default:
        invariantViolation("invalid task state bit " +
                           std::to_string(bit));
    }
}

double
avgAlpha(sim::SimTime window)
{
    const double period = sim::toSeconds(psi::PsiGroup::AVG_PERIOD);
    const double w = sim::toSeconds(window);
    return 1.0 - std::exp(-period / w);
}

const double ALPHA10 = avgAlpha(10 * sim::SEC);
const double ALPHA60 = avgAlpha(60 * sim::SEC);
const double ALPHA300 = avgAlpha(300 * sim::SEC);

/** The PsiGroup the replay used to feed, less the triggers. */
class PsiGroup
{
  public:
    static constexpr sim::SimTime AVG_PERIOD = 2 * sim::SEC;

    void
    taskChange(unsigned clear, unsigned set, sim::SimTime now)
    {
        accrue(now);

        // Snapshot which stall states hold before the transition; only
        // when tracing is on (the common path pays one pointer test).
        std::array<bool, NUM_RESOURCES * NUM_KINDS> before{};
        if (trace_) {
            for (std::size_t ri = 0; ri < NUM_RESOURCES; ++ri) {
                const auto r = static_cast<Resource>(ri);
                before[ri * NUM_KINDS + SOME] = stateActive(r, SOME);
                before[ri * NUM_KINDS + FULL] = stateActive(r, FULL);
            }
        }

        for (unsigned bit = 1; bit <= TSK_IOWAIT; bit <<= 1) {
            if (clear & bit) {
                const std::size_t idx = bitIndex(bit);
                if (nr_[idx] == 0)
                    invariantViolation(
                        "clearing task state bit " + std::to_string(bit) +
                        " with zero tasks in that state");
                --nr_[idx];
            }
            if (set & bit)
                ++nr_[bitIndex(bit)];
        }

        if (trace_) {
            for (std::size_t ri = 0; ri < NUM_RESOURCES; ++ri) {
                const auto r = static_cast<Resource>(ri);
                for (std::size_t k = 0; k < NUM_KINDS; ++k) {
                    const bool was = before[ri * NUM_KINDS + k];
                    const bool is =
                        stateActive(r, static_cast<Kind>(k));
                    if (was == is)
                        continue;
                    trace_->record(
                        now, obs::TraceEventType::PSI_STATE,
                        static_cast<std::uint8_t>(ri * NUM_KINDS + k),
                        traceDomain_,
                        {is ? 1.0 : 0.0,
                         static_cast<double>(stallTime_[ri][k])});
                }
            }
        }
    }

    void
    updateAverages(sim::SimTime now)
    {
        accrue(now);
        const sim::SimTime elapsed = now - lastAvgUpdate_;
        if (elapsed < AVG_PERIOD)
            return;

        const double span = static_cast<double>(elapsed);
        for (std::size_t ri = 0; ri < NUM_RESOURCES; ++ri) {
            for (std::size_t k = 0; k < NUM_KINDS; ++k) {
                const sim::SimTime delta =
                    stallTime_[ri][k] - lastFolded_[ri][k];
                const double pressure = static_cast<double>(delta) / span;
                avg10_[ri][k] += ALPHA10 * (pressure - avg10_[ri][k]);
                avg60_[ri][k] += ALPHA60 * (pressure - avg60_[ri][k]);
                avg300_[ri][k] += ALPHA300 * (pressure - avg300_[ri][k]);
                lastFolded_[ri][k] = stallTime_[ri][k];
            }
        }
        lastAvgUpdate_ = now;
    }

    Pressure
    some(Resource r) const
    {
        const auto ri = static_cast<std::size_t>(r);
        return Pressure{avg10_[ri][SOME], avg60_[ri][SOME],
                        avg300_[ri][SOME], stallTime_[ri][SOME]};
    }

    Pressure
    full(Resource r) const
    {
        const auto ri = static_cast<std::size_t>(r);
        return Pressure{avg10_[ri][FULL], avg60_[ri][FULL],
                        avg300_[ri][FULL], stallTime_[ri][FULL]};
    }

    sim::SimTime
    totalSome(Resource r, sim::SimTime now) const
    {
        const auto ri = static_cast<std::size_t>(r);
        sim::SimTime total = stallTime_[ri][SOME];
        if (now > lastChange_ && stateActive(r, SOME))
            total += now - lastChange_;
        return total;
    }

    sim::SimTime
    totalFull(Resource r, sim::SimTime now) const
    {
        const auto ri = static_cast<std::size_t>(r);
        sim::SimTime total = stallTime_[ri][FULL];
        if (now > lastChange_ && stateActive(r, FULL))
            total += now - lastChange_;
        return total;
    }

    unsigned taskCount(psi::TaskState bit) const
    {
        return nr_[bitIndex(bit)];
    }

    sim::SimTime nonIdleTime() const { return nonIdleTime_; }

    void
    setTrace(obs::TraceRing *ring, std::uint16_t domain)
    {
        trace_ = ring;
        traceDomain_ = domain;
    }

  private:
    enum Kind { SOME = 0, FULL = 1, NUM_KINDS = 2 };

    bool
    stateActive(Resource r, Kind kind) const
    {
        const unsigned oncpu = nr_[bitIndex(TSK_ONCPU)];
        const unsigned runnable = nr_[bitIndex(TSK_RUNNABLE)];
        const unsigned memstall = nr_[bitIndex(TSK_MEMSTALL)];
        const unsigned iowait = nr_[bitIndex(TSK_IOWAIT)];

        switch (r) {
          case Resource::CPU:
            // Tasks wait for CPU; "full" means nobody productive at all.
            return kind == SOME ? runnable > 0
                                : runnable > 0 && oncpu == 0;
          case Resource::MEM:
            return kind == SOME ? memstall > 0
                                : memstall > 0 && oncpu == 0;
          case Resource::IO:
            return kind == SOME ? iowait > 0 : iowait > 0 && oncpu == 0;
        }
        return false;
    }

    void
    accrue(sim::SimTime now)
    {
        if (now <= lastChange_)
            return;
        const sim::SimTime delta = now - lastChange_;

        bool non_idle = false;
        for (const auto bit : nr_)
            non_idle = non_idle || bit > 0;
        if (non_idle)
            nonIdleTime_ += delta;

        for (std::size_t ri = 0; ri < NUM_RESOURCES; ++ri) {
            const auto r = static_cast<Resource>(ri);
            if (stateActive(r, SOME))
                stallTime_[ri][SOME] += delta;
            if (stateActive(r, FULL))
                stallTime_[ri][FULL] += delta;
        }
        lastChange_ = now;
    }

    std::array<std::array<sim::SimTime, NUM_KINDS>, NUM_RESOURCES>
        stallTime_{};
    std::array<std::array<sim::SimTime, NUM_KINDS>, NUM_RESOURCES>
        lastFolded_{};
    std::array<std::array<double, NUM_KINDS>, NUM_RESOURCES> avg10_{};
    std::array<std::array<double, NUM_KINDS>, NUM_RESOURCES> avg60_{};
    std::array<std::array<double, NUM_KINDS>, NUM_RESOURCES> avg300_{};
    std::array<unsigned, 4> nr_{};
    sim::SimTime lastChange_ = 0;
    sim::SimTime lastAvgUpdate_ = 0;
    sim::SimTime nonIdleTime_ = 0;
    obs::TraceRing *trace_ = nullptr;
    std::uint16_t traceDomain_ = 0;
};

/** A cgroup reduced to its PSI group and its ancestor walk. */
struct Cgroup {
    PsiGroup psi;
    Cgroup *parent = nullptr;

    void
    psiTaskChange(unsigned clear, unsigned set, sim::SimTime now)
    {
        for (Cgroup *node = this; node; node = node->parent)
            node->psi.taskChange(clear, set, now);
    }
};

class Task
{
  public:
    explicit Task(Cgroup &cg)
        : cg_(&cg)
    {}

    ~Task()
    {
        if (state_ != 0)
            cg_->psiTaskChange(state_, 0, lastTransition_);
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    void
    setState(unsigned state, sim::SimTime now)
    {
        lastTransition_ = std::max(lastTransition_, now);
        if (state == state_)
            return;
        const unsigned clear = state_ & ~state;
        const unsigned set = state & ~state_;
        cg_->psiTaskChange(clear, set, now);
        state_ = state;
    }

    unsigned state() const { return state_; }

  private:
    Cgroup *cg_;
    unsigned state_ = 0;
    sim::SimTime lastTransition_ = 0;
};

struct TaskTimeline {
    Task *task = nullptr;
    std::vector<sched::Segment> segments;
};

struct Transition {
    sim::SimTime time = 0;
    std::uint32_t order = 0;
    unsigned state = 0;
    Task *task = nullptr;
};

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
                  [](const sched::Segment &a, const sched::Segment &b) {
                      return a.start < b.start;
                  });
        for (std::size_t i = 0; i < segs.size(); ++i) {
            const sched::Segment &seg = segs[i];
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

} // namespace ref

namespace
{

/** A cgroup tree and its reference mirror, each feeding its own
 *  trace ring, with tasks placed in both. */
struct Mirror {
    cgroup::CgroupTree tree;
    std::vector<cgroup::Cgroup *> real;
    std::vector<std::unique_ptr<ref::Cgroup>> mirror;
    obs::TraceRing realRing{4u << 20};
    obs::TraceRing mirrorRing{4u << 20};
    std::vector<std::unique_ptr<sched::Task>> tasks;
    std::vector<std::unique_ptr<ref::Task>> mirrorTasks;

    /** Add a node under node @p parent (-1: under the root). */
    void
    add(int parent)
    {
        cgroup::Cgroup *real_parent =
            parent < 0 ? nullptr : real[static_cast<std::size_t>(parent)];
        auto &cg =
            tree.create("cg" + std::to_string(real.size()), real_parent);
        cg.psi().setTrace(&realRing, static_cast<std::uint16_t>(cg.id()));
        real.push_back(&cg);
        auto node = std::make_unique<ref::Cgroup>();
        node->parent = parent < 0
                           ? mirror.front().get()
                           : mirror[static_cast<std::size_t>(parent)].get();
        node->psi.setTrace(&mirrorRing,
                           static_cast<std::uint16_t>(cg.id()));
        mirror.push_back(std::move(node));
    }

    explicit Mirror(sim::Rng &rng)
    {
        // Node 0 is the root; then one to three levels below it.
        tree.root().psi().setTrace(
            &realRing, static_cast<std::uint16_t>(tree.root().id()));
        real.push_back(&tree.root());
        mirror.push_back(std::make_unique<ref::Cgroup>());
        mirror.front()->psi.setTrace(
            &mirrorRing, static_cast<std::uint16_t>(tree.root().id()));
        const auto tops = 1 + rng.uniformInt(3);
        for (std::uint64_t i = 0; i < tops; ++i) {
            add(-1);
            const int top = static_cast<int>(real.size()) - 1;
            const auto kids = rng.uniformInt(3);
            for (std::uint64_t j = 0; j < kids; ++j) {
                add(top);
                const int kid = static_cast<int>(real.size()) - 1;
                if (rng.uniformInt(2) != 0)
                    add(kid);
            }
        }
        const auto n = 1 + rng.uniformInt(16);
        for (std::uint64_t t = 0; t < n; ++t) {
            const auto at = rng.uniformInt(real.size());
            tasks.push_back(std::make_unique<sched::Task>(
                *real[at], "t" + std::to_string(t)));
            mirrorTasks.push_back(std::make_unique<ref::Task>(*mirror[at]));
        }
    }

    ~Mirror()
    {
        // Tasks report their last state to the groups, so they go
        // first.
        tasks.clear();
        mirrorTasks.clear();
    }
};

/** One tick's segments for a task: contiguous, gapped, overlapping,
 *  out of order, equal starts, zero lengths, idle segments and
 *  segments past @p tick_end, on a 50 ms grid so times tie often. */
std::vector<sched::Segment>
randomSegments(sim::Rng &rng, sim::SimTime base)
{
    std::vector<sched::Segment> segments;
    const auto count = rng.uniformInt(7);
    const bool chained = rng.uniformInt(2) != 0;
    sim::SimTime at = base + rng.uniformInt(10) * 50 * sim::MSEC;
    for (std::uint64_t k = 0; k < count; ++k) {
        const sim::SimTime duration = rng.uniformInt(8) * 50 * sim::MSEC;
        const auto state = static_cast<unsigned>(rng.uniformInt(16));
        if (!chained)
            at = base + rng.uniformInt(26) * 50 * sim::MSEC;
        segments.push_back({at, duration, state});
        // Contiguous, a gap, or (on an overlap) back inside this one.
        at += duration;
        at = at + rng.uniformInt(3) * 50 * sim::MSEC -
             std::min(at - base, rng.uniformInt(2) * 100 * sim::MSEC);
    }
    return segments;
}

void
expectSamePressure(const psi::Pressure &real, const psi::Pressure &want,
                   const std::string &where)
{
    EXPECT_EQ(real.avg10, want.avg10) << where;
    EXPECT_EQ(real.avg60, want.avg60) << where;
    EXPECT_EQ(real.avg300, want.avg300) << where;
    EXPECT_EQ(real.total, want.total) << where;
}

} // namespace

TEST(ReplayReferenceTest, MatchesPerTransitionReplay)
{
    const psi::TaskState bits[] = {psi::TSK_ONCPU, psi::TSK_RUNNABLE,
                                   psi::TSK_MEMSTALL, psi::TSK_IOWAIT};
    std::uint64_t events = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        sim::Rng rng(seed);
        Mirror m(rng);
        std::vector<sched::TaskTimeline> timelines(m.tasks.size());
        std::vector<ref::TaskTimeline> mirror_timelines(m.tasks.size());
        std::vector<sched::Transition> scratch;
        std::vector<ref::Transition> mirror_scratch;
        for (int round = 0; round < 30; ++round) {
            const sim::SimTime base = round * 2 * sim::SEC;
            const sim::SimTime tick_end = base + sim::SEC;
            for (std::size_t t = 0; t < m.tasks.size(); ++t) {
                // Some tasks are not idle when the replay starts.
                if (rng.uniformInt(3) == 0) {
                    const auto state =
                        static_cast<unsigned>(1 + rng.uniformInt(15));
                    m.tasks[t]->setState(state, base);
                    m.mirrorTasks[t]->setState(state, base);
                }
                timelines[t].task = m.tasks[t].get();
                timelines[t].segments = randomSegments(rng, base);
                mirror_timelines[t].task = m.mirrorTasks[t].get();
                mirror_timelines[t].segments = timelines[t].segments;
            }
            sched::replayTimelines(timelines, tick_end, scratch);
            ref::replayTimelines(mirror_timelines, tick_end,
                                 mirror_scratch);

            const sim::SimTime later = tick_end + 500 * sim::MSEC;
            for (std::size_t i = 0; i < m.real.size(); ++i) {
                m.real[i]->psi().updateAverages(later);
                m.mirror[i]->psi.updateAverages(later);
            }
            for (std::size_t i = 0; i < m.real.size(); ++i) {
                const auto &real = m.real[i]->psi();
                const auto &want = m.mirror[i]->psi;
                const std::string where = "seed " + std::to_string(seed) +
                                          " round " +
                                          std::to_string(round) +
                                          " group " + std::to_string(i);
                for (std::size_t ri = 0; ri < psi::NUM_RESOURCES; ++ri) {
                    const auto r = static_cast<psi::Resource>(ri);
                    EXPECT_EQ(real.totalSome(r, later),
                              want.totalSome(r, later))
                        << where;
                    EXPECT_EQ(real.totalFull(r, later),
                              want.totalFull(r, later))
                        << where;
                    expectSamePressure(real.some(r), want.some(r), where);
                    expectSamePressure(real.full(r), want.full(r), where);
                }
                EXPECT_EQ(real.nonIdleTime(), want.nonIdleTime()) << where;
                for (const auto bit : bits)
                    EXPECT_EQ(real.taskCount(bit), want.taskCount(bit))
                        << where;
            }
            for (std::size_t t = 0; t < m.tasks.size(); ++t)
                EXPECT_EQ(m.tasks[t]->state(), m.mirrorTasks[t]->state());

            ASSERT_EQ(m.realRing.recorded(), m.mirrorRing.recorded())
                << "seed " << seed << " round " << round;
            const auto real_events = m.realRing.snapshot();
            const auto want_events = m.mirrorRing.snapshot();
            ASSERT_EQ(real_events.size(), want_events.size());
            for (std::size_t e = 0; e < real_events.size(); ++e) {
                const auto &a = real_events[e];
                const auto &b = want_events[e];
                ASSERT_TRUE(a.time == b.time && a.seq == b.seq &&
                            a.type == b.type && a.code == b.code &&
                            a.domain == b.domain && a.args == b.args)
                    << "seed " << seed << " round " << round << " event "
                    << e;
            }
            events += real_events.size();
            m.realRing.clear();
            m.mirrorRing.clear();
        }
    }
    // The timelines must have made the groups change state.
    EXPECT_GT(events, 10000u);
}
