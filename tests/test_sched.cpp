/**
 * @file
 * Tests for tasks, timeline replay, and the CPU contention model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cgroup/cgroup.hpp"
#include "sched/cpu_model.hpp"
#include "sched/task.hpp"
#include "sim/rng.hpp"

using namespace tmo;

TEST(TaskTest, StateTransitionsFeedPsi)
{
    cgroup::CgroupTree tree;
    auto &cg = tree.create("app");
    sched::Task task(cg, "worker");
    task.setState(psi::TSK_MEMSTALL, 0);
    task.setState(0, sim::SEC);
    EXPECT_EQ(cg.psi().totalSome(psi::Resource::MEM, sim::SEC),
              sim::SEC);
}

TEST(TaskTest, RedundantTransitionIsNoop)
{
    cgroup::CgroupTree tree;
    auto &cg = tree.create("app");
    sched::Task task(cg, "worker");
    task.setState(psi::TSK_ONCPU, 0);
    task.setState(psi::TSK_ONCPU, sim::SEC); // same state
    EXPECT_EQ(task.state(), psi::TSK_ONCPU);
    EXPECT_EQ(cg.psi().taskCount(psi::TSK_ONCPU), 1u);
}

TEST(TaskTest, DestructorClearsCounts)
{
    cgroup::CgroupTree tree;
    auto &cg = tree.create("app");
    {
        sched::Task task(cg, "worker");
        task.setState(psi::TSK_MEMSTALL, sim::SEC);
    }
    EXPECT_EQ(cg.psi().taskCount(psi::TSK_MEMSTALL), 0u);
}

TEST(TaskTest, CombinedStateBits)
{
    cgroup::CgroupTree tree;
    auto &cg = tree.create("app");
    sched::Task task(cg, "worker");
    task.setState(psi::TSK_MEMSTALL | psi::TSK_IOWAIT, 0);
    EXPECT_EQ(cg.psi().taskCount(psi::TSK_MEMSTALL), 1u);
    EXPECT_EQ(cg.psi().taskCount(psi::TSK_IOWAIT), 1u);
    task.setState(psi::TSK_IOWAIT, sim::SEC);
    EXPECT_EQ(cg.psi().taskCount(psi::TSK_MEMSTALL), 0u);
    EXPECT_EQ(cg.psi().taskCount(psi::TSK_IOWAIT), 1u);
    task.setState(0, 2 * sim::SEC);
}

TEST(ReplayTest, SingleTaskSegments)
{
    cgroup::CgroupTree tree;
    auto &cg = tree.create("app");
    sched::Task task(cg, "worker");

    std::vector<sched::TaskTimeline> timelines(1);
    std::vector<sched::Transition> scratch;
    timelines[0].task = &task;
    timelines[0].segments = {
        {0, 200 * sim::MSEC, psi::TSK_ONCPU},
        {200 * sim::MSEC, 300 * sim::MSEC, psi::TSK_MEMSTALL},
    };
    sched::replayTimelines(timelines, sim::SEC, scratch);

    EXPECT_EQ(cg.psi().totalSome(psi::Resource::MEM, sim::SEC),
              300 * sim::MSEC);
    EXPECT_EQ(task.state(), 0u); // left idle at tick end
}

TEST(ReplayTest, UnsortedSegmentsAreSorted)
{
    cgroup::CgroupTree tree;
    auto &cg = tree.create("app");
    sched::Task task(cg, "worker");

    std::vector<sched::TaskTimeline> timelines(1);
    std::vector<sched::Transition> scratch;
    timelines[0].task = &task;
    timelines[0].segments = {
        {500 * sim::MSEC, 100 * sim::MSEC, psi::TSK_IOWAIT},
        {100 * sim::MSEC, 100 * sim::MSEC, psi::TSK_MEMSTALL},
    };
    sched::replayTimelines(timelines, sim::SEC, scratch);
    EXPECT_EQ(cg.psi().totalSome(psi::Resource::MEM, sim::SEC),
              100 * sim::MSEC);
    EXPECT_EQ(cg.psi().totalSome(psi::Resource::IO, sim::SEC),
              100 * sim::MSEC);
}

TEST(ReplayTest, OverlappingStallsAcrossTasksMakeFull)
{
    cgroup::CgroupTree tree;
    auto &cg = tree.create("app");
    sched::Task a(cg, "a"), b(cg, "b");

    // Both tasks stall [100, 300) ms: some == full == 200 ms.
    std::vector<sched::TaskTimeline> timelines(2);
    std::vector<sched::Transition> scratch;
    timelines[0].task = &a;
    timelines[0].segments = {
        {100 * sim::MSEC, 200 * sim::MSEC, psi::TSK_MEMSTALL}};
    timelines[1].task = &b;
    timelines[1].segments = {
        {100 * sim::MSEC, 200 * sim::MSEC, psi::TSK_MEMSTALL}};
    sched::replayTimelines(timelines, sim::SEC, scratch);

    EXPECT_EQ(cg.psi().totalSome(psi::Resource::MEM, sim::SEC),
              200 * sim::MSEC);
    EXPECT_EQ(cg.psi().totalFull(psi::Resource::MEM, sim::SEC),
              200 * sim::MSEC);
}

TEST(ReplayTest, DisjointStallsAreSomeNotFull)
{
    cgroup::CgroupTree tree;
    auto &cg = tree.create("app");
    sched::Task a(cg, "a"), b(cg, "b");

    std::vector<sched::TaskTimeline> timelines(2);
    std::vector<sched::Transition> scratch;
    timelines[0].task = &a;
    timelines[0].segments = {
        {0, 200 * sim::MSEC, psi::TSK_MEMSTALL},
        {200 * sim::MSEC, 800 * sim::MSEC, psi::TSK_ONCPU}};
    timelines[1].task = &b;
    timelines[1].segments = {
        {0, 200 * sim::MSEC, psi::TSK_ONCPU},
        {200 * sim::MSEC, 200 * sim::MSEC, psi::TSK_MEMSTALL},
        {400 * sim::MSEC, 600 * sim::MSEC, psi::TSK_ONCPU}};
    sched::replayTimelines(timelines, sim::SEC, scratch);

    EXPECT_EQ(cg.psi().totalSome(psi::Resource::MEM, sim::SEC),
              400 * sim::MSEC);
    EXPECT_EQ(cg.psi().totalFull(psi::Resource::MEM, sim::SEC), 0u);
}

TEST(ReplayTest, InvalidSegmentStateIsNamedAndAppliesNothing)
{
    cgroup::CgroupTree tree;
    auto &cg = tree.create("app");
    sched::Task a(cg, "a"), b(cg, "b");
    std::vector<sched::TaskTimeline> timelines(2);
    std::vector<sched::Transition> scratch;
    timelines[0].task = &a;
    timelines[0].segments = {{0, 100 * sim::MSEC, psi::TSK_ONCPU}};
    timelines[1].task = &b;
    timelines[1].segments = {{0, 100 * sim::MSEC, 1u << 4}};
    try {
        sched::replayTimelines(timelines, sim::SEC, scratch);
        ADD_FAILURE() << "no error";
    } catch (const std::invalid_argument &error) {
        EXPECT_STREQ(error.what(), "replayTimelines: segment state 16 has "
                                   "bits outside psi::TaskState");
    }
    EXPECT_EQ(cg.psi().taskCount(psi::TSK_ONCPU), 0u);
    EXPECT_EQ(cg.psi().nonIdleTime(), 0u);
    EXPECT_EQ(a.state(), 0u);
}

TEST(ReplayTest, TransitionOrderMatchesStableSortByTime)
{
    // The replay sorts by (time, flatten position); that must be the
    // order a stable sort by time gives, ties included, less the
    // changes that leave a task's state as it is. Coarse 100 ms starts
    // make ties across tasks common, and the scratch is reused across
    // rounds the way a tick reuses it. Each task has its own cgroup, so
    // an entry's cgroup names its task.
    cgroup::CgroupTree tree;
    auto &app = tree.create("app");
    std::vector<std::unique_ptr<sched::Task>> tasks;
    for (int i = 0; i < 6; ++i) {
        const std::string name = "t" + std::to_string(i);
        tasks.push_back(
            std::make_unique<sched::Task>(tree.create(name, &app), name));
    }
    const unsigned states[] = {psi::TSK_ONCPU, psi::TSK_RUNNABLE,
                               psi::TSK_MEMSTALL, psi::TSK_IOWAIT,
                               psi::TSK_MEMSTALL | psi::TSK_IOWAIT};
    struct Step {
        sim::SimTime time;
        sched::Task *task;
        unsigned state;
    };
    sim::Rng rng(5);
    std::vector<sched::Transition> scratch;
    for (int round = 0; round < 50; ++round) {
        const sim::SimTime base = round * sim::SEC;
        std::vector<sched::TaskTimeline> timelines(tasks.size());
        for (std::size_t t = 0; t < tasks.size(); ++t) {
            timelines[t].task = tasks[t].get();
            sim::SimTime at = base + rng.uniformInt(3) * 100 * sim::MSEC;
            const auto segments = rng.uniformInt(6);
            for (std::uint64_t k = 0; k < segments; ++k) {
                const sim::SimTime duration =
                    (1 + rng.uniformInt(2)) * 100 * sim::MSEC;
                timelines[t].segments.push_back(
                    {at, duration, states[rng.uniformInt(5)]});
                // Contiguous or a 100 ms gap.
                at += duration + rng.uniformInt(2) * 100 * sim::MSEC;
            }
        }
        // Reference: the flatten, then a stable sort by time, then each
        // task's state changes.
        std::vector<Step> steps;
        for (const auto &tl : timelines) {
            const auto &segs = tl.segments;
            for (std::size_t i = 0; i < segs.size(); ++i) {
                steps.push_back({segs[i].start, tl.task, segs[i].state});
                const sim::SimTime end = segs[i].start + segs[i].duration;
                if (!(i + 1 < segs.size() && segs[i + 1].start <= end))
                    steps.push_back({end, tl.task, 0u});
            }
        }
        std::stable_sort(steps.begin(), steps.end(),
                         [](const Step &a, const Step &b) {
                             return a.time < b.time;
                         });
        std::vector<sched::Transition> expect;
        std::vector<unsigned> held(tasks.size(), 0u);
        for (const Step &step : steps) {
            const auto t = static_cast<std::size_t>(
                std::find_if(tasks.begin(), tasks.end(),
                             [&](const auto &task) {
                                 return task.get() == step.task;
                             }) -
                tasks.begin());
            if (step.state == held[t])
                continue;
            expect.push_back(
                {step.time, 0,
                 static_cast<std::uint8_t>(held[t] & ~step.state),
                 static_cast<std::uint8_t>(step.state & ~held[t]),
                 &step.task->cgroup()});
            held[t] = step.state;
        }
        sched::replayTimelines(timelines, base + sim::SEC, scratch);
        ASSERT_EQ(scratch.size(), expect.size()) << "round " << round;
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(scratch[i].time, expect[i].time) << round << "/" << i;
            EXPECT_EQ(scratch[i].cgroup, expect[i].cgroup)
                << round << "/" << i;
            EXPECT_EQ(scratch[i].clear, expect[i].clear)
                << round << "/" << i;
            EXPECT_EQ(scratch[i].set, expect[i].set) << round << "/" << i;
        }
    }
}

TEST(CpuModelTest, UndersubscribedRunsEverything)
{
    const std::vector<sim::SimTime> demands = {
        100 * sim::MSEC, 200 * sim::MSEC};
    std::vector<sched::CpuShare> shares;
    sched::allocateCpu(demands, 4, sim::SEC, shares);
    EXPECT_EQ(shares[0].run, 100 * sim::MSEC);
    EXPECT_EQ(shares[1].run, 200 * sim::MSEC);
    EXPECT_EQ(shares[0].wait, 0u);
    EXPECT_EQ(shares[1].wait, 0u);
}

TEST(CpuModelTest, OversubscribedScalesAndWaits)
{
    // 4 tasks wanting the full tick on 2 CPUs: each runs half, waits
    // half.
    const std::vector<sim::SimTime> demands(4, sim::SEC);
    std::vector<sched::CpuShare> shares;
    sched::allocateCpu(demands, 2, sim::SEC, shares);
    for (const auto &s : shares) {
        EXPECT_EQ(s.run, sim::SEC / 2);
        EXPECT_EQ(s.wait, sim::SEC / 2);
    }
}

TEST(CpuModelTest, DemandCappedAtTick)
{
    const std::vector<sim::SimTime> demands = {10 * sim::SEC};
    std::vector<sched::CpuShare> shares;
    sched::allocateCpu(demands, 1, sim::SEC, shares);
    EXPECT_EQ(shares[0].run, sim::SEC);
    EXPECT_EQ(shares[0].wait, 0u);
}

TEST(CpuModelTest, EmptyAndZeroCpus)
{
    std::vector<sched::CpuShare> shares(3);
    sched::allocateCpu({}, 4, sim::SEC, shares);
    EXPECT_TRUE(shares.empty());
    sched::allocateCpu({sim::SEC}, 0, sim::SEC, shares);
    ASSERT_EQ(shares.size(), 1u);
    EXPECT_EQ(shares[0].run, 0u);
}

TEST(CpuModelTest, RunPlusWaitNeverExceedsTick)
{
    const std::vector<sim::SimTime> demands = {
        900 * sim::MSEC, 800 * sim::MSEC, sim::SEC};
    std::vector<sched::CpuShare> shares;
    sched::allocateCpu(demands, 1, sim::SEC, shares);
    for (const auto &s : shares)
        EXPECT_LE(s.run + s.wait, sim::SEC);
}

TEST(CpuModelTest, ReusedBufferIsOverwritten)
{
    // The caller keeps the buffer across ticks: a tick's shares must
    // not depend on what the previous tick left in it.
    std::vector<sched::CpuShare> shares;
    sched::allocateCpu(std::vector<sim::SimTime>(4, sim::SEC), 2, sim::SEC,
                       shares);
    ASSERT_EQ(shares.size(), 4u);
    EXPECT_EQ(shares[3].wait, sim::SEC / 2);
    const std::vector<sim::SimTime> light = {100 * sim::MSEC,
                                             200 * sim::MSEC};
    sched::allocateCpu(light, 2, sim::SEC, shares);
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_EQ(shares[0].run, 100 * sim::MSEC);
    EXPECT_EQ(shares[0].wait, 0u);
    EXPECT_EQ(shares[1].run, 200 * sim::MSEC);
    EXPECT_EQ(shares[1].wait, 0u);
}
