/**
 * @file
 * Tests for the PSI state machine, including an exact reproduction of
 * the paper's Fig. 7 worked example.
 */

#include <gtest/gtest.h>

#include "psi/psi.hpp"
#include "sim/time.hpp"

using namespace tmo;
using psi::PsiGroup;
using psi::Resource;

namespace
{

/** Total time base used by the Fig. 7 scenario: 100 seconds. */
constexpr sim::SimTime TOTAL = 100 * sim::SEC;

sim::SimTime
pct(double p)
{
    return static_cast<sim::SimTime>(p / 100.0 *
                                     static_cast<double>(TOTAL));
}

} // namespace

TEST(PsiTest, IdleGroupAccruesNothing)
{
    PsiGroup g;
    g.updateAverages(10 * sim::SEC);
    EXPECT_EQ(g.some(Resource::MEM).total, 0u);
    EXPECT_EQ(g.full(Resource::MEM).total, 0u);
    EXPECT_EQ(g.nonIdleTime(), 0u);
}

TEST(PsiTest, SingleTaskMemstallIsSomeAndFull)
{
    PsiGroup g;
    // One task stalls on memory for 3 s with nothing else running:
    // both some and full accrue (all non-idle tasks stalled).
    g.taskChange(0, psi::TSK_MEMSTALL, 0);
    g.taskChange(psi::TSK_MEMSTALL, 0, 3 * sim::SEC);
    EXPECT_EQ(g.totalSome(Resource::MEM, 3 * sim::SEC), 3 * sim::SEC);
    EXPECT_EQ(g.totalFull(Resource::MEM, 3 * sim::SEC), 3 * sim::SEC);
}

TEST(PsiTest, RunningTaskSuppressesFull)
{
    PsiGroup g;
    // Task 1 stalls; task 2 keeps a CPU busy: some accrues, full not.
    g.taskChange(0, psi::TSK_ONCPU, 0);
    g.taskChange(0, psi::TSK_MEMSTALL, 0);
    g.taskChange(psi::TSK_MEMSTALL, 0, 2 * sim::SEC);
    g.taskChange(psi::TSK_ONCPU, 0, 2 * sim::SEC);
    EXPECT_EQ(g.totalSome(Resource::MEM, 2 * sim::SEC), 2 * sim::SEC);
    EXPECT_EQ(g.totalFull(Resource::MEM, 2 * sim::SEC), 0u);
}

TEST(PsiTest, Figure7WorkedExample)
{
    // Two processes, execution normalized to 100%, four quarters:
    //  Q1: A stalls 6.25%, then B stalls 6.25% (disjoint)
    //      -> some += 12.5%, full += 0
    //  Q2: A stalls 18.75%; B stalls 6.25% inside A's stall
    //      -> some += 18.75%, full += 6.25%
    //  Q3: both stall together for 12.5% -> some += 12.5%, full += 12.5%
    //  Q4: A stalls the whole quarter (25%) while B runs
    //      -> some += 25%, full += 0
    PsiGroup g;
    struct Change {
        double at;      // percent of total
        unsigned clear;
        unsigned set;
    };
    const unsigned RUN = psi::TSK_ONCPU;
    const unsigned STALL = psi::TSK_MEMSTALL;

    // Timeline encoded as (A-state, B-state) transitions. Both
    // processes are running whenever they are not stalled.
    struct Step {
        double at;
        unsigned a;
        unsigned b;
    };
    const Step steps[] = {
        {0.0, STALL, RUN},    // Q1: A stalls first
        {6.25, RUN, RUN},
        {12.5, RUN, STALL},   // then B stalls
        {18.75, RUN, RUN},
        {25.0, STALL, RUN},   // Q2: A stalls 18.75%
        {31.25, STALL, STALL},// B joins for 6.25% (full)
        {37.5, STALL, RUN},
        {43.75, RUN, RUN},
        {50.0, STALL, STALL}, // Q3: both stall 12.5%
        {62.5, RUN, RUN},
        {75.0, STALL, RUN},   // Q4: A stalls whole quarter
        {100.0, RUN, RUN},
    };

    unsigned a_state = 0, b_state = 0;
    for (const auto &step : steps) {
        const sim::SimTime now = pct(step.at);
        if (step.a != a_state) {
            g.taskChange(a_state, step.a, now);
            a_state = step.a;
        }
        if (step.b != b_state) {
            g.taskChange(b_state, step.b, now);
            b_state = step.b;
        }
    }

    const sim::SimTime some = g.totalSome(Resource::MEM, TOTAL);
    const sim::SimTime full = g.totalFull(Resource::MEM, TOTAL);
    // some: 12.5 + 18.75 + 12.5 + 25 = 68.75% of 100 s.
    EXPECT_EQ(some, pct(68.75));
    // full: 6.25 + 12.5 = 18.75% of 100 s.
    EXPECT_EQ(full, pct(18.75));
}

TEST(PsiTest, SomeNeverBelowFull)
{
    PsiGroup g;
    g.taskChange(0, psi::TSK_MEMSTALL, 0);
    g.taskChange(0, psi::TSK_MEMSTALL, sim::SEC);
    g.taskChange(psi::TSK_MEMSTALL, psi::TSK_ONCPU, 2 * sim::SEC);
    g.taskChange(psi::TSK_MEMSTALL, 0, 3 * sim::SEC);
    g.taskChange(psi::TSK_ONCPU, 0, 4 * sim::SEC);
    for (const auto r :
         {Resource::CPU, Resource::MEM, Resource::IO}) {
        EXPECT_GE(g.totalSome(r, 4 * sim::SEC),
                  g.totalFull(r, 4 * sim::SEC));
    }
}

TEST(PsiTest, IoStallSeparateFromMem)
{
    PsiGroup g;
    g.taskChange(0, psi::TSK_IOWAIT, 0);
    g.taskChange(psi::TSK_IOWAIT, 0, sim::SEC);
    EXPECT_EQ(g.totalSome(Resource::IO, sim::SEC), sim::SEC);
    EXPECT_EQ(g.totalSome(Resource::MEM, sim::SEC), 0u);
}

TEST(PsiTest, CombinedMemAndIoStall)
{
    // Swap-in from disk: MEMSTALL | IOWAIT counts for both resources.
    PsiGroup g;
    g.taskChange(0, psi::TSK_MEMSTALL | psi::TSK_IOWAIT, 0);
    g.taskChange(psi::TSK_MEMSTALL | psi::TSK_IOWAIT, 0, sim::SEC);
    EXPECT_EQ(g.totalSome(Resource::MEM, sim::SEC), sim::SEC);
    EXPECT_EQ(g.totalSome(Resource::IO, sim::SEC), sim::SEC);
}

TEST(PsiTest, CpuPressureFromRunnable)
{
    PsiGroup g;
    // One task on CPU, one waiting for it: CPU some, not full.
    g.taskChange(0, psi::TSK_ONCPU, 0);
    g.taskChange(0, psi::TSK_RUNNABLE, 0);
    g.taskChange(psi::TSK_RUNNABLE, 0, sim::SEC);
    g.taskChange(psi::TSK_ONCPU, 0, sim::SEC);
    EXPECT_EQ(g.totalSome(Resource::CPU, sim::SEC), sim::SEC);
    EXPECT_EQ(g.totalFull(Resource::CPU, sim::SEC), 0u);
}

TEST(PsiTest, TotalsAreMonotonic)
{
    PsiGroup g;
    sim::SimTime prev = 0;
    for (int i = 0; i < 20; ++i) {
        const sim::SimTime t = i * sim::SEC;
        g.taskChange(0, psi::TSK_MEMSTALL, t);
        g.taskChange(psi::TSK_MEMSTALL, 0, t + sim::SEC / 2);
        const sim::SimTime total =
            g.totalSome(Resource::MEM, t + sim::SEC / 2);
        EXPECT_GE(total, prev);
        prev = total;
    }
}

TEST(PsiTest, AveragesConvergeToConstantPressure)
{
    PsiGroup g;
    // 20% duty-cycle memstall for 10 minutes with 2 s averaging.
    for (int s = 0; s < 600; ++s) {
        const sim::SimTime t = s * sim::SEC;
        g.taskChange(0, psi::TSK_MEMSTALL, t);
        g.taskChange(psi::TSK_MEMSTALL, 0, t + sim::SEC / 5);
        g.updateAverages(t + sim::SEC / 5);
    }
    const auto p = g.some(Resource::MEM);
    EXPECT_NEAR(p.avg10, 0.20, 0.03);
    EXPECT_NEAR(p.avg60, 0.20, 0.03);
    EXPECT_NEAR(p.avg300, 0.20, 0.05);
}

TEST(PsiTest, AveragesDecayAfterPressureStops)
{
    PsiGroup g;
    for (int s = 0; s < 60; ++s) {
        const sim::SimTime t = s * sim::SEC;
        g.taskChange(0, psi::TSK_MEMSTALL, t);
        g.taskChange(psi::TSK_MEMSTALL, 0, t + sim::SEC / 2);
        g.updateAverages(t + sim::SEC / 2);
    }
    const double busy = g.some(Resource::MEM).avg10;
    for (int s = 60; s < 120; ++s)
        g.updateAverages(s * sim::SEC);
    const double idle = g.some(Resource::MEM).avg10;
    EXPECT_GT(busy, 0.3);
    EXPECT_LT(idle, 0.05);
}

TEST(PsiTest, TaskCounts)
{
    PsiGroup g;
    g.taskChange(0, psi::TSK_ONCPU, 0);
    g.taskChange(0, psi::TSK_ONCPU, 0);
    EXPECT_EQ(g.taskCount(psi::TSK_ONCPU), 2u);
    g.taskChange(psi::TSK_ONCPU, 0, sim::SEC);
    EXPECT_EQ(g.taskCount(psi::TSK_ONCPU), 1u);
}

TEST(PsiTriggerTest, FiresAboveThreshold)
{
    PsiGroup g;
    psi::PsiTriggerSet triggers(g);
    int fired = 0;
    psi::PsiTrigger t;
    t.resource = Resource::MEM;
    t.threshold = 100 * sim::MSEC;
    t.window = sim::SEC;
    t.callback = [&](sim::SimTime) { ++fired; };
    triggers.add(t, 0);

    // 50% memstall: well above 10% threshold-in-window.
    g.taskChange(0, psi::TSK_MEMSTALL, 0);
    triggers.poll(0);
    g.taskChange(psi::TSK_MEMSTALL, 0, 500 * sim::MSEC);
    triggers.poll(500 * sim::MSEC);
    EXPECT_EQ(fired, 1);
}

TEST(PsiTriggerTest, QuietGroupDoesNotFire)
{
    PsiGroup g;
    psi::PsiTriggerSet triggers(g);
    int fired = 0;
    psi::PsiTrigger t;
    t.threshold = sim::MSEC;
    t.window = sim::SEC;
    t.callback = [&](sim::SimTime) { ++fired; };
    triggers.add(t, 0);
    for (int i = 0; i < 10; ++i)
        triggers.poll(i * 100 * sim::MSEC);
    EXPECT_EQ(fired, 0);
}

TEST(PsiTriggerTest, FiresOncePerWindow)
{
    PsiGroup g;
    psi::PsiTriggerSet triggers(g);
    int fired = 0;
    psi::PsiTrigger t;
    t.threshold = 10 * sim::MSEC;
    t.window = sim::SEC;
    t.callback = [&](sim::SimTime) { ++fired; };
    triggers.add(t, 0);

    g.taskChange(0, psi::TSK_MEMSTALL, 0);
    triggers.poll(0);
    triggers.poll(200 * sim::MSEC);
    triggers.poll(400 * sim::MSEC);
    EXPECT_EQ(fired, 1); // once within the window
    // New window re-arms.
    triggers.poll(1100 * sim::MSEC);
    triggers.poll(1300 * sim::MSEC);
    EXPECT_EQ(fired, 2);
}
