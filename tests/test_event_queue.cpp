/**
 * @file
 * Unit tests for the event queue, the simulation loop and its
 * periodic timer.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/periodic.hpp"
#include "sim/simulation.hpp"

using namespace tmo;

TEST(EventQueueTest, EmptyInitially)
{
    sim::EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, RunsInTimeOrder)
{
    sim::EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesRunInInsertionOrder)
{
    sim::EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    sim::EventQueue q;
    bool ran = false;
    const auto id = q.schedule(10, [&] { ran = true; });
    q.cancel(id);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelMiddleKeepsOthers)
{
    sim::EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    const auto id = q.schedule(20, [&] { order.push_back(2); });
    q.schedule(30, [&] { order.push_back(3); });
    q.cancel(id);
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelInvalidIsNoop)
{
    sim::EventQueue q;
    q.schedule(1, [] {});
    q.cancel(sim::INVALID_EVENT);
    q.cancel(9999);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, NextTimeSkipsCancelled)
{
    sim::EventQueue q;
    const auto id = q.schedule(5, [] {});
    q.schedule(10, [] {});
    q.cancel(id);
    EXPECT_EQ(q.nextTime(), 10u);
}

TEST(EventQueueTest, EventCanScheduleMore)
{
    sim::EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(1);
        q.schedule(20, [&] { order.push_back(2); });
    });
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, ThrowsOnEmptyPop)
{
    sim::EventQueue q;
    EXPECT_THROW(q.runNext(), std::logic_error);
    EXPECT_THROW(q.nextTime(), std::logic_error);
}

TEST(EventQueueTest, IdsAreNeverInvalid)
{
    sim::EventQueue q;
    for (int i = 0; i < 100; ++i) {
        EXPECT_NE(q.schedule(static_cast<sim::SimTime>(i), [] {}),
                  sim::INVALID_EVENT);
        q.runNext();
    }
}

TEST(EventQueueTest, CancelOfFiredIdSparesTheSlotsNewEvent)
{
    // A fired event's slot is recycled for the next schedule; its old
    // id must not cancel the new occupant.
    sim::EventQueue q;
    const auto first = q.schedule(10, [] {});
    q.runNext();
    bool ran = false;
    const auto second = q.schedule(20, [&] { ran = true; });
    EXPECT_NE(first, second);
    q.cancel(first);
    EXPECT_EQ(q.size(), 1u);
    q.runNext();
    EXPECT_TRUE(ran);

    // Likewise for a cancelled id whose slot was reused.
    const auto third = q.schedule(30, [] {});
    q.cancel(third);
    ran = false;
    q.schedule(40, [&] { ran = true; });
    q.cancel(third);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextTime(), 40u);
    q.runNext();
    EXPECT_TRUE(ran);
}

TEST(EventQueueTest, CallbackCancellingItsOwnIdIsHarmless)
{
    sim::EventQueue q;
    sim::EventId self = sim::INVALID_EVENT;
    bool next_ran = false;
    int runs = 0;
    self = q.schedule(10, [&] {
        ++runs;
        q.cancel(self);
        // Reuses the slot just freed; the stale id must not reach it.
        q.schedule(20, [&] { next_ran = true; });
        q.cancel(self);
    });
    q.runNext();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(q.size(), 1u);
    q.runNext();
    EXPECT_TRUE(next_ran);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CallbackGrowingTheQueueKeepsItsState)
{
    // The running callback was moved out of its slot: scheduling
    // enough to reallocate the slot table and the heap under it must
    // leave its captures intact (ASan would see a dangling read).
    sim::EventQueue q;
    std::vector<int> order;
    const std::string tag(64, 'x'); // captured by value: heap-held
    q.schedule(1, [&q, &order, tag] {
        for (int i = 0; i < 1000; ++i)
            q.schedule(2 + static_cast<sim::SimTime>(999 - i),
                       [&order, i] { order.push_back(i); });
        order.push_back(static_cast<int>(tag.size()));
    });
    q.runNext();
    ASSERT_EQ(order, std::vector<int>{64});
    EXPECT_EQ(q.size(), 1000u);
    while (!q.empty())
        q.runNext();
    ASSERT_EQ(order.size(), 1001u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(order[1 + static_cast<std::size_t>(i)], 999 - i);
}

TEST(EventQueueTest, CancelDestroysTheCallbackAtOnce)
{
    sim::EventQueue q;
    auto token = std::make_shared<int>(0);
    const auto id = q.schedule(10, [token] {});
    EXPECT_EQ(token.use_count(), 2);
    q.cancel(id);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, DispatchedCountsRunEventsOnly)
{
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 5; ++i)
        ids.push_back(q.schedule(static_cast<sim::SimTime>(10 * i), [] {}));
    q.cancel(ids[1]);
    q.cancel(ids[3]);
    q.cancel(ids[3]);
    EXPECT_EQ(q.dispatched(), 0u);
    while (!q.empty())
        q.runNext();
    EXPECT_EQ(q.dispatched(), 3u);
}

TEST(SimulationTest, ClockAdvancesWithEvents)
{
    sim::Simulation s;
    sim::SimTime seen = 0;
    s.at(100, [&] { seen = s.now(); });
    s.runUntil(1000);
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(s.now(), 1000u);
}

TEST(SimulationTest, RunUntilStopsAtDeadline)
{
    sim::Simulation s;
    bool late = false;
    s.at(2000, [&] { late = true; });
    s.runUntil(1000);
    EXPECT_FALSE(late);
    EXPECT_EQ(s.now(), 1000u);
    s.runUntil(3000);
    EXPECT_TRUE(late);
}

TEST(SimulationTest, AfterIsRelative)
{
    sim::Simulation s;
    s.at(500, [&] {
        s.after(100, [&] { EXPECT_EQ(s.now(), 600u); });
    });
    s.runToCompletion();
    EXPECT_EQ(s.now(), 600u);
}

TEST(SimulationTest, EveryRepeatsUntilFalse)
{
    sim::Simulation s;
    int count = 0;
    s.every(10, [&] {
        ++count;
        return count < 5;
    });
    s.runUntil(1000);
    EXPECT_EQ(count, 5);
}

TEST(SimulationTest, EveryPeriodIsExact)
{
    sim::Simulation s;
    std::vector<sim::SimTime> fires;
    s.every(250, [&] {
        fires.push_back(s.now());
        return fires.size() < 4;
    });
    s.runToCompletion();
    EXPECT_EQ(fires,
              (std::vector<sim::SimTime>{250, 500, 750, 1000}));
}

TEST(SimulationTest, EveryDestroysItsStateOnceWhenDone)
{
    sim::Simulation s;
    auto token = std::make_shared<int>(0);
    int calls = 0;
    s.every(10, [token, &calls] { return ++calls < 3; });
    // One copy, in the registration record; none per pending period.
    EXPECT_EQ(token.use_count(), 2);
    s.runUntil(25);
    EXPECT_EQ(token.use_count(), 2);
    s.runUntil(1000);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_TRUE(s.events().empty());
}

TEST(SimulationTest, EveryStateDiesWithTheSimulation)
{
    auto token = std::make_shared<int>(0);
    {
        sim::Simulation s;
        s.every(10, [token] { return true; });
        s.runUntil(100);
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulationTest, EveryRearmsAfterItsFunctionReturns)
{
    // The next period takes its sequence number after fn() returns: an
    // event fn() schedules for the same instant runs first.
    sim::Simulation s;
    std::vector<std::string> order;
    s.every(10, [&] {
        order.push_back("tick");
        if (order.size() == 1)
            s.after(10, [&] { order.push_back("inner"); });
        return order.size() < 4;
    });
    s.runToCompletion();
    EXPECT_EQ(order, (std::vector<std::string>{"tick", "inner", "tick",
                                               "tick"}));
}

TEST(SimulationTest, DispatchedForwardsTheQueueCount)
{
    sim::Simulation s;
    s.every(10, [] { return true; });
    const auto id = s.after(15, [] {});
    s.events().cancel(id);
    s.runUntil(100);
    EXPECT_EQ(s.dispatched(), 10u);
    EXPECT_EQ(s.dispatched(), s.events().dispatched());
}

namespace
{

/** A sim::Periodic owner: logs the time of each call, then runs
 *  @p hook from inside the call. */
struct Ticker {
    explicit Ticker(sim::Simulation &simulation)
        : sim(simulation), timer(simulation, *this, 10)
    {}

    void
    tick()
    {
        calls.push_back(sim.now());
        if (hook)
            hook();
    }

    sim::Simulation &sim;
    std::vector<sim::SimTime> calls;
    std::function<void()> hook;
    sim::Periodic<Ticker, &Ticker::tick> timer;
};

} // namespace

TEST(PeriodicTest, StopInsideTheCallEndsIt)
{
    sim::Simulation s;
    Ticker ticker(s);
    ticker.hook = [&] {
        if (ticker.calls.size() == 2)
            ticker.timer.stop();
    };
    ticker.timer.start();
    s.runUntil(100);
    EXPECT_EQ(ticker.calls, (std::vector<sim::SimTime>{10, 20}));
    EXPECT_FALSE(ticker.timer.running());
    EXPECT_TRUE(s.events().empty());
}

TEST(PeriodicTest, StartAfterStopRestartsThePeriod)
{
    sim::Simulation s;
    Ticker ticker(s);
    ticker.timer.start();
    s.runUntil(15);
    ticker.timer.stop();
    s.runUntil(17);
    ticker.timer.start();
    s.runUntil(40);
    // One full period after the restart, not on the old 10/20/30.
    EXPECT_EQ(ticker.calls, (std::vector<sim::SimTime>{10, 27, 37}));
}

TEST(PeriodicTest, DestroyingARunningTimerCancelsIt)
{
    sim::Simulation s;
    {
        Ticker ticker(s);
        ticker.timer.start();
        s.runUntil(15);
        EXPECT_EQ(s.events().size(), 1u);
    }
    EXPECT_TRUE(s.events().empty());
    const auto dispatched = s.dispatched();
    s.runUntil(100);
    EXPECT_EQ(s.dispatched(), dispatched);
}

TEST(PeriodicTest, StartWhileRunningSchedulesNothing)
{
    sim::Simulation s;
    Ticker ticker(s);
    ticker.timer.start();
    ticker.timer.start();
    EXPECT_EQ(s.events().size(), 1u);
    s.runUntil(10);
    ticker.timer.start();
    EXPECT_EQ(s.events().size(), 1u);
    EXPECT_EQ(ticker.calls, (std::vector<sim::SimTime>{10}));
}

TEST(PeriodicTest, RearmsAfterTheCallReturns)
{
    // The next period takes its sequence number after the call
    // returns: an event the call schedules for the same instant runs
    // first (SimulationTest.EveryRearmsAfterItsFunctionReturns pins
    // the same rule for every()).
    sim::Simulation s;
    Ticker ticker(s);
    std::vector<std::string> order;
    ticker.hook = [&] {
        order.push_back("tick");
        if (order.size() == 1)
            s.after(10, [&] { order.push_back("inner"); });
        if (ticker.calls.size() == 3)
            ticker.timer.stop();
    };
    ticker.timer.start();
    s.runToCompletion();
    EXPECT_EQ(order, (std::vector<std::string>{"tick", "inner", "tick",
                                               "tick"}));
}
