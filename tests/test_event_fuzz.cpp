/**
 * @file
 * Randomized stress of the event queue and simulation loop: arbitrary
 * schedule/cancel interleavings must preserve ordering, counts, and
 * never run cancelled events.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

using namespace tmo;

class EventFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(EventFuzzTest, ScheduleCancelSoup)
{
    // A model of the queue checked after every operation: size() is
    // the number of scheduled, not yet fired or cancelled events, and
    // each run fires the earliest live event by (when, schedule order).
    // Cancels pick any id ever issued, fired and cancelled ones
    // included, so stale ids meet slots that newer events now hold.
    sim::Rng rng(GetParam());
    sim::EventQueue queue;

    enum class State { PENDING, FIRED, CANCELLED };
    struct Event {
        sim::EventId id;
        sim::SimTime when;
        State state;
    };
    std::vector<Event> events; // index = schedule order
    std::vector<std::size_t> fired;
    std::size_t live = 0;

    const auto earliest_live = [&] {
        std::size_t best = events.size();
        for (std::size_t i = 0; i < events.size(); ++i)
            if (events[i].state == State::PENDING &&
                (best == events.size() ||
                 events[i].when < events[best].when))
                best = i; // ties keep the earlier schedule
        return best;
    };

    sim::SimTime now = 0;
    for (int step = 0; step < 3000; ++step) {
        const auto op = rng.uniformInt(10);
        if (op < 5) {
            // Coarse times: many events share a timestamp.
            const sim::SimTime when = now + rng.uniformInt(40);
            const std::size_t index = events.size();
            const auto id = queue.schedule(
                when, [&fired, index] { fired.push_back(index); });
            ASSERT_NE(id, sim::INVALID_EVENT);
            events.push_back({id, when, State::PENDING});
            ++live;
        } else if (op < 8 && !events.empty()) {
            Event &victim = events[rng.uniformInt(events.size())];
            queue.cancel(victim.id);
            if (victim.state == State::PENDING) {
                victim.state = State::CANCELLED;
                --live;
            }
        } else if (live > 0) {
            const std::size_t expect = earliest_live();
            ASSERT_EQ(queue.nextTime(), events[expect].when);
            const std::size_t before = fired.size();
            now = queue.runNext();
            ASSERT_EQ(fired.size(), before + 1);
            ASSERT_EQ(fired.back(), expect) << "step " << step;
            ASSERT_EQ(now, events[expect].when);
            events[expect].state = State::FIRED;
            --live;
        }
        ASSERT_EQ(queue.size(), live) << "step " << step;
        ASSERT_EQ(queue.empty(), live == 0) << "step " << step;
    }

    // Drain: every event not cancelled fires exactly once, in (when,
    // schedule order); no cancelled event fires.
    while (!queue.empty()) {
        queue.runNext();
        ASSERT_EQ(queue.size(), --live);
    }
    EXPECT_EQ(live, 0u);
    EXPECT_EQ(queue.dispatched(), fired.size());
    std::vector<std::size_t> count(events.size(), 0);
    for (const std::size_t index : fired)
        ++count[index];
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(count[i], events[i].state == State::CANCELLED ? 0u : 1u)
            << "event " << i;
    for (std::size_t k = 1; k < fired.size(); ++k) {
        const Event &a = events[fired[k - 1]];
        const Event &b = events[fired[k]];
        EXPECT_TRUE(a.when < b.when ||
                    (a.when == b.when && fired[k - 1] < fired[k]))
            << "fire " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventFuzzTest,
                         ::testing::Values(1, 17, 23456));

TEST(EventFuzzTest, CancelledNeverRuns)
{
    sim::Rng rng(99);
    sim::EventQueue queue;
    std::set<int> ran;
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 500; ++i)
        ids.push_back(queue.schedule(
            rng.uniformInt(10000), [&ran, i] { ran.insert(i); }));
    // Cancel every third event.
    std::set<int> cancelled;
    for (int i = 0; i < 500; i += 3) {
        queue.cancel(ids[static_cast<std::size_t>(i)]);
        cancelled.insert(i);
    }
    while (!queue.empty())
        queue.runNext();
    for (int i = 0; i < 500; ++i) {
        if (cancelled.count(i))
            EXPECT_FALSE(ran.count(i)) << i;
        else
            EXPECT_TRUE(ran.count(i)) << i;
    }
}

TEST(EventFuzzTest, RecursiveSchedulingFromCallbacks)
{
    // Events scheduling events (the simulator's normal mode) to a
    // depth of thousands must stay ordered.
    sim::Simulation simulation;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5000)
            simulation.after(7, chain);
    };
    simulation.after(7, chain);
    simulation.runToCompletion();
    EXPECT_EQ(count, 5000);
    EXPECT_EQ(simulation.now(), 5000u * 7u);
}
