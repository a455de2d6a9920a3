/**
 * @file
 * Top-level simulation driver: clock + event queue.
 */

#pragma once

#include <functional>
#include <list>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace tmo::sim
{

/**
 * Owns the simulated clock and the event queue and advances time by
 * draining events. Components schedule work relative to now().
 */
class Simulation
{
  public:
    Simulation() = default;

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** The underlying event queue. */
    EventQueue &events() { return events_; }

    /** Events run so far (EventQueue::dispatched()). */
    std::uint64_t dispatched() const { return events_.dispatched(); }

    /** Schedule a callback @p delay after now(). */
    EventId
    after(SimTime delay, EventFn fn)
    {
        return events_.schedule(now_ + delay, std::move(fn));
    }

    /** Schedule a callback at an absolute time (>= now()). */
    EventId
    at(SimTime when, EventFn fn)
    {
        return events_.schedule(when, std::move(fn));
    }

    /**
     * Schedule a callback every @p period, starting one period from now,
     * until it returns false. @p fn is stored once, and destroyed when
     * it returns false or the simulation ends; each period re-arms
     * after @p fn returns, with a callable that fits EventFn's inline
     * buffer.
     */
    void every(SimTime period, std::function<bool()> fn);

    /**
     * Run events until the queue is empty or the next event is past
     * @p deadline. The clock ends at exactly @p deadline.
     */
    void runUntil(SimTime deadline);

    /** Run until the event queue is drained. */
    void runToCompletion();

  private:
    /** One every() registration. */
    struct Periodic {
        SimTime period;
        std::function<bool()> fn;
    };
    using PeriodicIt = std::list<Periodic>::iterator;

    /** Schedule the next period of @p it. */
    void arm(PeriodicIt it);

    SimTime now_ = 0;
    EventQueue events_;
    /** Live every() registrations; a list, so iterators held by
     *  pending events stay valid. Declared after events_: destroyed
     *  first, while the events that point into it only hold
     *  iterators. */
    std::list<Periodic> periodics_;
};

} // namespace tmo::sim
