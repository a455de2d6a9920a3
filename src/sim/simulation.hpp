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
    Simulation();
    ~Simulation();

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
     * it returns false or the simulation ends; it runs on a
     * sim::Periodic, so each period is scheduled after @p fn returns.
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
    /** One every() registration: its function and its timer. */
    struct Every;

    SimTime now_ = 0;
    EventQueue events_;
    /** every() registrations; a list, so the timers' pending events
     *  can point into it. A finished one is dropped by the next
     *  every(). Declared after events_: destroyed first, while its
     *  running timers can still cancel their events. */
    std::list<Every> every_;
};

} // namespace tmo::sim
