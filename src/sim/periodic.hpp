/**
 * @file
 * The simulator's one periodic timer.
 */

#pragma once

#include <utility>

#include "sim/simulation.hpp"

namespace tmo::sim
{

/**
 * Calls @p Call on its owner every period while started. Every
 * control loop and workload tick runs on one, and so does
 * Simulation::every.
 *
 * Sequence rule: start() schedules the first call one period from
 * now, and each next period is scheduled after the call returns. So
 * an event the call schedules for the next period's instant runs
 * before the next call, and the call may stop() the timer (or stop()
 * and start() it, restarting the period). At most one event is
 * pending, and destroying a running timer cancels it. The event holds
 * one pointer, inline in its EventFn, and calls @p Call directly.
 */
template <class Owner, void (Owner::*Call)()>
class Periodic
{
  public:
    Periodic(Simulation &simulation, Owner &owner, SimTime period)
        : sim_(simulation), owner_(owner), period_(period)
    {}

    ~Periodic() { stop(); }

    Periodic(const Periodic &) = delete;
    Periodic &operator=(const Periodic &) = delete;

    /** Nothing while running. */
    void
    start()
    {
        if (!running())
            arm();
    }

    /** Nothing while stopped. */
    void
    stop()
    {
        if (running())
            sim_.events().cancel(std::exchange(event_, INVALID_EVENT));
    }

    bool running() const { return event_ != INVALID_EVENT; }

    SimTime period() const { return period_; }

  private:
    void arm() { event_ = sim_.after(period_, [this] { fire(); }); }

    void
    fire()
    {
        // A stop() in the call clears event_, and a start() after it
        // replaces it: either way the call took over the schedule.
        const EventId fired = event_;
        (owner_.*Call)();
        if (event_ == fired)
            arm();
    }

    Simulation &sim_;
    Owner &owner_;
    SimTime period_;
    /** The pending event, INVALID_EVENT while stopped; during the
     *  call, the event that fired. */
    EventId event_ = INVALID_EVENT;
};

} // namespace tmo::sim
