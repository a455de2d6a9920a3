#include "sim/simulation.hpp"

#include <utility>

#include "sim/periodic.hpp"

namespace tmo::sim
{

struct Simulation::Every {
    Every(Simulation &simulation, SimTime period,
          std::function<bool()> function)
        : fn(std::move(function)), timer(simulation, *this, period)
    {}

    /** Run fn; once it returns false, destroy it and stop. */
    void
    fire()
    {
        if (fn())
            return;
        fn = nullptr;
        timer.stop();
    }

    std::function<bool()> fn;
    Periodic<Every, &Every::fire> timer;
};

Simulation::Simulation() = default;

Simulation::~Simulation() = default;

void
Simulation::every(SimTime period, std::function<bool()> fn)
{
    // A registration cannot erase itself from inside its own call:
    // the finished ones are dropped here, outside their calls.
    every_.remove_if([](const Every &e) { return !e.timer.running(); });
    every_.emplace_back(*this, period, std::move(fn)).timer.start();
}

void
Simulation::runUntil(SimTime deadline)
{
    // Advance the clock before running each event so callbacks observe
    // their own firing time through now().
    while (!events_.empty() && events_.nextTime() <= deadline) {
        now_ = events_.nextTime();
        events_.runNext();
    }
    now_ = deadline;
}

void
Simulation::runToCompletion()
{
    while (!events_.empty()) {
        now_ = events_.nextTime();
        events_.runNext();
    }
}

} // namespace tmo::sim
