#include "sim/simulation.hpp"

#include <utility>

namespace tmo::sim
{

void
Simulation::every(SimTime period, std::function<bool()> fn)
{
    periodics_.push_back(Periodic{period, std::move(fn)});
    arm(std::prev(periodics_.end()));
}

void
Simulation::arm(PeriodicIt it)
{
    // Two words: stored inline by EventFn, so a period allocates
    // nothing. The next period takes its sequence number after fn()
    // returns, as a fresh after() from inside fn() would have.
    after(it->period, [this, it] {
        if (it->fn())
            arm(it);
        else
            periodics_.erase(it);
    });
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
