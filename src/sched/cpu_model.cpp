#include "sched/cpu_model.hpp"

#include <algorithm>

namespace tmo::sched
{

void
allocateCpu(const std::vector<sim::SimTime> &demands, unsigned cpus,
            sim::SimTime tick_length, std::vector<CpuShare> &shares)
{
    shares.assign(demands.size(), CpuShare{});
    if (demands.empty() || cpus == 0)
        return;

    sim::SimTime total = 0;
    for (const auto d : demands)
        total += std::min(d, tick_length);

    const sim::SimTime capacity =
        static_cast<sim::SimTime>(cpus) * tick_length;

    if (total <= capacity) {
        for (std::size_t i = 0; i < demands.size(); ++i)
            shares[i].run = std::min(demands[i], tick_length);
        return;
    }

    // Oversubscribed: processor sharing stretches everyone equally.
    const double scale = static_cast<double>(capacity) /
                         static_cast<double>(total);
    for (std::size_t i = 0; i < demands.size(); ++i) {
        const sim::SimTime want = std::min(demands[i], tick_length);
        const auto run = static_cast<sim::SimTime>(
            static_cast<double>(want) * scale);
        shares[i].run = run;
        // The unmet remainder is time spent waiting on the runqueue,
        // bounded by the tick.
        shares[i].wait = std::min(want - run, tick_length - run);
    }
}

} // namespace tmo::sched
