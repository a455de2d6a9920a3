#include "core/workingset_profiler.hpp"

#include <algorithm>

#include "mem/memory_manager.hpp"
#include "psi/psi.hpp"

namespace tmo::core
{

WorkingsetProfiler::WorkingsetProfiler(sim::Simulation &simulation,
                                       cgroup::Cgroup &cg,
                                       double pressure_threshold,
                                       sim::SimTime sample_interval)
    : sim_(simulation), cg_(&cg), threshold_(pressure_threshold),
      timer_(simulation, *this, sample_interval)
{}

void
WorkingsetProfiler::start()
{
    if (timer_.running())
        return;
    lastSome_ = cg_->psi().totalSome(psi::Resource::MEM, sim_.now());
    timer_.start();
}

void
WorkingsetProfiler::sample()
{
    const auto now = sim_.now();
    const auto some = cg_->psi().totalSome(psi::Resource::MEM, now);
    // The timer calls one period after start() or the last sample.
    const auto window = timer_.period();
    const double pressure =
        window ? static_cast<double>(some - lastSome_) /
                     static_cast<double>(window)
               : 0.0;
    lastSome_ = some;

    resident_.record(now, static_cast<double>(cg_->memCurrent()));
    pressure_.record(now, pressure);
    if (mm_)
        cold_.record(now, mm_->idleBreakdown(*cg_, now).cold);
}

WorkingsetEstimate
WorkingsetProfiler::estimate() const
{
    WorkingsetEstimate estimate;
    estimate.samples = resident_.size();
    double min_healthy = 0.0;
    for (std::size_t i = 0; i < resident_.size(); ++i) {
        const double bytes = resident_.samples()[i].value;
        estimate.peakBytes = std::max(
            estimate.peakBytes, static_cast<std::uint64_t>(bytes));
        if (pressure_.samples()[i].value <= threshold_) {
            if (min_healthy == 0.0 || bytes < min_healthy)
                min_healthy = bytes;
        }
    }
    estimate.minHealthyBytes = static_cast<std::uint64_t>(min_healthy);
    estimate.recommendedBytes = static_cast<std::uint64_t>(
        min_healthy * (1.0 + WORKINGSET_SAFETY_MARGIN));
    return estimate;
}

} // namespace tmo::core
