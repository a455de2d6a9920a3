#include "baseline/gswap.hpp"

#include <algorithm>

#include "stats/table.hpp"

namespace tmo::baseline
{

GswapController::GswapController(sim::Simulation &simulation,
                                 mem::MemoryManager &mm,
                                 cgroup::Cgroup &cg, GswapConfig config)
    : sim_(simulation), mm_(mm), cg_(&cg), config_(config),
      timer_(simulation, *this, core::CONTROL_INTERVAL)
{}

void
GswapController::start()
{
    if (timer_.running())
        return;
    lastSwapins_ = cg_->stats().pswpin;
    timer_.start();
}

core::StatsRow
GswapController::statsRow() const
{
    return {
        {"gswap[" + cg_->name() + "] target promotions/s",
         stats::fmt(config_.targetPromotionsPerSec, 1)},
        {"gswap[" + cg_->name() + "] last promotions/s",
         stats::fmt(lastRate_, 1)},
    };
}

void
GswapController::tick()
{
    // The timer calls one period after start() or the last tick.
    const std::uint64_t swapins = cg_->stats().pswpin;
    const double rate = static_cast<double>(swapins - lastSwapins_) /
                        sim::toSeconds(timer_.period());
    lastSwapins_ = swapins;
    lastRate_ = rate;

    // The static policy: keep offloading while promotions stay below
    // the profiled target, hands off above it. No notion of device
    // speed or actual application impact.
    if (rate < config_.targetPromotionsPerSec) {
        const auto bytes = static_cast<std::uint64_t>(
            config_.stepRatio * static_cast<double>(cg_->memCurrent()));
        if (bytes >= mm_.pageBytes())
            cg_->memoryReclaim(bytes, sim_.now());
    }
}

} // namespace tmo::baseline
