#include "baseline/gswap.hpp"

#include <algorithm>

#include "stats/table.hpp"

namespace tmo::baseline
{

GswapController::GswapController(sim::Simulation &simulation,
                                 mem::MemoryManager &mm,
                                 cgroup::Cgroup &cg, GswapConfig config)
    : sim_(simulation), mm_(mm), cg_(&cg), config_(config)
{}

GswapController::~GswapController()
{
    stop();
}

void
GswapController::start()
{
    if (running_)
        return;
    running_ = true;
    lastTick_ = sim_.now();
    lastSwapins_ = cg_->stats().pswpin;
    event_ = sim_.after(config_.interval, [this] { tick(); });
}

void
GswapController::stop()
{
    if (!running_)
        return;
    running_ = false;
    sim_.events().cancel(event_);
    event_ = sim::INVALID_EVENT;
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
    const sim::SimTime now = sim_.now();
    const double window_s = sim::toSeconds(now - lastTick_);
    lastTick_ = now;

    const std::uint64_t swapins = cg_->stats().pswpin;
    const double rate =
        window_s > 0.0
            ? static_cast<double>(swapins - lastSwapins_) / window_s
            : 0.0;
    lastSwapins_ = swapins;
    lastRate_ = rate;

    // The static policy: keep offloading while promotions stay below
    // the profiled target, hands off above it. No notion of device
    // speed or actual application impact.
    if (rate < config_.targetPromotionsPerSec) {
        const auto bytes = static_cast<std::uint64_t>(
            config_.stepRatio * static_cast<double>(cg_->memCurrent()));
        if (bytes >= mm_.pageBytes())
            cg_->memoryReclaim(bytes, now);
    }

    if (running_)
        event_ = sim_.after(config_.interval, [this] { tick(); });
}

} // namespace tmo::baseline
