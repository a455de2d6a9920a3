#include "core/oomd_lite.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace tmo::core
{

namespace
{

/** The least stall whose share of @p window reaches @p fraction: the
 *  trigger's test stall >= threshold then fires exactly when the
 *  floating-point stall / window >= fraction does. */
sim::SimTime
stallThreshold(double fraction, sim::SimTime window)
{
    const auto w = static_cast<double>(window);
    auto stall = static_cast<sim::SimTime>(std::max(0.0, fraction * w));
    while (stall > 0 && static_cast<double>(stall - 1) / w >= fraction)
        --stall;
    while (static_cast<double>(stall) / w < fraction)
        ++stall;
    return stall;
}

} // namespace

OomdLite::OomdLite(sim::Simulation &simulation, OomdConfig config)
    : sim_(simulation), config_(config),
      timer_(simulation, *this, config.pollInterval)
{}

void
OomdLite::watch(cgroup::Cgroup &cg, std::function<void()> kill_fn)
{
    const std::size_t index = watches_.size();
    watches_.push_back(
        Watch{&cg, std::move(kill_fn), psi::PsiTriggerSet(cg.psi())});
    watches_.back().trigger.add(
        psi::PsiTrigger{psi::Resource::MEM, true,
                        stallThreshold(config_.fullThreshold,
                                       config_.window),
                        config_.window,
                        [this, index](sim::SimTime stall) {
                            kill(index, stall);
                        }},
        sim_.now());
}

void
OomdLite::poll()
{
    for (auto &watch : watches_)
        watch.trigger.poll(sim_.now());
}

void
OomdLite::kill(std::size_t index, sim::SimTime stall)
{
    Watch &watch = watches_[index];
    if (watch.fired)
        return;
    watch.fired = true;
    ++kills_;
    if (trace_)
        trace_->record(sim_.now(), obs::TraceEventType::OOMD_KILL, 0,
                       static_cast<std::uint16_t>(watch.cg->id()),
                       {static_cast<double>(stall) /
                            static_cast<double>(config_.window),
                        static_cast<double>(watch.cg->memCurrent())});
    if (watch.killFn)
        watch.killFn();
}

} // namespace tmo::core
