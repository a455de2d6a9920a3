#include "core/tmo_daemon.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/table.hpp"

namespace tmo::core
{

TmoDaemon::TmoDaemon(sim::Simulation &simulation,
                     mem::MemoryManager &mm, SenpaiConfig base)
    : sim_(simulation), mm_(mm), base_(base),
      health_(simulation, *this, CONTROL_INTERVAL)
{}

SenpaiConfig
TmoDaemon::configFor(const cgroup::Cgroup &cg) const
{
    SenpaiConfig config = base_;
    switch (cg.priority()) {
      case cgroup::Priority::LOW:
        // Tax and batch containers tolerate more pressure (§2.3:
        // "the performance SLA for most of the memory tax is more
        // relaxed"), so probe harder.
        config.psiThreshold *= 2.0;
        config.ioPsiThreshold *= 2.0;
        config.reclaimRatio *= 4.0;
        break;
      case cgroup::Priority::NORMAL:
        break;
      case cgroup::Priority::HIGH:
        config.psiThreshold *= 0.5;
        config.reclaimRatio *= 0.5;
        break;
    }
    return config;
}

Senpai &
TmoDaemon::manage(cgroup::Cgroup &cg)
{
    senpais_.push_back(
        std::make_unique<Senpai>(sim_, mm_, cg, configFor(cg)));
    senpais_.back()->setTrace(trace_);
    return *senpais_.back();
}

void
TmoDaemon::setTrace(obs::TraceRing *ring)
{
    trace_ = ring;
    for (auto &s : senpais_)
        s->setTrace(ring);
    if (oomd_)
        oomd_->setTrace(ring);
}

void
TmoDaemon::registerMetrics(obs::MetricRegistry &registry)
{
    for (auto &s : senpais_)
        s->registerMetrics(registry);
    registry.addProbe("tmo.escalations", [this] {
        return static_cast<double>(escalations());
    });
}

void
TmoDaemon::start()
{
    for (auto &s : senpais_)
        s->start();
    health_.start();
}

void
TmoDaemon::stop()
{
    for (auto &s : senpais_)
        s->stop();
    health_.stop();
    if (oomd_)
        oomd_->stop();
}

backend::BackendStatus
TmoDaemon::worstBackendStatus() const
{
    auto status = backend::BackendStatus::HEALTHY;
    for (const auto &s : senpais_)
        status = backend::worseStatus(status, s->backendStatus());
    return status;
}

void
TmoDaemon::healthTick()
{
    if (worstBackendStatus() != backend::BackendStatus::HEALTHY) {
        if (!oomd_) {
            oomd_ = std::make_unique<OomdLite>(sim_);
            oomd_->setTrace(trace_);
            for (auto &s : senpais_) {
                cgroup::Cgroup *cg = &s->cgroup();
                oomd_->watch(*cg, [this, cg] {
                    // Functional OOM under a degraded backend: shed
                    // half the container's memory (the simulator's
                    // stand-in for a workload restart).
                    cg->memoryReclaim(cg->memCurrent() / 2,
                                      sim_.now());
                });
            }
        }
        if (trace_ && !oomdArmed_)
            trace_->record(sim_.now(), obs::TraceEventType::CONTROLLER,
                           2, 0);
        oomdArmed_ = true;
        oomd_->start();
    } else if (oomd_) {
        if (trace_ && oomdArmed_)
            trace_->record(sim_.now(), obs::TraceEventType::CONTROLLER,
                           3, 0);
        oomdArmed_ = false;
        oomd_->stop();
    }
}

bool
TmoDaemon::running() const
{
    for (const auto &s : senpais_)
        if (s->running())
            return true;
    return false;
}

StatsRow
TmoDaemon::statsRow() const
{
    std::uint64_t requested = 0;
    for (const auto &s : senpais_)
        requested += s->totalRequested();
    return {
        {"tmo managed containers", std::to_string(senpais_.size())},
        {"tmo requested reclaim",
         stats::fmtBytes(static_cast<double>(requested))},
    };
}

} // namespace tmo::core
