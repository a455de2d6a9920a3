#include "core/slo_controller.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "stats/table.hpp"

namespace tmo::core
{

const char *
sloStateName(SloState state)
{
    switch (state) {
      case SloState::STEADY:
        return "steady";
      case SloState::CAUTION:
        return "caution";
      case SloState::VIOLATION:
        return "violation";
    }
    return "?";
}

SloSenpai::SloSenpai(sim::Simulation &simulation,
                     mem::MemoryManager &mm, cgroup::Cgroup &cg,
                     SenpaiConfig senpai_config, SloConfig slo,
                     LatencyProbe probe)
    : senpai_(simulation, mm, cg, senpai_config),
      cgName_(cg.name()), base_(senpai_config), slo_(slo),
      probe_(std::move(probe)), timer_(simulation, *this, CONTROL_INTERVAL)
{
}

double
SloSenpai::reclaimScale() const
{
    switch (state_) {
      case SloState::VIOLATION:
        return 0.0;
      case SloState::CAUTION:
        return SLO_CAUTION_SCALE;
      case SloState::STEADY:
        return 1.0;
    }
    return 1.0;
}

void
SloSenpai::applyScale()
{
    const double scale = reclaimScale();
    SenpaiConfig config = base_;
    config.reclaimRatio *= scale;
    config.maxProbeRatio *= scale;
    senpai_.setConfig(config);
}

void
SloSenpai::tick()
{
    lastP99Us_ = probe_ ? probe_() : -1.0;
    if (lastP99Us_ >= 0.0) {
        if (lastP99Us_ > slo_.p99TargetUs) {
            // Escalate immediately: suspending reclaim lets refaults
            // pull the working set back while the surge lasts.
            if (state_ != SloState::VIOLATION)
                ++escalations_;
            state_ = SloState::VIOLATION;
            healthyStreak_ = 0;
        } else if (lastP99Us_ > SLO_CAUTION_FRACTION * slo_.p99TargetUs) {
            if (state_ == SloState::STEADY)
                state_ = SloState::CAUTION;
            healthyStreak_ = 0;
        } else if (lastP99Us_ <= SLO_CLEAR_FRACTION * slo_.p99TargetUs) {
            // De-escalate one level only after a sustained run of
            // healthy intervals: oscillation around the target must
            // not whipsaw the reclaim step.
            if (++healthyStreak_ >= SLO_CLEAR_INTERVALS &&
                state_ != SloState::STEADY) {
                state_ = state_ == SloState::VIOLATION
                             ? SloState::CAUTION
                             : SloState::STEADY;
                healthyStreak_ = 0;
            }
        } else {
            // Between clear and caution: hold state, reset streak.
            healthyStreak_ = 0;
        }
    } else if (state_ != SloState::STEADY) {
        // No signal (idle app / no serving): latency cannot be
        // violating an SLO nobody is measuring; relax gradually.
        if (++healthyStreak_ >= SLO_CLEAR_INTERVALS) {
            state_ = state_ == SloState::VIOLATION ? SloState::CAUTION
                                                   : SloState::STEADY;
            healthyStreak_ = 0;
        }
    }
    if (state_ == SloState::VIOLATION)
        ++violationIntervals_;
    applyScale();
}

void
SloSenpai::start()
{
    if (timer_.running())
        return;
    // The SLO tick is scheduled before the inner Senpai's, so at a
    // shared deadline the scaled config is in place before Senpai
    // computes its reclaim step.
    timer_.start();
    senpai_.start();
}

void
SloSenpai::stop()
{
    if (!timer_.running())
        return;
    timer_.stop();
    senpai_.stop();
}

void
SloSenpai::setTrace(obs::TraceRing *ring)
{
    senpai_.setTrace(ring);
}

void
SloSenpai::registerMetrics(obs::MetricRegistry &registry)
{
    senpai_.registerMetrics(registry);
    const std::string prefix = "slo." + cgName_ + ".";
    registry.addProbe(prefix + "p99_us", [this] { return lastP99Us_; });
    registry.addProbe(prefix + "state", [this] {
        return static_cast<double>(state_);
    });
    registry.addProbe(prefix + "reclaim_scale",
                   [this] { return reclaimScale(); });
    registry.addProbe(prefix + "escalations", [this] {
        return static_cast<double>(escalations_);
    });
}

StatsRow
SloSenpai::statsRow() const
{
    StatsRow rows = senpai_.statsRow();
    const std::string label = "slo[" + cgName_ + "]";
    rows.push_back({label + " target p99 us",
                    std::to_string(slo_.p99TargetUs)});
    rows.push_back({label + " state", sloStateName(state_)});
    rows.push_back(
        {label + " escalations", std::to_string(escalations_)});
    rows.push_back({label + " violation intervals",
                    std::to_string(violationIntervals_)});
    return rows;
}

} // namespace tmo::core
