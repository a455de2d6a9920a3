/**
 * @file
 * SLO-aware reclaim control: Senpai modulated by tail latency.
 *
 * Stock Senpai regulates on pressure alone, and PSI is a trailing,
 * host-centric signal: during a traffic surge the controller keeps
 * probing until stalls show up in PSI averages, by which time p99
 * completion latency may already be past the service's SLO. SloSenpai
 * wraps a stock Senpai instance and adds the signal the paper's load
 * tests actually grade on (§4.2-§4.4): recent p99 request latency
 * from the workload's serving histogram.
 *
 * A three-state machine converts latency headroom into a reclaim
 * scale applied to the inner Senpai's step knobs each interval:
 *
 *   STEADY     p99 well under target      full reclaim step
 *   CAUTION    p99 near target            step scaled down (0.25x)
 *   VIOLATION  p99 over target            reclaim suspended
 *
 * Escalation is immediate; de-escalation needs several consecutive
 * healthy intervals (hysteresis), so a surge that oscillates around
 * the target does not whipsaw the reclaim step. The probe is an
 * injected std::function so core stays below the workload layer.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/senpai.hpp"

namespace tmo::core
{

/** Enter CAUTION above this fraction of the target. */
inline constexpr double SLO_CAUTION_FRACTION = 0.85;
/** An interval only counts as healthy below this fraction. */
inline constexpr double SLO_CLEAR_FRACTION = 0.70;
/** Healthy intervals required to de-escalate one state. */
inline constexpr unsigned SLO_CLEAR_INTERVALS = 3;
/** Reclaim-step scale while in CAUTION. */
inline constexpr double SLO_CAUTION_SCALE = 0.25;

/** SLO control knobs. The state machine re-evaluates every
 *  CONTROL_INTERVAL, Senpai's period, so every control tick sees a
 *  fresh reading. */
struct SloConfig {
    /** The p99 completion-latency target (µs). */
    double p99TargetUs = 2000.0;
};

/** Latency-headroom states, escalating order. */
enum class SloState { STEADY, CAUTION, VIOLATION };

const char *sloStateName(SloState state);

/**
 * A stock Senpai wrapped in the latency state machine. Registered as
 * controller "senpai-slo"; behaves exactly like its inner Senpai
 * while the probe reports no samples (apps without request serving).
 */
class SloSenpai final : public Controller
{
  public:
    /** Recent p99 latency in µs; negative = no samples (no signal). */
    using LatencyProbe = std::function<double()>;

    SloSenpai(sim::Simulation &simulation, mem::MemoryManager &mm,
              cgroup::Cgroup &cg, SenpaiConfig senpai_config,
              SloConfig slo, LatencyProbe probe);

    void start() override;
    void stop() override;
    bool running() const override { return timer_.running(); }
    std::string name() const override { return "senpai-slo"; }
    StatsRow statsRow() const override;
    void setTrace(obs::TraceRing *ring) override;
    void registerMetrics(obs::MetricRegistry &registry) override;

    // --- telemetry -------------------------------------------------------

    SloState state() const { return state_; }
    /** STEADY/CAUTION -> VIOLATION transitions so far. */
    std::uint64_t escalations() const { return escalations_; }
    /** Intervals spent in VIOLATION. */
    std::uint64_t violationIntervals() const
    {
        return violationIntervals_;
    }
    /** Last probe reading (µs; negative = no signal). */
    double lastP99Us() const { return lastP99Us_; }
    /** Reclaim scale currently applied to the inner Senpai. */
    double reclaimScale() const;

    Senpai &inner() { return senpai_; }

  private:
    void tick();
    void applyScale();

    Senpai senpai_;
    /** Controlled cgroup's name (labels; statsRow is const). */
    std::string cgName_;
    /** The inner Senpai's unscaled knobs. */
    SenpaiConfig base_;
    SloConfig slo_;
    LatencyProbe probe_;
    sim::Periodic<SloSenpai, &SloSenpai::tick> timer_;

    SloState state_ = SloState::STEADY;
    unsigned healthyStreak_ = 0;
    double lastP99Us_ = -1.0;
    std::uint64_t escalations_ = 0;
    std::uint64_t violationIntervals_ = 0;
};

} // namespace tmo::core
