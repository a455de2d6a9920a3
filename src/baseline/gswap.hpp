/**
 * @file
 * g-swap baseline: static target promotion-rate control.
 *
 * Reimplements the control policy of Google's zswap deployment
 * (Lagar-Cavilla et al., ASPLOS '19) as the paper describes it (§1,
 * §4.3): offline application profiling produces a target page-
 * promotion (swap-in) rate; at runtime the controller offloads cold
 * memory as long as the observed promotion rate stays below the
 * target, and backs off above it. The metric is device-agnostic by
 * construction — the flaw §4.3 demonstrates.
 */

#pragma once

#include <cstdint>

#include "cgroup/cgroup.hpp"
#include "core/controller.hpp"
#include "mem/memory_manager.hpp"
#include "sim/periodic.hpp"

namespace tmo::baseline
{

/** g-swap controller tuning. The control period is
 *  core::CONTROL_INTERVAL. */
struct GswapConfig {
    /** Offline-profiled target promotion rate, swap-ins per second. */
    double targetPromotionsPerSec = 20.0;
    /** Reclaim step as a fraction of current memory per interval. */
    double stepRatio = 0.002;
};

/**
 * Promotion-rate-driven offload controller (one per container).
 * Contrast with core::Senpai, which replaces the static rate target
 * with realtime PSI feedback.
 */
class GswapController final : public core::Controller
{
  public:
    GswapController(sim::Simulation &simulation,
                    mem::MemoryManager &mm, cgroup::Cgroup &cg,
                    GswapConfig config = {});

    void start() override;
    void stop() override { timer_.stop(); }
    bool running() const override { return timer_.running(); }

    std::string name() const override { return "gswap"; }

    /** Target and last observed promotion rate. */
    core::StatsRow statsRow() const override;

    const GswapConfig &config() const { return config_; }

  private:
    void tick();

    sim::Simulation &sim_;
    mem::MemoryManager &mm_;
    cgroup::Cgroup *cg_;
    GswapConfig config_;
    sim::Periodic<GswapController, &GswapController::tick> timer_;
    std::uint64_t lastSwapins_ = 0;
    /** Promotion rate observed at the last tick, swap-ins/s. The
     *  history is the cgroup's pswpin counter. */
    double lastRate_ = 0.0;
};

} // namespace tmo::baseline
