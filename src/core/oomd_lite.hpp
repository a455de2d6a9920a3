/**
 * @file
 * Minimal userspace OOM killer driven by full-memory PSI (§3.2.4).
 *
 * "Long before the kernel's OOM killer triggers, applications can be
 * functionally out of memory"; userspace watchers monitor the `full`
 * metric and apply kill policies. This models the open-sourced oomd's
 * core loop: if a container's full-memory stall within a sliding
 * window exceeds a threshold, invoke its kill action. The window is a
 * psi::PsiTrigger on the container's PSI group.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cgroup/cgroup.hpp"
#include "psi/psi.hpp"
#include "sim/periodic.hpp"

namespace tmo::obs
{
class TraceRing;
}

namespace tmo::core
{

/** oomd tuning. */
struct OomdConfig {
    /** full-memory stall fraction that triggers a kill. */
    double fullThreshold = 0.20;
    /** Sliding window length. */
    sim::SimTime window = 10 * sim::SEC;
    /** Poll cadence. */
    sim::SimTime pollInterval = 2 * sim::SEC;
};

/** PSI-driven userspace OOM watcher. */
class OomdLite
{
  public:
    OomdLite(sim::Simulation &simulation, OomdConfig config = {});

    OomdLite(const OomdLite &) = delete;
    OomdLite &operator=(const OomdLite &) = delete;

    /**
     * Watch a container; @p kill_fn runs when the policy trips (at
     * most once per container until re-armed by the caller).
     */
    void watch(cgroup::Cgroup &cg, std::function<void()> kill_fn);

    /** Begin polling. */
    void start() { timer_.start(); }

    /** Stop polling. */
    void stop() { timer_.stop(); }

    /** Number of kill actions taken. */
    std::uint64_t kills() const { return kills_; }

    /** Record an OOMD_KILL event per fired watch into @p ring;
     *  nullptr detaches. */
    void setTrace(obs::TraceRing *ring) { trace_ = ring; }

  private:
    struct Watch {
        cgroup::Cgroup *cg;
        std::function<void()> killFn;
        /** One full-memory trigger over the window. */
        psi::PsiTriggerSet trigger;
        /** A trigger fires once per window, a watch once. */
        bool fired = false;
    };

    void poll();

    /** The trigger of watch @p index saw @p stall in its window. */
    void kill(std::size_t index, sim::SimTime stall);

    sim::Simulation &sim_;
    OomdConfig config_;
    std::vector<Watch> watches_;
    obs::TraceRing *trace_ = nullptr;
    std::uint64_t kills_ = 0;
    sim::Periodic<OomdLite, &OomdLite::poll> timer_;
};

} // namespace tmo::core
