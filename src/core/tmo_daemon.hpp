/**
 * @file
 * TMO daemon: fleet-style orchestration of Senpai across containers.
 *
 * TMO offloads memory holistically: application containers AND the
 * sidecar containers providing datacenter/microservice functions
 * (§2.3). Containers carry priorities; the daemon derives a per-
 * container Senpai configuration from a base config — relaxed for
 * low-priority tax containers (more savings), milder for high-priority
 * latency-sensitive services.
 */

#pragma once

#include <memory>
#include <vector>

#include "cgroup/cgroup.hpp"
#include "core/controller.hpp"
#include "core/oomd_lite.hpp"
#include "core/senpai.hpp"
#include "mem/memory_manager.hpp"
#include "sim/periodic.hpp"

namespace tmo::core
{

/** Manages one Senpai instance per controlled container. */
class TmoDaemon final : public Controller
{
  public:
    /**
     * @param simulation Event loop.
     * @param mm Host memory manager.
     * @param base Base Senpai configuration (priority-scaled per
     *        container).
     */
    TmoDaemon(sim::Simulation &simulation, mem::MemoryManager &mm,
              SenpaiConfig base = senpaiProductionConfig());

    /**
     * Put a container under management. The effective config scales
     * with the container's priority:
     *  - LOW (tax/batch): 2x pressure tolerance, 4x step;
     *  - NORMAL: base config;
     *  - HIGH: half threshold, half step.
     */
    Senpai &manage(cgroup::Cgroup &cg);

    // --- Controller interface --------------------------------------------

    /** Start every managed Senpai, then the health check. */
    void start() override;

    /** Stop every managed Senpai, the health check and oomd. */
    void stop() override;

    /** True while any managed Senpai is running. */
    bool running() const override;

    std::string name() const override { return "tmo"; }

    /** Managed-container count plus aggregate requested reclaim. */
    StatsRow statsRow() const override;

    /** Forward tracing to every managed Senpai (present and future)
     *  and the oomd escalation path; CONTROLLER events record oomd
     *  arming (code 2) and disarming (code 3). */
    void setTrace(obs::TraceRing *ring) override;

    /** Register probes for every managed Senpai plus escalations. */
    void registerMetrics(obs::MetricRegistry &registry) override;

    const std::vector<std::unique_ptr<Senpai>> &senpais() const
    {
        return senpais_;
    }

    /** Derive the priority-scaled config for a container. */
    SenpaiConfig configFor(const cgroup::Cgroup &cg) const;

    /** Worst backend status across managed containers. */
    backend::BackendStatus worstBackendStatus() const;

    /** Emergency reclaims performed by the oomd escalation path. */
    std::uint64_t escalations() const
    {
        return oomd_ ? oomd_->kills() : 0;
    }

  private:
    /**
     * Periodic health check, every CONTROL_INTERVAL: while any managed
     * container's backend is degraded or failed, an OomdLite watcher
     * is armed over the managed containers — if pressure then
     * persists at functional-OOM levels, it emergency-shrinks the
     * container (§3.2.4 escalation). Inert in fault-free runs.
     */
    void healthTick();

    sim::Simulation &sim_;
    mem::MemoryManager &mm_;
    SenpaiConfig base_;
    std::vector<std::unique_ptr<Senpai>> senpais_;
    std::unique_ptr<OomdLite> oomd_;
    obs::TraceRing *trace_ = nullptr;
    bool oomdArmed_ = false;
    sim::Periodic<TmoDaemon, &TmoDaemon::healthTick> health_;
};

} // namespace tmo::core
