/**
 * @file
 * Delivers a FaultPlan into one host.
 *
 * The injector schedules every plan event on the host's own shard
 * clock (sim::Simulation), so injection composes with the fleet
 * engine's determinism guarantee: for a given seed and plan the run is
 * bit-identical for any `--jobs N`, because a shard's event stream
 * never depends on other shards or on wall-clock. Injection is
 * one-way — faults mutate backend/device/controller state; recovery
 * happens either through explicit plan events (ssd-online) or through
 * the graceful-degradation paths the faults exercise.
 *
 * A fleet builds one injector per host whose HostBuilder carries a
 * plan (HostBuilder::faults) and keeps it across the host's rebuilds
 * (resume), so its counts span all of the host's lives. Build one
 * directly only for a lone Host.
 */

#pragma once

#include <array>
#include <cstdint>

#include "backend/backend.hpp"
#include "core/controller.hpp"
#include "host/fault_plan.hpp"
#include "host/host.hpp"

namespace tmo::host
{

/** Worst status across a host's anon offload backends: the swap
 *  partition, every zswap pool, and every tier chain (which folds in
 *  its offline tiers). */
backend::BackendStatus hostBackendStatus(Host &machine);

/** Total backend degradation events a host has absorbed: swap IO
 *  errors (store + load) plus the store rejections of every zswap
 *  pool. */
std::uint64_t hostDegradationEvents(Host &machine);

/** Schedules one FaultPlan onto one host's simulation clock. */
class FaultInjector
{
  public:
    /**
     * @param machine The target host (must outlive the injector, or
     *        hand over to its rebuild through resume()).
     * @param plan The schedule to deliver.
     */
    FaultInjector(Host &machine, FaultPlan plan);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Schedule every plan event on the host's event queue (events
     * whose time already passed fire immediately). Idempotent.
     */
    void arm();

    /**
     * Follow the host into @p rebuilt, the host that replaces it after
     * a crash, and schedule there the plan's events strictly after
     * its clock: those that fell while the host was down never fire.
     * The counts go on from the earlier lives.
     */
    void resume(Host &rebuilt);

    const FaultPlan &plan() const { return plan_; }

    /** Events injected so far. */
    std::uint64_t injected() const { return injected_; }

    /** Events injected so far of one kind. */
    std::uint64_t
    injectedOf(FaultKind kind) const
    {
        return perKind_[static_cast<std::size_t>(kind)];
    }

    /** Telemetry rows for summary tables (fault + degradation
     *  counters, current backend status). */
    core::StatsRow statsRow() const;

  private:
    void apply(const FaultEvent &event);

    Host *host_;
    FaultPlan plan_;
    bool armed_ = false;
    std::uint64_t injected_ = 0;
    std::array<std::uint64_t, NUM_FAULT_KINDS> perKind_{};
};

} // namespace tmo::host
