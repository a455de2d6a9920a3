/**
 * @file
 * Value-type fleet configuration: HostBuilder and FleetSpec.
 *
 * The old way to stand up a fleet was ad-hoc HostConfig plumbing plus
 * hand-written loops wiring apps and controllers per host. The
 * redesigned layer is declarative:
 *
 *   auto fleet = FleetSpec{}
 *                    .hosts(64)
 *                    .ram_mb(2048)
 *                    .workload("feed")
 *                    .controller("senpai")
 *                    .build();
 *   fleet.start();
 *   fleet.run(sim::HOUR, 8);
 *
 * HostBuilder describes ONE host (hardware, containers, controller);
 * FleetSpec stamps N hosts from a prototype builder with an optional
 * per-index customize() hook for heterogeneous fleets. Fluent setters
 * are snake_case to read like the flags they mirror.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cgroup/cgroup.hpp"
#include "core/controller.hpp"
#include "host/host.hpp"
#include "sim/time.hpp"
#include "workload/app_profile.hpp"

namespace tmo::host
{

class Fleet;

// ControllerFactory lives in host/host.hpp (included above): the
// Host's controller watchdog uses the same recipe the builder does.

/**
 * How the fleet rebuilds a host whose event loop threw (HOST_CRASH
 * faults, workload bugs). Disabled by default (maxAttempts = 0):
 * a failed host then stays quarantined forever, the pre-self-healing
 * behaviour. Restarts happen only at epoch barriers, on the main
 * thread, in shard-index order — so recovery is bit-identical for any
 * `--jobs N`.
 */
struct RestartPolicy {
    /** Rebuild attempts per host; 0 disables restarts. */
    unsigned maxAttempts = 0;
    /** Wait after a failure before the first rebuild (sim-time). */
    sim::SimTime backoff = 30 * sim::SEC;
    /** Backoff growth per consecutive failure of the same host. */
    double multiplier = 2.0;
    /** Backoff ceiling; 0 = uncapped. */
    sim::SimTime maxBackoff = 10 * sim::MINUTE;
};

/** Declarative description of one container on a host. */
struct AppSpec {
    workload::AppProfile profile;
    cgroup::Priority priority = cgroup::Priority::NORMAL;
    /** Tier chain for anon pages. */
    tier::TierChainSpec tiers;
    /** True when the spec should take the builder's default chain
     *  (set via tiers()), resolved at build time so fluent order does
     *  not matter. */
    bool useDefaultTiers = false;
};

/** Fluent description of a single host. */
class HostBuilder
{
  public:
    // --- hardware --------------------------------------------------------

    /** Replace the whole hardware config wholesale. */
    HostBuilder &
    config(const HostConfig &config)
    {
        config_ = config;
        return *this;
    }

    HostBuilder &
    ram_mb(std::uint64_t mb)
    {
        config_.mem.ramBytes = mb << 20;
        return *this;
    }

    HostBuilder &
    page_kb(std::uint64_t kb)
    {
        // pageBytes is 32-bit; a silent wrap here (e.g. page_kb(1 <<
        // 22)) used to yield pageBytes == 0 and divide-by-zero deep
        // in the page-count math. Reject instead.
        if (kb == 0 || kb >= (std::uint64_t{1} << 22))
            throw std::invalid_argument(
                "page_kb: page size must be in [1, 4194303] KiB, got "
                + std::to_string(kb));
        config_.mem.pageBytes = static_cast<std::uint32_t>(kb << 10);
        return *this;
    }

    HostBuilder &
    cpus(unsigned n)
    {
        config_.cpus = n;
        return *this;
    }

    HostBuilder &
    ssd_class(char cls)
    {
        config_.ssdClass = cls;
        return *this;
    }

    HostBuilder &
    nvm_preset(std::string preset)
    {
        config_.nvmPreset = std::move(preset);
        return *this;
    }

    HostBuilder &
    swap_bytes(std::uint64_t bytes)
    {
        config_.swapBytes = bytes;
        return *this;
    }

    HostBuilder &
    seed(std::uint64_t seed)
    {
        config_.seed = seed;
        return *this;
    }

    HostBuilder &
    app_tick(sim::SimTime tick)
    {
        config_.appTick = tick;
        return *this;
    }

    HostBuilder &
    name(std::string name)
    {
        name_ = std::move(name);
        return *this;
    }

    // --- containers ------------------------------------------------------

    /** Default tier chain for workload()-declared apps [zswap]
     *  (e.g. "zswap:256mb+ssd"; "none" disables anon offloading). */
    HostBuilder &
    tiers(const tier::TierChainSpec &spec)
    {
        defaultTiers_ = spec;
        return *this;
    }

    /** tiers() from a spec string. Throws std::invalid_argument with
     *  a named error on a malformed spec. */
    HostBuilder &
    tiers(const std::string &spec)
    {
        return tiers(tier::TierChainSpec::parse(spec));
    }

    /**
     * Add an app or sidecar preset by name (the tmo_sim vocabulary).
     * Throws std::invalid_argument for an unknown preset.
     */
    HostBuilder &workload(const std::string &preset,
                          std::uint64_t footprint_mb = 1024);

    /**
     * Request-level serving: every declared app with offered load
     * gets this traffic curve at build time (open-loop Poisson
     * arrivals + per-request latency instead of the closed-form RPS
     * model). Background services (offeredRps = 0) are left alone.
     */
    HostBuilder &
    traffic(const workload::TrafficSpec &spec)
    {
        traffic_ = spec;
        return *this;
    }

    /** traffic() from a spec string such as
     *  "diurnal:rps=2000,amp=0.6,period-min=60". Throws
     *  std::invalid_argument with a named error when malformed. */
    HostBuilder &
    traffic(const std::string &spec)
    {
        return traffic(workload::TrafficSpec::parse(spec));
    }

    /** Add a fully specified container on a tier chain. */
    HostBuilder &
    app(workload::AppProfile profile, const tier::TierChainSpec &tiers,
        cgroup::Priority priority = cgroup::Priority::NORMAL)
    {
        AppSpec spec;
        spec.profile = std::move(profile);
        spec.priority = priority;
        spec.tiers = tiers;
        apps_.push_back(std::move(spec));
        return *this;
    }

    // --- control plane ---------------------------------------------------

    /** Attach a controller built per host once its containers exist. */
    HostBuilder &
    controller(ControllerFactory factory)
    {
        controller_ = std::move(factory);
        return *this;
    }

    /**
     * Attach a registry controller by name
     * (none|senpai|senpai-aggressive|tmo|gswap). Throws
     * std::invalid_argument for an unknown name.
     */
    HostBuilder &controller(const std::string &name);

    // --- introspection (used by Fleet::addHost) --------------------------

    const HostConfig &hostConfig() const { return config_; }
    const std::string &hostName() const { return name_; }
    const ControllerFactory &controllerFactory() const
    {
        return controller_;
    }

    /** The declared containers with default chains resolved. */
    std::vector<AppSpec> resolvedApps() const;

  private:
    HostConfig config_{};
    std::string name_;
    tier::TierChainSpec defaultTiers_ = tier::TierChainSpec::parse("zswap");
    /** Applied to every request-serving app in resolvedApps(). */
    workload::TrafficSpec traffic_;
    std::vector<AppSpec> apps_;
    ControllerFactory controller_;
};

/** Stamp N hosts out of a prototype HostBuilder. */
class FleetSpec
{
  public:
    FleetSpec &
    hosts(std::size_t n)
    {
        hosts_ = n;
        return *this;
    }

    /** Lockstep barrier period for Fleet::run. */
    FleetSpec &
    epoch(sim::SimTime epoch)
    {
        epoch_ = epoch;
        return *this;
    }

    /** Host names become prefix0, prefix1, ... */
    FleetSpec &
    name_prefix(std::string prefix)
    {
        prefix_ = std::move(prefix);
        return *this;
    }

    /** Per-index tweak of the stamped builder (heterogeneous fleets). */
    FleetSpec &
    customize(std::function<void(std::size_t, HostBuilder &)> fn)
    {
        customize_ = std::move(fn);
        return *this;
    }

    /** Host restart policy for the built fleet (default: disabled). */
    FleetSpec &
    restart(const RestartPolicy &policy)
    {
        restart_ = policy;
        return *this;
    }

    /** Direct access to the prototype host description. */
    HostBuilder &prototype() { return proto_; }
    const HostBuilder &prototype() const { return proto_; }

    // --- prototype forwarders, so one chain describes the fleet ----------

    // clang-format off
    FleetSpec &config(const HostConfig &c) { proto_.config(c); return *this; }
    FleetSpec &ram_mb(std::uint64_t mb) { proto_.ram_mb(mb); return *this; }
    FleetSpec &page_kb(std::uint64_t kb) { proto_.page_kb(kb); return *this; }
    FleetSpec &cpus(unsigned n) { proto_.cpus(n); return *this; }
    FleetSpec &ssd_class(char cls) { proto_.ssd_class(cls); return *this; }
    FleetSpec &nvm_preset(std::string p) { proto_.nvm_preset(std::move(p)); return *this; }
    FleetSpec &swap_bytes(std::uint64_t b) { proto_.swap_bytes(b); return *this; }
    FleetSpec &seed(std::uint64_t s) { proto_.seed(s); return *this; }
    FleetSpec &app_tick(sim::SimTime t) { proto_.app_tick(t); return *this; }
    FleetSpec &tiers(const tier::TierChainSpec &spec) { proto_.tiers(spec); return *this; }
    FleetSpec &tiers(const std::string &spec) { proto_.tiers(spec); return *this; }
    FleetSpec &workload(const std::string &preset, std::uint64_t footprint_mb = 1024) { proto_.workload(preset, footprint_mb); return *this; }
    FleetSpec &traffic(const workload::TrafficSpec &spec) { proto_.traffic(spec); return *this; }
    FleetSpec &traffic(const std::string &spec) { proto_.traffic(spec); return *this; }
    FleetSpec &app(workload::AppProfile profile, const tier::TierChainSpec &t, cgroup::Priority priority = cgroup::Priority::NORMAL) { proto_.app(std::move(profile), t, priority); return *this; }
    FleetSpec &controller(ControllerFactory factory) { proto_.controller(std::move(factory)); return *this; }
    FleetSpec &controller(const std::string &name) { proto_.controller(name); return *this; }
    // clang-format on

    std::size_t hostCount() const { return hosts_; }
    sim::SimTime epochLength() const { return epoch_; }
    const std::string &namePrefix() const { return prefix_; }
    const RestartPolicy &restartPolicy() const { return restart_; }
    const std::function<void(std::size_t, HostBuilder &)> &
    customizer() const
    {
        return customize_;
    }

    /** Materialize the fleet (hosts, containers, controllers). */
    Fleet build() const;

  private:
    std::size_t hosts_ = 1;
    sim::SimTime epoch_ = sim::MINUTE;
    std::string prefix_ = "host";
    HostBuilder proto_;
    std::function<void(std::size_t, HostBuilder &)> customize_;
    RestartPolicy restart_;
};

} // namespace tmo::host
