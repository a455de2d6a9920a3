/**
 * @file
 * A simulated server.
 *
 * A Host assembles the substrate: DRAM + memory manager, one NVMe SSD
 * shared by the filesystem and the swap partition, a zswap pool, a
 * cgroup tree with machine-wide PSI, and the workloads running in
 * containers. Periodic host services (PSI averaging, kswapd) are
 * scheduled on the shared simulation.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/filesystem.hpp"
#include "backend/nvm.hpp"
#include "backend/ssd.hpp"
#include "backend/swap_backend.hpp"
#include "backend/zswap.hpp"
#include "cgroup/cgroup.hpp"
#include "core/controller.hpp"
#include "mem/memory_manager.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/cpu_coordinator.hpp"
#include "sim/simulation.hpp"
#include "tier/tier_chain.hpp"
#include "tier/tier_spec.hpp"
#include "workload/app_model.hpp"
#include "workload/app_profile.hpp"

namespace tmo::host
{

class Host;

/**
 * Builds one host's controller once the host (and its containers)
 * exist. May return nullptr for "no controller". Doubles as the
 * controller watchdog's rebuild recipe after a crash fault.
 */
using ControllerFactory =
    std::function<std::unique_ptr<core::Controller>(Host &)>;

/** Host hardware/software configuration. */
struct HostConfig {
    mem::MemoryConfig mem;
    unsigned cpus = 16;
    /** SSD device class A-G (Fig. 5). */
    char ssdClass = 'C';
    /** NVM device preset ("optane" or "cxl-dram"). */
    std::string nvmPreset = "optane";
    /** Swap partition size (0: size it like RAM). */
    std::uint64_t swapBytes = 0;
    backend::ZswapConfig zswap;
    std::uint64_t seed = 42;
    /** Workload tick length. */
    sim::SimTime appTick = sim::SEC;
};

/** One simulated server. */
class Host
{
  public:
    Host(sim::Simulation &simulation, HostConfig config,
         std::string name = "host");

    Host(const Host &) = delete;
    Host &operator=(const Host &) = delete;

    /** Begin periodic host services (PSI averaging, kswapd). */
    void start();

    /** Create a container under @p parent (default: root). */
    cgroup::Cgroup &createContainer(const std::string &name,
                                    cgroup::Cgroup *parent = nullptr);

    /**
     * Create a container running the given workload on a tier chain
     * ("zswap", "ssd", "zswap:256mb+ssd", ...). Hotness placement
     * comes with budgeted background promotion/demotion;
     * "zswap+ssd;placement=workingset" is the §5.2 two-tier hierarchy
     * with no background movement. An empty spec means no anon
     * offloading (file-only reclaim, TMO's first deployment, §5.1).
     *
     * @param profile Workload description.
     * @param tiers Ordered tier chain, fastest first.
     * @param parent Parent container.
     */
    workload::AppModel &addApp(const workload::AppProfile &profile,
                               const tier::TierChainSpec &tiers,
                               cgroup::Cgroup *parent = nullptr);

    /** Switch a container onto a tier chain (Fig. 11 phase changes).
     *  Pages offloaded under the old configuration stay in their
     *  backend until faulted back. */
    void setTiers(cgroup::Cgroup &cg, const tier::TierChainSpec &tiers);

    /**
     * Give the host its userspace controller (replaces any previous
     * one, stopping it first). Accepts nullptr for "no controller".
     */
    core::Controller *setController(
        std::unique_ptr<core::Controller> controller);

    /** The host's controller, or nullptr. */
    core::Controller *controller() { return controller_.get(); }

    /**
     * Remember how to rebuild the controller (normally the same
     * factory that built it). With a factory installed,
     * crashController() destroys the controller object and a watchdog
     * re-creates it from the recipe once the outage elapses —
     * mid-run self-healing instead of resurrecting dead state.
     */
    void
    setControllerFactory(ControllerFactory factory)
    {
        controllerFactory_ = std::move(factory);
    }

    const ControllerFactory &controllerFactory() const
    {
        return controllerFactory_;
    }

    /**
     * Crash the controller daemon: stop it, destroy the object, and
     * (when a factory is installed) let the watchdog rebuild and
     * re-attach it no earlier than @p restart_delay from now. The
     * watchdog tick is armed lazily on the first crash, so fault-free
     * event queues are untouched. Without a factory the controller is
     * simply gone — quarantine-only behaviour.
     */
    void crashController(sim::SimTime restart_delay);

    /** Controllers rebuilt by the watchdog so far. */
    std::uint64_t controllerRestarts() const
    {
        return controllerRestarts_;
    }

    // --- observability ---------------------------------------------------

    /**
     * Allocate a trace ring of roughly @p capacity_bytes and wire it
     * into every instrumented component: per-cgroup PSI trackers, the
     * memory manager's reclaim passes, all four offload backends, and
     * the controller (present or installed later). Idempotent; the
     * ring records on the host's own sim-clock, so merged fleet traces
     * are identical for serial and parallel runs.
     */
    obs::TraceRing &enableTracing(std::size_t capacity_bytes);

    /**
     * Create the metric registry + sampler and start sampling every
     * @p interval. Host-level probes (free memory, root PSI, SSD
     * endurance) and controller probes are registered here; the first
     * sample lands one interval after the call. Idempotent.
     */
    obs::MetricRegistry &enableMetrics(sim::SimTime interval);

    /** The trace ring, or nullptr when tracing is off. */
    obs::TraceRing *trace() { return trace_.get(); }

    /** The metric registry, or nullptr when metrics are off. */
    obs::MetricRegistry *metrics() { return metrics_.get(); }

    /** The metric sampler, or nullptr when metrics are off. */
    obs::MetricSampler *sampler() { return sampler_.get(); }

    // --- components -----------------------------------------------------

    sim::Simulation &simulation() { return sim_; }
    cgroup::CgroupTree &cgroups() { return tree_; }
    mem::MemoryManager &memory() { return mm_; }
    backend::SsdDevice &ssd() { return ssd_; }
    backend::ZswapPool &zswap() { return zswap_; }
    backend::NvmBackend &nvm() { return nvm_; }
    sched::CpuCoordinator &cpuCoordinator() { return cpu_; }
    backend::SwapBackend &swap() { return swap_; }
    backend::FilesystemBackend &filesystem() { return fs_; }

    /** Every tier chain this host built (fault injection, reports). */
    std::vector<tier::TierChain *> chains() const;

    const std::string &name() const { return name_; }
    const HostConfig &config() const { return config_; }
    const std::vector<std::unique_ptr<workload::AppModel>> &apps() const
    {
        return apps_;
    }

  private:
    /**
     * Materialize a chain spec against this host's backends: plain
     * "zswap"/"ssd"/"nvm" tiers use the shared host singletons (so
     * fault injection and machine.zswap()-style introspection keep
     * working), capped zswap tiers get a dedicated pool owned by the
     * host. A WORKINGSET spec gets a zero movement budget.
     */
    tier::TierChain *buildChain(const tier::TierChainSpec &spec);

    /** Schedule periodic tierMaintain for @p cg (once per cgroup,
     *  only for chains with a movement budget). */
    void scheduleTierMaintenance(cgroup::Cgroup &cg,
                                 tier::TierChain *chain);

    /** One watchdog tick: rebuild a crashed controller via the
     *  factory once its restart time has been reached. */
    void watchdogTick();

    sim::Simulation &sim_;
    HostConfig config_;
    std::string name_;
    cgroup::CgroupTree tree_;
    backend::SsdDevice ssd_;
    backend::SwapBackend swap_;
    backend::FilesystemBackend fs_;
    backend::ZswapPool zswap_;
    backend::NvmBackend nvm_;
    sched::CpuCoordinator cpu_;
    mem::MemoryManager mm_;
    // The trace ring and metrics must be declared before (and so
    // destroyed after) the controller: Senpai's destructor stops the
    // control loop, which records a final CONTROLLER event.
    std::unique_ptr<obs::TraceRing> trace_;
    std::unique_ptr<obs::MetricRegistry> metrics_;
    std::unique_ptr<obs::MetricSampler> sampler_;
    std::vector<std::unique_ptr<workload::AppModel>> apps_;
    /** Page table entries reserved for the apps' footprints so far. */
    std::uint64_t reservedPages_ = 0;
    std::unique_ptr<core::Controller> controller_;
    /** Dedicated tier backends (capped zswap pools) built for chain
     *  specs; host singletons cover the uncapped tiers. */
    std::vector<std::unique_ptr<backend::OffloadBackend>> tierBackends_;
    /** Chains built by buildChain(), one per addApp/setTiers call. */
    std::vector<std::unique_ptr<tier::TierChain>> chains_;
    /** Cgroups with a maintenance tick already scheduled. */
    std::vector<const cgroup::Cgroup *> maintScheduled_;
    /** Controller rebuild recipe (see setControllerFactory). */
    ControllerFactory controllerFactory_;
    /** Earliest time the watchdog may rebuild a crashed controller. */
    sim::SimTime controllerRestartAt_ = 0;
    /** The watchdog tick is scheduled (armed on the first crash). */
    bool watchdogArmed_ = false;
    std::uint64_t controllerRestarts_ = 0;
    bool started_ = false;
};

} // namespace tmo::host
