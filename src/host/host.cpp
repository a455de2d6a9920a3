#include "host/host.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>

namespace tmo::host
{

namespace
{

/** A byte-addressable device preset at the host's page size. */
backend::NvmSpec
nvmSpecFor(const std::string &preset, const HostConfig &config)
{
    auto spec = backend::nvmSpecPreset(preset);
    spec.simulatedPageBytes = config.mem.pageBytes;
    return spec;
}

} // namespace

Host::Host(sim::Simulation &simulation, HostConfig config,
           std::string name)
    : sim_(simulation), config_(config), name_(std::move(name)),
      ssd_(backend::ssdSpecForClass(config.ssdClass), config.seed ^ 0x55),
      swap_(ssd_, config.mem.ramBytes), fs_(ssd_),
      zswap_(config.zswap, config.seed ^ 0xaa, config.mem.pageBytes),
      // The two devices share a seed; each draws its own stream.
      nvm_(nvmSpecFor("optane", config), config.seed ^ 0x77),
      cxl_(nvmSpecFor("cxl-dram", config), config.seed ^ 0x77),
      cpu_(config.cpus, config.appTick),
      mm_(config.mem, config.seed ^ 0x33),
      watchdog_(simulation, *this, sim::SEC)
{}

void
Host::start()
{
    if (started_)
        return;
    started_ = true;
    // Escape hatch for exercising the instrumented paths everywhere
    // (CI runs the whole test suite with this set).
    if (!trace_ && std::getenv("TMO_FORCE_TRACE"))
        enableTracing(1 << 20);
    // PSI averaging every 2 s (kernel cadence) and kswapd every 1 s.
    sim_.every(psi::PsiGroup::AVG_PERIOD, [this] {
        tree_.psiUpdateAverages(sim_.now());
        return true;
    });
    sim_.every(sim::SEC, [this] {
        mm_.kswapd(sim_.now());
        return true;
    });
}

cgroup::Cgroup &
Host::createContainer(const std::string &name, cgroup::Cgroup *parent)
{
    cgroup::Cgroup &cg = tree_.create(name, parent);
    if (trace_)
        cg.psi().setTrace(trace_.get(),
                          static_cast<std::uint16_t>(cg.id()));
    return cg;
}

obs::TraceRing &
Host::enableTracing(std::size_t capacity_bytes)
{
    if (trace_)
        return *trace_;
    return continueTrace(
        std::make_unique<obs::TraceRing>(capacity_bytes));
}

obs::TraceRing &
Host::continueTrace(std::unique_ptr<obs::TraceRing> earlier)
{
    trace_ = std::move(earlier);
    wireTrace(trace_.get());
    return *trace_;
}

std::unique_ptr<obs::TraceRing>
Host::takeTrace()
{
    // The ring outlives this host: its tasks would log their last PSI
    // changes into it as they are destroyed.
    wireTrace(nullptr);
    return std::move(trace_);
}

void
Host::wireTrace(obs::TraceRing *ring)
{
    mm_.setTrace(ring);
    swap_.setTrace(ring, obs::TRACK_SWAP_SSD);
    zswap_.setTrace(ring, obs::TRACK_ZSWAP);
    nvm_.setTrace(ring, obs::TRACK_NVM);
    cxl_.setTrace(ring, obs::TRACK_NVM);
    fs_.setTrace(ring, obs::TRACK_FILESYSTEM);
    // Dedicated pools of capped zswap tokens.
    for (const auto &pool : dedicatedPools_)
        pool->setTrace(ring, obs::TRACK_ZSWAP);
    for (const auto &cg : tree_.all())
        cg->psi().setTrace(ring,
                           static_cast<std::uint16_t>(cg->id()));
    if (controller_)
        controller_->setTrace(ring);
}

obs::MetricRegistry &
Host::enableMetrics(sim::SimTime interval)
{
    if (metrics_)
        return *metrics_;
    metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics_->addProbe("host.free_bytes", [this] {
        return static_cast<double>(mm_.freeBytes());
    });
    metrics_->addProbe("host.ram_used_bytes", [this] {
        return static_cast<double>(mm_.ramUsed());
    });
    metrics_->addProbe("host.psi.mem_some_avg10", [this] {
        return tree_.root().psi().some(psi::Resource::MEM).avg10;
    });
    metrics_->addProbe("host.psi.mem_full_avg10", [this] {
        return tree_.root().psi().full(psi::Resource::MEM).avg10;
    });
    metrics_->addProbe("host.psi.io_some_avg10", [this] {
        return tree_.root().psi().some(psi::Resource::IO).avg10;
    });
    metrics_->addProbe("ssd.bytes_written", [this] {
        return static_cast<double>(ssd_.bytesWritten());
    });
    metrics_->addProbe("mm.oom_events", [this] {
        return static_cast<double>(mm_.oomEvents());
    });
    metrics_->addProbe("sim.events_dispatched", [this] {
        return static_cast<double>(sim_.dispatched());
    });
    for (const auto &app : apps_) {
        cgroup::Cgroup *cg = &app->cgroup();
        const std::string prefix = "app." + cg->name() + ".";
        metrics_->addProbe(prefix + "mem_current", [cg] {
            return static_cast<double>(cg->memCurrent());
        });
        metrics_->addProbe(prefix + "pswpin", [cg] {
            return static_cast<double>(cg->stats().pswpin);
        });
        metrics_->addProbe(prefix + "ws_refault", [cg] {
            return static_cast<double>(cg->stats().wsRefault);
        });
        // Request-serving observability: registered only when the app
        // has a traffic curve, so metric output of legacy
        // (closed-form RPS) runs is unchanged.
        if (workload::AppModel *model = app.get();
            model->servingRequests()) {
            metrics_->addProbe(prefix + "req.offered", [model] {
                return static_cast<double>(model->requests().offered);
            });
            metrics_->addProbe(prefix + "req.completed", [model] {
                return static_cast<double>(
                    model->requests().completed);
            });
            metrics_->addProbe(prefix + "req.dropped", [model] {
                return static_cast<double>(model->requests().dropped);
            });
            metrics_->addProbe(prefix + "req.p50_us", [model] {
                return model->requests().latencyUs.p50();
            });
            metrics_->addProbe(prefix + "req.p99_us", [model] {
                return model->requests().latencyUs.p99();
            });
            metrics_->addProbe(prefix + "req.p999_us", [model] {
                return model->requests().latencyUs.p999();
            });
        }
        // Tier-chain observability: per-tier occupancy plus movement
        // rates and inter-tier latency. The probes read through the
        // memcg so they stay correct across setTiers() phase changes.
        const mem::MemCg *m = &mm_.memcgOf(*cg);
        if (const tier::TierChain *chain = m->anonChain) {
            for (std::size_t t = 0; t < chain->size(); ++t) {
                const std::string tp =
                    prefix + "tier." + std::to_string(t) + ".";
                metrics_->addProbe(tp + "pages", [m, t] {
                    return t < m->tierLists.size()
                               ? static_cast<double>(
                                     m->tierLists[t].size())
                               : 0.0;
                });
                metrics_->addProbe(tp + "bytes", [m, t] {
                    return t < m->tierBytes.size()
                               ? static_cast<double>(m->tierBytes[t])
                               : 0.0;
                });
            }
            metrics_->addProbe(prefix + "tier.demoted", [cg] {
                return static_cast<double>(cg->stats().tierDemote);
            });
            metrics_->addProbe(prefix + "tier.promoted", [cg] {
                return static_cast<double>(cg->stats().tierPromote);
            });
            metrics_->addProbe(prefix + "tier.demote_p50_us", [m] {
                return m->anonChain
                           ? m->anonChain->demoteLatencyUs().p50()
                           : 0.0;
            });
            metrics_->addProbe(prefix + "tier.demote_p99_us", [m] {
                return m->anonChain
                           ? m->anonChain->demoteLatencyUs().p99()
                           : 0.0;
            });
            metrics_->addProbe(prefix + "tier.promote_p50_us", [m] {
                return m->anonChain
                           ? m->anonChain->promoteLatencyUs().p50()
                           : 0.0;
            });
            metrics_->addProbe(prefix + "tier.promote_p99_us", [m] {
                return m->anonChain
                           ? m->anonChain->promoteLatencyUs().p99()
                           : 0.0;
            });
        }
    }
    if (controller_)
        registerControllerMetrics();
    sampler_ =
        std::make_unique<obs::MetricSampler>(sim_, *metrics_, interval);
    sampler_->start();
    return *metrics_;
}

tier::TierChain *
Host::buildChain(const tier::TierChainSpec &spec)
{
    if (spec.empty())
        return nullptr;
    std::vector<backend::OffloadBackend *> tiers;
    // The host keeps the new pools only once the chain accepted them.
    std::vector<std::unique_ptr<backend::ZswapPool>> pools;
    for (std::size_t i = 0; i < spec.tiers.size(); ++i) {
        const auto &tspec = spec.tiers[i];
        switch (tspec.kind) {
          case tier::TierKind::ZSWAP:
            if (tspec.capBytes == 0) {
                tiers.push_back(&zswap_);
            } else {
                // Dedicated capped pool: its own compression RNG and
                // DRAM accounting, seeded per tier position so chains
                // stay deterministic and distinct.
                auto pool = std::make_unique<backend::ZswapPool>(
                    config_.zswap,
                    config_.seed ^ 0xaa ^ ((i + 1) * 0x5bd1u),
                    config_.mem.pageBytes, tspec.capBytes);
                if (trace_)
                    pool->setTrace(trace_.get(), obs::TRACK_ZSWAP);
                tiers.push_back(pool.get());
                pools.push_back(std::move(pool));
            }
            break;
          case tier::TierKind::SSD:
            tiers.push_back(&swap_);
            break;
          case tier::TierKind::NVM:
            tiers.push_back(&nvm_);
            break;
          case tier::TierKind::CXL:
            tiers.push_back(&cxl_);
            break;
        }
    }
    chains_.push_back(std::make_unique<tier::TierChain>(
        spec.toString(), std::move(tiers), spec.placement));
    for (auto &pool : pools)
        dedicatedPools_.push_back(std::move(pool));
    return chains_.back().get();
}

std::vector<tier::TierChain *>
Host::chains() const
{
    std::vector<tier::TierChain *> chains;
    chains.reserve(chains_.size());
    for (const auto &chain : chains_)
        chains.push_back(chain.get());
    return chains;
}

std::vector<backend::ZswapPool *>
Host::zswapPools()
{
    std::vector<backend::ZswapPool *> pools;
    pools.reserve(1 + dedicatedPools_.size());
    pools.push_back(&zswap_);
    for (const auto &pool : dedicatedPools_)
        pools.push_back(pool.get());
    return pools;
}

void
Host::scheduleTierMaintenance(cgroup::Cgroup &cg,
                              tier::TierChain *chain)
{
    if (!chain || chain->placement() == tier::TierPlacement::WORKINGSET ||
        chain->size() < 2)
        return;
    for (const auto *scheduled : maintScheduled_)
        if (scheduled == &cg)
            return;
    maintScheduled_.push_back(&cg);
    sim_.every(tier::MOVE_PERIOD, [this, &cg] {
        mm_.tierMaintain(cg, sim_.now());
        return true;
    });
}

workload::AppModel &
Host::addApp(const workload::AppProfile &profile,
             const tier::TierChainSpec &tiers, cgroup::Cgroup *parent)
{
    tier::TierChain *chain = buildChain(tiers);
    cgroup::Cgroup &cg = createContainer(profile.name, parent);
    mm_.attach(cg, chain, &fs_, profile.compressibility);
    scheduleTierMaintenance(cg, chain);
    // Pre-size the page table for every app's declared footprint (plus
    // a little churn slack): steady-state growth then never
    // reallocates mid-run, which matters at millions of pages per
    // host. Apps allocate their pages only when they start, so the
    // reservations are summed here. Growing past the reservation stays
    // legal, just slower.
    reservedPages_ += profile.footprintBytes / config_.mem.pageBytes + 64;
    mm_.reservePages(reservedPages_);
    apps_.push_back(std::make_unique<workload::AppModel>(
        sim_, mm_, cg, profile, config_.cpus,
        config_.seed ^ (apps_.size() + 1) * 0x9e37u, config_.appTick,
        &cpu_));
    return *apps_.back();
}

core::Controller *
Host::setController(std::unique_ptr<core::Controller> controller)
{
    if (controller_) {
        controller_->stop();
        for (const std::string &name : controllerProbes_)
            metrics_->removeProbe(name);
        controllerProbes_.clear();
    }
    controller_ = std::move(controller);
    if (controller_) {
        if (trace_)
            controller_->setTrace(trace_.get());
        if (metrics_)
            registerControllerMetrics();
    }
    return controller_.get();
}

void
Host::registerControllerMetrics()
{
    // Controllers register names of their own (senpai.*, slo.*,
    // tmo.*), so the names new to the registry are theirs.
    const std::vector<std::string> before = metrics_->names();
    controller_->registerMetrics(*metrics_);
    const std::vector<std::string> after = metrics_->names();
    controllerProbes_.clear();
    std::set_difference(after.begin(), after.end(), before.begin(),
                        before.end(),
                        std::back_inserter(controllerProbes_));
}

void
Host::crashController(sim::SimTime restart_delay)
{
    if (!controller_)
        return;
    // The crash kills the daemon process: stop and destroy the
    // object. Distinct from CONTROLLER_STALL, which suspends the same
    // object and resumes it with its state intact.
    setController(nullptr);
    controllerRestartAt_ = sim_.now() + restart_delay;
    // Started lazily on the first crash: fault-free runs keep an
    // event queue byte-identical to pre-watchdog builds.
    if (controllerFactory_)
        watchdog_.start();
}

void
Host::watchdogTick()
{
    if (controller_ || !controllerFactory_ ||
        sim_.now() < controllerRestartAt_)
        return;
    setController(controllerFactory_(*this));
    if (controller_) {
        ++controllerRestarts_;
        controller_->start();
    }
}

void
Host::setTiers(cgroup::Cgroup &cg, const tier::TierChainSpec &tiers)
{
    tier::TierChain *chain = buildChain(tiers);
    mm_.setAnonChain(cg, chain);
    scheduleTierMaintenance(cg, chain);
}

} // namespace tmo::host
