#include "host/host.hpp"

#include <cstdlib>

namespace tmo::host
{

namespace
{

/** Sync the zswap pool's fault-amplification with the page size. */
backend::ZswapConfig
zswapConfigFor(const HostConfig &config)
{
    backend::ZswapConfig zconfig = config.zswap;
    zconfig.simulatedPageBytes = config.mem.pageBytes;
    return zconfig;
}

} // namespace

Host::Host(sim::Simulation &simulation, HostConfig config,
           std::string name)
    : sim_(simulation), config_(config), name_(std::move(name)),
      ssd_(backend::ssdSpecForClass(config.ssdClass), config.seed ^ 0x55),
      swap_(ssd_, config.swapBytes ? config.swapBytes
                                   : config.mem.ramBytes),
      fs_(ssd_),
      zswap_(zswapConfigFor(config), config.seed ^ 0xaa),
      nvm_([&] {
          auto spec = backend::nvmSpecPreset(config.nvmPreset);
          spec.simulatedPageBytes = config.mem.pageBytes;
          return spec;
      }(), config.seed ^ 0x77),
      cpu_(config.cpus, config.appTick),
      mm_(config.mem, config.seed ^ 0x33)
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
    trace_ = std::make_unique<obs::TraceRing>(capacity_bytes);
    obs::TraceRing *ring = trace_.get();
    mm_.setTrace(ring);
    swap_.setTrace(ring, obs::TRACK_SWAP_SSD);
    zswap_.setTrace(ring, obs::TRACK_ZSWAP);
    nvm_.setTrace(ring, obs::TRACK_NVM);
    fs_.setTrace(ring, obs::TRACK_FILESYSTEM);
    // Dedicated tier pools (capped zswap) built before tracing was on.
    for (const auto &be : tierBackends_)
        be->setTrace(ring, obs::TRACK_ZSWAP);
    for (const auto &cg : tree_.all())
        cg->psi().setTrace(ring,
                           static_cast<std::uint16_t>(cg->id()));
    if (controller_)
        controller_->setTrace(ring);
    return *trace_;
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
        controller_->registerMetrics(*metrics_);
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
                auto zconfig = zswapConfigFor(config_);
                zconfig.maxPoolBytes = tspec.capBytes;
                auto pool = std::make_unique<backend::ZswapPool>(
                    zconfig,
                    config_.seed ^ 0xaa ^ ((i + 1) * 0x5bd1u));
                if (trace_)
                    pool->setTrace(trace_.get(), obs::TRACK_ZSWAP);
                tiers.push_back(pool.get());
                tierBackends_.push_back(std::move(pool));
            }
            break;
          case tier::TierKind::SSD:
            tiers.push_back(&swap_);
            break;
          case tier::TierKind::NVM:
            tiers.push_back(&nvm_);
            break;
        }
    }
    tier::TierChainConfig chain_config;
    chain_config.placement = spec.placement;
    if (spec.placement == tier::TierPlacement::WORKINGSET)
        chain_config.moveBudgetBytes = 0; // no background events
    chains_.push_back(std::make_unique<tier::TierChain>(
        spec.toString(), std::move(tiers), chain_config, spec.tiers));
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

void
Host::scheduleTierMaintenance(cgroup::Cgroup &cg,
                              tier::TierChain *chain)
{
    if (!chain || chain->config().moveBudgetBytes == 0 ||
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
    if (controller_)
        controller_->stop();
    controller_ = std::move(controller);
    if (controller_) {
        if (trace_)
            controller_->setTrace(trace_.get());
        if (metrics_)
            controller_->registerMetrics(*metrics_);
    }
    return controller_.get();
}

void
Host::crashController(sim::SimTime restart_delay)
{
    if (!controller_)
        return;
    // The crash kills the daemon process: stop and destroy the
    // object. Distinct from CONTROLLER_STALL, which suspends the same
    // object and resumes it with its state intact.
    controller_->stop();
    controller_.reset();
    controllerRestartAt_ = sim_.now() + restart_delay;
    if (controllerFactory_ && !watchdogArmed_) {
        // Armed lazily on the first crash: fault-free runs keep an
        // event queue byte-identical to pre-watchdog builds.
        watchdogArmed_ = true;
        sim_.every(sim::SEC, [this] {
            watchdogTick();
            return true;
        });
    }
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
