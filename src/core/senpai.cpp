#include "core/senpai.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/table.hpp"
#include "tier/tier_chain.hpp"

namespace tmo::core
{

SenpaiConfig
senpaiProductionConfig()
{
    return SenpaiConfig{};
}

SenpaiConfig
senpaiAggressiveConfig()
{
    SenpaiConfig config;
    // Config "B" (§4.4): a much larger step and 10x pressure
    // tolerance. Saves more memory, risks RPS via file-cache refaults.
    config.reclaimRatio = 0.005;
    config.psiThreshold = 0.01;
    config.ioPsiThreshold = 0.05;
    return config;
}

Senpai::Senpai(sim::Simulation &simulation, mem::MemoryManager &mm,
               cgroup::Cgroup &cg, SenpaiConfig config)
    : sim_(simulation), mm_(mm), cg_(&cg), config_(config),
      regulator_(config.writeBudgetBytesPerSec),
      timer_(simulation, *this, CONTROL_INTERVAL)
{}

void
Senpai::start()
{
    if (timer_.running())
        return;
    lastTick_ = sim_.now();
    lastMemSome_ = cg_->psi().totalSome(psi::Resource::MEM, sim_.now());
    lastIoSome_ = cg_->psi().totalSome(psi::Resource::IO, sim_.now());
    timer_.start();
    if (trace_)
        trace_->record(sim_.now(), obs::TraceEventType::CONTROLLER, 0,
                       static_cast<std::uint16_t>(cg_->id()));
}

void
Senpai::stop()
{
    if (!timer_.running())
        return;
    timer_.stop();
    if (trace_)
        trace_->record(sim_.now(), obs::TraceEventType::CONTROLLER, 1,
                       static_cast<std::uint16_t>(cg_->id()));
}

void
Senpai::registerMetrics(obs::MetricRegistry &registry)
{
    const std::string prefix = "senpai." + cg_->name() + ".";
    registry.addProbe(prefix + "pressure",
                      [this] { return lastPressure_; });
    registry.addProbe(prefix + "reclaim_bytes",
                      [this] { return lastStep_; });
    registry.addProbe(prefix + "total_requested", [this] {
        return static_cast<double>(totalRequested_);
    });
    registry.addProbe(prefix + "mem_current", [this] {
        return static_cast<double>(cg_->memCurrent());
    });
}

backend::BackendStatus
Senpai::backendStatus() const
{
    // The chain's aggregate status: its worst impairment, FAILED only
    // when every tier is out. A file-only cgroup has nothing to fail.
    const auto &mcg = mm_.memcgOf(*cg_);
    return mcg.anonChain ? mcg.anonChain->status()
                         : backend::BackendStatus::HEALTHY;
}

StatsRow
Senpai::statsRow() const
{
    StatsRow rows = {
        {"senpai[" + cg_->name() + "] requested",
         stats::fmtBytes(static_cast<double>(totalRequested_))},
        {"senpai[" + cg_->name() + "] last pressure",
         stats::fmtPercent(lastPressure_, 4)},
    };
    if (degradedTicks_ > 0)
        rows.push_back({"senpai[" + cg_->name() + "] degraded ticks",
                        std::to_string(degradedTicks_)});
    return rows;
}

void
Senpai::tick()
{
    const sim::SimTime now = sim_.now();
    const sim::SimTime window = now - lastTick_;
    lastTick_ = now;

    // Pressure reading per the configured source: the interval delta
    // of the PSI totals (microsecond resolution, §3.2.4) or the 60 s
    // running average.
    const sim::SimTime mem_some =
        cg_->psi().totalSome(psi::Resource::MEM, now);
    const sim::SimTime io_some =
        cg_->psi().totalSome(psi::Resource::IO, now);
    double mem_pressure = 0.0, io_pressure = 0.0;
    switch (config_.source) {
      case PressureSource::INTERVAL:
        if (window) {
            mem_pressure =
                static_cast<double>(mem_some - lastMemSome_) /
                static_cast<double>(window);
            io_pressure =
                static_cast<double>(io_some - lastIoSome_) /
                static_cast<double>(window);
            lastMemSome_ = mem_some;
            lastIoSome_ = io_some;
        }
        // A zero-length window (two ticks at the same sim time, e.g.
        // a stalled controller resumed by a fault plan) must keep the
        // old baseline: advancing it here would silently drop any
        // stall accrued since the last real reading from the next
        // pressure computation.
        break;
      case PressureSource::AVG60:
        mem_pressure = cg_->psi().some(psi::Resource::MEM).avg60;
        io_pressure = cg_->psi().some(psi::Resource::IO).avg60;
        lastMemSome_ = mem_some;
        lastIoSome_ = io_some;
        break;
    }

    lastPressure_ = mem_pressure;

    const auto current = static_cast<double>(cg_->memCurrent());

    // reclaim_mem = current * ratio * max(0, 1 - PSI / threshold)
    double reclaim =
        current * config_.reclaimRatio *
        std::max(0.0, 1.0 - mem_pressure / config_.psiThreshold);
    const double base_step = reclaim;

    // Memory PSI alone can miss workloads hurt indirectly through the
    // storage device (§3.3): back off under IO pressure.
    const bool io_guarded = io_pressure > config_.ioPsiThreshold;
    if (io_guarded)
        reclaim = 0.0;
    const double after_io_guard = reclaim;

    // SSD endurance regulation (§4.5). The budget is re-read every
    // tick so regulation can be deployed to a running controller.
    regulator_.setBudget(config_.writeBudgetBytesPerSec);
    if (regulator_.enabled()) {
        const double written_total =
            mm_.memcgOf(*cg_).swapoutBytes.total();
        reclaim = regulator_.modulate(
            reclaim, written_total - lastSwapoutTotal_, window);
        lastSwapoutTotal_ = written_total;
    } else {
        lastSwapoutTotal_ = mm_.memcgOf(*cg_).swapoutBytes.total();
    }
    const double after_write_reg = reclaim;

    // Swap exhaustion: past the high watermark anon can no longer be
    // offloaded; keep probing file cache only by halving the step.
    auto &mcg = mm_.memcgOf(*cg_);
    const bool swap_high =
        mcg.anonChain &&
        mcg.anonChain->utilization() > SWAP_HIGH_WATERMARK;
    if (swap_high)
        reclaim *= 0.5;
    const double after_watermark = reclaim;

    // Graceful degradation (§4): when the backend reports itself
    // DEGRADED or FAILED, back off the probe. A FAILED backend also
    // switches the kernel-side reclaimer to file-only (see
    // mem/reclaim.cpp), so the halved step keeps probing the file
    // cache rather than spinning on rejected swap-outs.
    const bool degraded =
        backendStatus() != backend::BackendStatus::HEALTHY;
    if (degraded) {
        reclaim *= 0.5;
        ++degradedTicks_;
    }
    const double after_degrade = reclaim;

    // Step cap: at most maxProbeRatio of the workload per interval.
    reclaim = std::min(reclaim, current * config_.maxProbeRatio);

    const auto bytes = static_cast<std::uint64_t>(reclaim);
    lastStep_ = static_cast<double>(bytes);

    if (trace_) {
        const std::uint8_t guards =
            static_cast<std::uint8_t>((io_guarded ? 1u : 0u) |
                                      (swap_high ? 2u : 0u) |
                                      (degraded ? 4u : 0u));
        trace_->record(now, obs::TraceEventType::SENPAI_TICK, guards,
                       static_cast<std::uint16_t>(cg_->id()),
                       {mem_pressure, io_pressure, base_step,
                        after_io_guard, after_write_reg,
                        after_watermark, after_degrade,
                        static_cast<double>(bytes)});
    }

    if (bytes >= mm_.pageBytes()) {
        totalRequested_ += bytes;
        cg_->memoryReclaim(bytes, now);
    }
}

} // namespace tmo::core
