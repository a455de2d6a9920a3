#include "host/fault_injector.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "backend/swap_backend.hpp"
#include "backend/zswap.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace tmo::host
{

namespace
{

constexpr double MIB = 1024.0 * 1024.0;

std::uint64_t
mib(double value)
{
    return static_cast<std::uint64_t>(std::max(0.0, value) * MIB);
}

} // namespace

backend::BackendStatus
hostBackendStatus(Host &machine)
{
    auto status = machine.swap().status();
    for (const backend::ZswapPool *pool : machine.zswapPools())
        status = backend::worseStatus(status, pool->status());
    // Chains fold in their offline tiers.
    for (const tier::TierChain *chain : machine.chains())
        status = backend::worseStatus(status, chain->status());
    return status;
}

std::uint64_t
hostDegradationEvents(Host &machine)
{
    std::uint64_t events =
        machine.swap().storeErrors() + machine.swap().loadErrors();
    for (const backend::ZswapPool *pool : machine.zswapPools())
        events += pool->rejectedPages();
    return events;
}

FaultInjector::FaultInjector(Host &machine, FaultPlan plan)
    : host_(&machine), plan_(std::move(plan))
{}

void
FaultInjector::arm()
{
    if (armed_)
        return;
    armed_ = true;
    auto &sim = host_->simulation();
    for (const auto &event : plan_.events) {
        const sim::SimTime at = std::max(event.at, sim.now());
        sim.at(at, [this, event] { apply(event); });
    }
}

void
FaultInjector::resume(Host &rebuilt)
{
    host_ = &rebuilt;
    auto &sim = host_->simulation();
    for (const auto &event : plan_.events)
        if (event.at > sim.now())
            sim.at(event.at, [this, event] { apply(event); });
}

void
FaultInjector::apply(const FaultEvent &event)
{
    ++injected_;
    ++perKind_[static_cast<std::size_t>(event.kind)];

    auto &sim = host_->simulation();
    if (auto *ring = host_->trace()) {
        // SSD_ONLINE / TIER_ONLINE are the plan events that undo a
        // fault.
        const auto type = event.kind == FaultKind::SSD_ONLINE ||
                                  event.kind == FaultKind::TIER_ONLINE
                              ? obs::TraceEventType::FAULT_RECOVER
                              : obs::TraceEventType::FAULT_INJECT;
        ring->record(sim.now(), type,
                     static_cast<std::uint8_t>(event.kind), 0,
                     {event.arg});
    }
    switch (event.kind) {
      case FaultKind::SSD_LATENCY:
        host_->ssd().injectLatencyMultiplier(std::max(1.0, event.arg));
        break;
      case FaultKind::SSD_WEAR:
        host_->ssd().injectWearFraction(std::max(0.0, event.arg));
        break;
      case FaultKind::SSD_WRITE_ERROR:
        host_->ssd().setWriteErrorRate(
            std::clamp(event.arg, 0.0, 1.0));
        break;
      case FaultKind::SSD_OFFLINE:
        host_->ssd().setOffline(true);
        break;
      case FaultKind::SSD_ONLINE:
        host_->ssd().setOffline(false);
        host_->ssd().injectLatencyMultiplier(1.0);
        host_->ssd().setWriteErrorRate(0.0);
        break;
      // The zswap kinds reach every pool the host built: the shared
      // pool and the dedicated pools of capped chain tokens alike.
      case FaultKind::ZSWAP_CAP:
        for (backend::ZswapPool *pool : host_->zswapPools())
            pool->setMaxPoolBytes(mib(event.arg));
        break;
      case FaultKind::ZSWAP_STALL:
        for (backend::ZswapPool *pool : host_->zswapPools())
            pool->setStallUs(std::max(0.0, event.arg));
        break;
      case FaultKind::SWAP_EXHAUST: {
        auto &swap = host_->swap();
        const double fraction = std::clamp(event.arg, 0.0, 1.0);
        const auto shrunk = static_cast<std::uint64_t>(
            fraction * static_cast<double>(swap.capacityBytes()));
        swap.setCapacityBytes(std::max<std::uint64_t>(shrunk, 4096));
        break;
      }
      case FaultKind::CONTROLLER_CRASH:
        if (host_->controllerFactory()) {
            // With a rebuild recipe installed the crash destroys the
            // daemon object and the host's watchdog re-creates it
            // from the factory once the outage elapses (self-healing
            // path; the watchdog records CONTROLLER start itself).
            host_->crashController(
                sim::fromSeconds(std::max(0.0, event.arg)));
            break;
        }
        [[fallthrough]];
      case FaultKind::CONTROLLER_STALL: {
        core::Controller *controller = host_->controller();
        if (!controller)
            break;
        controller->stop();
        // A stall (or a factory-less crash) silences the control loop
        // but keeps the object; the restart models systemd bringing
        // the daemon back after `arg` seconds.
        const auto outage =
            sim::fromSeconds(std::max(0.0, event.arg));
        const auto kind = event.kind;
        sim.after(outage, [this, kind] {
            if (auto *c = host_->controller()) {
                if (auto *ring = host_->trace())
                    ring->record(host_->simulation().now(),
                                 obs::TraceEventType::FAULT_RECOVER,
                                 static_cast<std::uint8_t>(kind), 0);
                c->start();
            }
        });
        break;
      }
      case FaultKind::RAM_SHRINK: {
        const std::uint64_t cap = host_->memory().ramCapacity();
        const std::uint64_t loss = mib(event.arg);
        host_->memory().setRamBytes(cap > loss ? cap - loss : 0);
        break;
      }
      case FaultKind::TIER_OFFLINE:
      case FaultKind::TIER_ONLINE: {
        // Applied to every chain on the host: the plan names a tier
        // position, not a specific container's chain. The timestamped
        // overload engages evacuation (offline) and the gradual
        // readmission ramp (online).
        const auto index =
            static_cast<std::size_t>(std::max(0.0, event.arg));
        const bool offline = event.kind == FaultKind::TIER_OFFLINE;
        for (tier::TierChain *chain : host_->chains())
            if (index < chain->size())
                chain->setTierOffline(index, offline, sim.now());
        break;
      }
      case FaultKind::HOST_CRASH:
        // Thrown out of the shard's event loop: the fleet engine
        // catches it, quarantines the shard, and — with a
        // RestartPolicy — rebuilds the host at a later epoch
        // boundary. The FAULT_INJECT trace record above is the last
        // event of this life; the rebuilt host's events follow it in
        // the same ring.
        throw std::runtime_error("host-crash fault injected");
    }
}

core::StatsRow
FaultInjector::statsRow() const
{
    core::StatsRow rows;
    rows.emplace_back("faults injected", std::to_string(injected_));
    rows.emplace_back("backend status",
                      backend::backendStatusName(
                          hostBackendStatus(*host_)));
    rows.emplace_back("degradation events",
                      std::to_string(hostDegradationEvents(*host_)));
    return rows;
}

} // namespace tmo::host
