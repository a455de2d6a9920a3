#include "tier/tier_chain.hpp"

#include <algorithm>
#include <stdexcept>

namespace tmo::tier
{

TierChain::TierChain(std::string name,
                     std::vector<backend::OffloadBackend *> tiers,
                     TierPlacement placement)
    : name_(std::move(name)), tiers_(std::move(tiers)),
      placement_(placement), offline_(tiers_.size(), false),
      health_(tiers_.size())
{
    if (tiers_.empty())
        throw std::invalid_argument("tier chain needs at least one tier");
    for (std::size_t i = 0; i < tiers_.size(); ++i) {
        if (!tiers_[i])
            throw std::invalid_argument("tier chain tier is null");
        const int first = indexOf(tiers_[i]);
        if (first != static_cast<int>(i))
            throw std::invalid_argument(
                "bad tier chain '" + name_ + "': device '" +
                tiers_[i]->name() + "' stands at tiers " +
                std::to_string(first) + " and " + std::to_string(i) +
                "; a chain names each device at most once");
    }
}

backend::BackendStatus
TierChain::status() const
{
    // The chain fails only when no tier can take pages at all; a dead
    // middle tier degrades the chain but reclaim keeps making progress
    // through the survivors.
    bool all_failed = true;
    auto worst = backend::BackendStatus::HEALTHY;
    for (std::size_t i = 0; i < tiers_.size(); ++i) {
        const auto status = offline_[i]
                                ? backend::BackendStatus::FAILED
                                : tiers_[i]->status();
        if (status != backend::BackendStatus::FAILED)
            all_failed = false;
        worst = backend::worseStatus(worst, status);
    }
    if (all_failed)
        return backend::BackendStatus::FAILED;
    return worst == backend::BackendStatus::FAILED
               ? backend::BackendStatus::DEGRADED
               : worst;
}

double
TierChain::utilization() const
{
    double worst = 0.0;
    for (const auto *be : tiers_)
        worst = std::max(worst, be->utilization());
    return worst;
}

TierChain::StoreOutcome
TierChain::storeFrom(std::size_t start, std::uint64_t page_bytes,
                     double compressibility, sim::SimTime now)
{
    return storeFrom(start, tiers_.size(), page_bytes, compressibility,
                     now);
}

TierChain::StoreOutcome
TierChain::storeFrom(std::size_t start, std::size_t stop,
                     std::uint64_t page_bytes, double compressibility,
                     sim::SimTime now)
{
    StoreOutcome outcome;
    stop = std::min(stop, tiers_.size());
    for (std::size_t i = start; i < stop; ++i) {
        if (offline_[i] || health_[i].evacuating)
            continue;
        if (!admitForStore(i, now))
            continue;
        outcome.tier = tiers_[i];
        outcome.tierIndex = static_cast<int>(i);
        outcome.result =
            tiers_[i]->store(page_bytes, compressibility, now);
        if (outcome.result.accepted)
            return outcome;
    }
    outcome.result.accepted = false;
    return outcome;
}

int
TierChain::placementIndex(unsigned heat, bool workingset) const
{
    const int last = static_cast<int>(tiers_.size()) - 1;
    if (last == 0)
        return 0;
    if (placement_ == TierPlacement::WORKINGSET)
        return workingset ? 0 : last;
    // Linear heat-to-tier map: heat >= 7 enters the fastest tier,
    // heat 0 the slowest, with the 8 heat levels spread evenly over
    // the chain. Saturating above 7 keeps very hot pages from being
    // distinguished needlessly — one fault per decay period already
    // maxes the placement out.
    const unsigned effective = std::min(heat, 7u);
    const int idx = static_cast<int>((7u - effective) *
                                     tiers_.size() / 8u);
    return std::clamp(idx, 0, last);
}

int
TierChain::indexOf(const backend::OffloadBackend *be) const
{
    const auto it = std::find(tiers_.begin(), tiers_.end(), be);
    return it == tiers_.end()
               ? -1
               : static_cast<int>(it - tiers_.begin());
}

void
TierChain::setTierOffline(std::size_t i, bool offline, sim::SimTime now)
{
    if (i >= offline_.size())
        return;
    offline_[i] = offline;
    auto &health = health_[i];
    if (offline) {
        // The next maintenance pass starts draining immediately; no
        // grace window for an administratively offline tier.
        health.evacuating = true;
        health.readmitStart = NEVER;
        health.admitSeen = health.admitTaken = 0;
    } else {
        health.evacuating = false;
        health.failedSince = NEVER;
        health.readmitStart = now;
        health.admitSeen = health.admitTaken = 0;
    }
}

void
TierChain::updateHealth(sim::SimTime now)
{
    for (std::size_t i = 0; i < tiers_.size(); ++i) {
        auto &health = health_[i];
        if (offline_[i]) {
            health.evacuating = true;
            continue;
        }
        if (tiers_[i]->status() == backend::BackendStatus::FAILED) {
            if (health.failedSince == NEVER)
                health.failedSince = now;
            if (now >= health.failedSince + FAIL_GRACE_WINDOW)
                health.evacuating = true;
        } else {
            // Recovered (or never sick): stop any drain in progress.
            health.failedSince = NEVER;
            health.evacuating = false;
        }
    }
}

bool
TierChain::admitForStore(std::size_t i, sim::SimTime now)
{
    auto &health = health_[i];
    if (health.readmitStart == NEVER)
        return true;
    if (now >= health.readmitStart + READMIT_WINDOW) {
        health.readmitStart = NEVER;
        health.admitSeen = health.admitTaken = 0;
        return true;
    }
    // Admit the elapsed-window fraction of offered stores; counters
    // (not RNG) keep the thinning bit-deterministic.
    ++health.admitSeen;
    const double fraction =
        static_cast<double>(now - health.readmitStart) /
        static_cast<double>(READMIT_WINDOW);
    if (static_cast<double>(health.admitTaken) <
        fraction * static_cast<double>(health.admitSeen)) {
        ++health.admitTaken;
        return true;
    }
    return false;
}

} // namespace tmo::tier
