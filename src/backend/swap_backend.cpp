#include "backend/swap_backend.hpp"

#include <algorithm>

namespace tmo::backend
{

namespace
{

/** Error-recovery stall for a load hitting an offline device: the
 *  kernel retries, times out, and falls back — a fixed, deterministic
 *  penalty far above any healthy device latency. */
constexpr sim::SimTime OFFLINE_LOAD_PENALTY_US = 50'000;

} // namespace

SwapBackend::SwapBackend(SsdDevice &device, std::uint64_t capacity_bytes)
    : device_(device),
      name_("swap-" + device.spec().name),
      capacityBytes_(capacity_bytes)
{}

BackendStatus
SwapBackend::status() const
{
    if (device_.offline())
        return BackendStatus::FAILED;
    // No slot left at all: anon offloading is impossible and reclaim
    // must proceed file-only (§4 swap exhaustion).
    if (capacityBytes_ < 4096 || usedBytes_ >= capacityBytes_)
        return BackendStatus::FAILED;
    if (device_.degraded() || utilization() >= 0.95)
        return BackendStatus::DEGRADED;
    return BackendStatus::HEALTHY;
}

StoreResult
SwapBackend::store(std::uint64_t page_bytes, double /* compressibility */,
                   sim::SimTime now)
{
    StoreResult result;
    if (device_.offline()) {
        ++storeErrors_; // hard failure: no point retrying
        result.accepted = false;
        traceOp(now, OP_STORE_REJECT, 0, page_bytes, 0, true);
        return result;
    }
    // Transient write errors are retried with decorrelated-jitter
    // backoff before the store is abandoned; the accumulated backoff
    // is charged to the store's latency. The jitter comes from the
    // device's fault RNG and is drawn only after a failed attempt, so
    // fault-free runs consume an identical random stream.
    sim::SimTime backoff = 0;
    sim::SimTime prev = RETRY_POLICY.backoffBase;
    for (unsigned attempt = 1; device_.sampleWriteError(); ++attempt) {
        ++storeErrors_;
        if (attempt >= RETRY_POLICY.attempts ||
            backoff >= RETRY_POLICY.opTimeout) {
            result.accepted = false; // budget spent: page stays resident
            traceOp(now, OP_STORE_REJECT, backoff, page_bytes, 0, true);
            return result;
        }
        prev = device_.sampleRetryBackoff(RETRY_POLICY.backoffBase, prev,
                                          RETRY_POLICY.backoffCap);
        backoff += prev;
        ++retries_;
    }
    if (usedBytes_ + page_bytes > capacityBytes_) {
        result.accepted = false; // swap exhausted
        traceOp(now, OP_STORE_REJECT, 0, page_bytes, 0, true);
        return result;
    }
    const sim::SimTime queued = device_.writeQueueDelay(now);
    result.accepted = true;
    result.storedBytes = page_bytes;
    result.latency = device_.write(page_bytes, now) + backoff;
    usedBytes_ += page_bytes;
    traceOp(now, OP_STORE, result.latency, page_bytes, queued, true);
    return result;
}

LoadResult
SwapBackend::load(std::uint64_t stored_bytes, sim::SimTime now)
{
    release(stored_bytes);
    LoadResult result;
    if (device_.offline()) {
        // The slot's content is unreachable; the faulting task eats a
        // timeout-and-retry stall instead of a device read.
        ++loadErrors_;
        result.latency = sim::fromUsec(
            static_cast<double>(OFFLINE_LOAD_PENALTY_US));
        result.blockIo = true;
        traceOp(now, OP_LOAD_ERROR, result.latency, stored_bytes, 0,
                true);
        return result;
    }
    const sim::SimTime queued = device_.readQueueDelay(now);
    result.latency = device_.read(stored_bytes, now);
    result.blockIo = true;
    traceOp(now, OP_LOAD, result.latency, stored_bytes, queued, true);
    return result;
}

void
SwapBackend::setCapacityBytes(std::uint64_t capacity_bytes)
{
    capacityBytes_ = capacity_bytes;
}

void
SwapBackend::release(std::uint64_t stored_bytes)
{
    usedBytes_ -= std::min(usedBytes_, stored_bytes);
}

double
SwapBackend::utilization() const
{
    return capacityBytes_
               ? static_cast<double>(usedBytes_) /
                     static_cast<double>(capacityBytes_)
               : 0.0;
}

} // namespace tmo::backend
