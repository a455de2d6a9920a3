/**
 * @file
 * Offload backend interface.
 *
 * A memory offload backend is the slow-memory tier that holds offloaded
 * pages (§2.5): a compressed memory pool (zswap), an SSD swap partition,
 * or — for file pages — the filesystem itself. The reclaim code only
 * interacts with backends through this interface, so heterogeneous
 * fleets mix backends freely.
 */

#pragma once

#include <cstdint>
#include <string>

#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace tmo::backend
{

/**
 * Health of an offload backend (§4: swap exhaustion, device wear,
 * IO-pressure incidents). Backends surface degradation explicitly so
 * controllers can back off and the kernel-side reclaimer can fall back
 * to file-only reclaim instead of silently absorbing errors.
 */
enum class BackendStatus {
    /** Operating normally. */
    HEALTHY,
    /** Usable but impaired: latency spikes, write errors, nearly full
     *  capacity, worn-out device. Controllers should back off. */
    DEGRADED,
    /** Cannot accept new pages (offline device, exhausted slots);
     *  reclaim must proceed file-only. */
    FAILED,
};

/** Human-readable status name ("healthy", "degraded", "failed"). */
const char *backendStatusName(BackendStatus status);

/** The worse of two statuses. */
BackendStatus worseStatus(BackendStatus a, BackendStatus b);

/** Result of storing (offloading) one page. */
struct StoreResult {
    /** False when the backend refused the page (incompressible page on
     *  zswap, full swap device); the page then stays resident. */
    bool accepted = false;
    /** Bytes the page consumes in the backend (compressed / slot size). */
    std::uint64_t storedBytes = 0;
    /** Time the store operation occupied (usually asynchronous to the
     *  workload, but it consumes device bandwidth). */
    sim::SimTime latency = 0;
};

/**
 * Retry budget for transient backend failures (§4 operational
 * stance: a flaky device gets retried before its tier is declared
 * FAILED and evacuated). All delays are simulated time on the owning
 * shard's clock. Any jitter is drawn from the device's dedicated
 * fault RNG and only on a failed attempt, so fault-free runs draw
 * nothing and stay byte-identical; faulted runs stay deterministic
 * per seed.
 */
struct RetryPolicy {
    /** Total attempts per operation (1 = no retry). */
    unsigned attempts = 3;
    /** Per-operation stall budget. An operation stalled past this is
     *  treated as hung and retried (zswap allocator-compaction
     *  stalls); 0 disables the timeout. */
    sim::SimTime opTimeout = sim::fromUsec(1000.0);
    /** First retry backoff (decorrelated-jitter base). */
    sim::SimTime backoffBase = sim::fromUsec(100.0);
    /** Backoff ceiling per retry. */
    sim::SimTime backoffCap = sim::fromUsec(5000.0);
};

/** Result of loading one page back on a fault. */
struct LoadResult {
    /** Stall time the faulting task observes. */
    sim::SimTime latency = 0;
    /** Whether the wait involved a block device (PSI IOWAIT). */
    bool blockIo = false;
};

/**
 * Abstract slow-memory tier holding offloaded pages.
 *
 * Implementations account their own occupancy; the caller tracks which
 * page lives where and with how many storedBytes.
 */
class OffloadBackend
{
  public:
    virtual ~OffloadBackend() = default;

    /** Backend name for reports. */
    virtual const std::string &name() const = 0;

    /**
     * Current health. Backends without failure modes stay HEALTHY;
     * implementations with devices or capacity report DEGRADED/FAILED
     * so callers degrade gracefully instead of spinning on rejected
     * stores.
     */
    virtual BackendStatus status() const
    {
        return BackendStatus::HEALTHY;
    }

    /**
     * Offload one page of @p page_bytes.
     *
     * @param page_bytes Uncompressed page size.
     * @param compressibility Expected compression ratio of the page's
     *        contents (>= 1; ignored by non-compressing backends).
     * @param now Current time.
     */
    virtual StoreResult store(std::uint64_t page_bytes,
                              double compressibility,
                              sim::SimTime now) = 0;

    /**
     * Fault one page back in.
     *
     * @param stored_bytes The storedBytes returned by store().
     * @param now Current time.
     */
    virtual LoadResult load(std::uint64_t stored_bytes,
                            sim::SimTime now) = 0;

    /** Release a stored page without loading it (page was freed). */
    virtual void release(std::uint64_t stored_bytes) = 0;

    /** Bytes currently stored (backend-internal representation). */
    virtual std::uint64_t usedBytes() const = 0;

    /** True when loads wait on a block device. */
    virtual bool isBlockDevice() const = 0;

    /**
     * Fraction of the backend's capacity in use, in [0, 1]. Backends
     * without a fixed capacity report 0.
     */
    virtual double utilization() const { return 0.0; }

    /**
     * True when stored pages continue to occupy host DRAM (zswap):
     * the cgroup then stays charged for the compressed copy. Tiers on
     * separate physical media (SSD, NVM, CXL-attached memory) return
     * false.
     */
    virtual bool storesInHostDram() const { return false; }

    /**
     * Attach a trace ring (nullptr detaches): implementations record
     * a BACKEND_OP event per store/load under track @p track. With no
     * ring attached the cost is one pointer test per operation.
     */
    void
    setTrace(obs::TraceRing *ring, std::uint16_t track)
    {
        trace_ = ring;
        traceTrack_ = track;
    }

  protected:
    /** BACKEND_OP op codes. */
    enum TraceOp : std::uint8_t {
        OP_STORE = 0,
        OP_LOAD = 1,
        OP_STORE_REJECT = 2,
        OP_LOAD_ERROR = 3,
    };

    /** Record one backend operation when tracing is on. */
    void
    traceOp(sim::SimTime now, std::uint8_t op, sim::SimTime latency,
            std::uint64_t bytes, sim::SimTime queue_delay,
            bool block_io) const
    {
        if (trace_)
            trace_->record(now, obs::TraceEventType::BACKEND_OP, op,
                           traceTrack_,
                           {sim::toUsec(latency),
                            static_cast<double>(bytes),
                            sim::toUsec(queue_delay),
                            block_io ? 1.0 : 0.0});
    }

    obs::TraceRing *trace_ = nullptr;
    std::uint16_t traceTrack_ = 0;
};

} // namespace tmo::backend
