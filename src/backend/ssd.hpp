/**
 * @file
 * NVMe SSD device model.
 *
 * Models the heterogeneous SSD population of §2.5 / Fig. 5: per-device
 * IOPS ceilings, lognormal access latency (median + p99), queueing
 * delay when offered load approaches the IOPS ceiling, capacity, and
 * write endurance (TBW) tracking.
 *
 * One SsdDevice instance is shared by everything on the host that does
 * block IO — the swap partition and the filesystem — so paging traffic
 * and file refaults contend for the same device, which is what makes
 * IO pressure couple back into the workload (§4.4).
 */

#pragma once

#include <cstdint>
#include <string>

#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "stats/ewma.hpp"
#include "stats/histogram.hpp"

namespace tmo::backend
{

/** Static characteristics of one SSD device class. */
struct SsdSpec {
    std::string name;
    /** Median / p99 of a single 4 KiB read, microseconds. */
    double readMedianUs = 90.0;
    double readP99Us = 1000.0;
    /** Median / p99 of a single 4 KiB write, microseconds. */
    double writeMedianUs = 30.0;
    double writeP99Us = 2000.0;
    /** Sustainable 4 KiB operations per second. */
    double readIops = 200e3;
    double writeIops = 60e3;
    /** Write endurance: total bytes writable over the device's life. */
    double enduranceTbw = 1500.0; // terabytes
    /** Usable capacity. */
    std::uint64_t capacityBytes = 512ull << 30;
};

/**
 * Fleet device classes A–G from Fig. 5 (A oldest, G newest). Latency
 * improves by ~20x across generations (9.3 ms worst-case read p99 down
 * to 470 us); IOPS are comparatively stable; endurance improves but
 * stays limited. Fig. 12's "slow SSD" is class B and "fast SSD" is
 * class C.
 */
SsdSpec ssdSpecForClass(char device_class);

/** True when @p device_class names a fleet class ('A'..'G'). Use for
 *  parse-time CLI validation, before any host is built. */
bool isValidSsdClass(char device_class);

/**
 * Queued SSD device instance. Reads and writes are serviced from
 * separate (read-prioritized) capacity pools; latency observed by a
 * request is queue delay + sampled device latency.
 */
class SsdDevice
{
  public:
    SsdDevice(SsdSpec spec, std::uint64_t seed = 1);

    const SsdSpec &spec() const { return spec_; }

    /**
     * Issue a synchronous read of @p bytes at @p now.
     * @return Total latency (queue + device) the waiter observes.
     */
    sim::SimTime read(std::uint64_t bytes, sim::SimTime now);

    /**
     * Issue an asynchronous write of @p bytes (swap-out / writeback).
     * @return Device-side completion latency (the issuer does not wait,
     *         but the bandwidth is consumed and endurance is charged).
     */
    sim::SimTime write(std::uint64_t bytes, sim::SimTime now);

    /** Total bytes written since construction (endurance accounting). */
    std::uint64_t bytesWritten() const { return bytesWritten_; }

    /** Fraction of rated endurance already consumed, in [0, inf). */
    double enduranceUsed() const;

    /** Read-latency distribution since the last resetStats(). */
    const stats::Histogram &readLatency() const { return readLatency_; }

    /** Smoothed device read rate, operations per second. */
    double readOpsRate(sim::SimTime now) { return readRate_.rate(now); }

    /** Smoothed device write rate, bytes per second. */
    double writeByteRate(sim::SimTime now) { return writeRate_.rate(now); }

    /** Queue delay a read issued at @p now would wait before service. */
    sim::SimTime
    readQueueDelay(sim::SimTime now) const
    {
        return readBusyUntil_ > now ? readBusyUntil_ - now : 0;
    }

    /** Queue delay a write issued at @p now would wait. */
    sim::SimTime
    writeQueueDelay(sim::SimTime now) const
    {
        return writeBusyUntil_ > now ? writeBusyUntil_ - now : 0;
    }

    /** Clear latency histogram and rate meters (not endurance). */
    void resetStats();

    // --- fault injection (§4 incidents, driven by fault::FaultInjector) --

    /**
     * Multiply sampled device latency by @p factor (>= 1; 1 restores
     * nominal service). Models firmware stalls / thermal throttling /
     * internal GC latency spikes.
     */
    void injectLatencyMultiplier(double factor);
    double latencyMultiplier() const { return latencyMultiplier_; }

    /** Take the device offline / bring it back. While offline the swap
     *  partition rejects stores and serves loads via an error-recovery
     *  penalty path. */
    void setOffline(bool offline) { offline_ = offline; }
    bool offline() const { return offline_; }

    /** Fraction of writes that fail with an IO error, in [0, 1]. */
    void setWriteErrorRate(double rate);
    double writeErrorRate() const { return writeErrorRate_; }

    /**
     * Deterministically sample whether the next write fails. Draws from
     * a dedicated fault RNG only while a nonzero error rate is armed,
     * so fault-free runs consume an identical random stream.
     */
    bool sampleWriteError();

    /**
     * Draw one decorrelated-jitter retry backoff from the fault RNG:
     * uniform in [base, 3 * prev], capped at @p cap (0 = no cap).
     * Only ever called on a failure path, so fault-free runs consume
     * an identical random stream.
     */
    sim::SimTime sampleRetryBackoff(sim::SimTime base,
                                    sim::SimTime prev,
                                    sim::SimTime cap);

    /** Consume @p fraction of the rated endurance at once (wear-out
     *  injection; does not count as host-written bytes). */
    void injectWearFraction(double fraction);

    /** True when any injected or accumulated impairment is active. */
    bool degraded() const
    {
        return offline_ || latencyMultiplier_ > 1.0 ||
               writeErrorRate_ > 0.0 || enduranceUsed() >= 1.0;
    }

  private:
    /** Queue-aware service: returns latency and advances busy time. */
    sim::SimTime service(std::uint64_t bytes, double iops,
                         const sim::LognormalParams &latency_us,
                         sim::SimTime &busy_until, sim::SimTime now);

    SsdSpec spec_;
    /** Lognormal device latency (microseconds) of one 4 KiB read and
     *  one write, from the spec's median and p99. */
    sim::LognormalParams readLatencyUs_;
    sim::LognormalParams writeLatencyUs_;
    /** Device capacity one 4 KiB read occupies: 1 / readIops. */
    sim::SimTime readServiceTime_;
    sim::Rng rng_;
    /** Separate stream for fault sampling: leaves the latency stream
     *  of fault-free runs untouched. */
    sim::Rng faultRng_;
    sim::SimTime readBusyUntil_ = 0;
    sim::SimTime writeBusyUntil_ = 0;
    std::uint64_t bytesWritten_ = 0;
    std::uint64_t wearInjectedBytes_ = 0;
    double latencyMultiplier_ = 1.0;
    double writeErrorRate_ = 0.0;
    bool offline_ = false;
    stats::Histogram readLatency_{0.1, 1e7, 20}; // microseconds
    stats::RateMeter readRate_;
    stats::RateMeter writeRate_;
};

} // namespace tmo::backend
