/**
 * @file
 * SSD-backed swap partition backend.
 */

#pragma once

#include <cstdint>
#include <string>

#include "backend/backend.hpp"
#include "backend/ssd.hpp"

namespace tmo::backend
{

/**
 * Swap partition on an SsdDevice. Pages occupy a full page-sized slot;
 * stores consume device write bandwidth and endurance, loads are
 * synchronous block reads (MEMSTALL | IOWAIT on the faulting task).
 */
class SwapBackend : public OffloadBackend
{
  public:
    /**
     * @param device Underlying device (shared with the filesystem).
     * @param capacity_bytes Size of the swap partition.
     */
    SwapBackend(SsdDevice &device, std::uint64_t capacity_bytes);

    const std::string &name() const override { return name_; }

    /**
     * Health of the partition: FAILED when the device is offline or no
     * slot is left (exhaustion, §4), DEGRADED when the device is
     * impaired or the partition is nearly full.
     */
    BackendStatus status() const override;

    StoreResult store(std::uint64_t page_bytes, double compressibility,
                      sim::SimTime now) override;

    LoadResult load(std::uint64_t stored_bytes,
                    sim::SimTime now) override;

    void release(std::uint64_t stored_bytes) override;

    std::uint64_t usedBytes() const override { return usedBytes_; }

    bool isBlockDevice() const override { return true; }

    /** Fraction of the partition in use. */
    double utilization() const override;

    /** The underlying device. */
    SsdDevice &device() { return device_; }
    const SsdDevice &device() const { return device_; }

    /** Partition size. */
    std::uint64_t capacityBytes() const { return capacityBytes_; }

    /**
     * Shrink (or grow) the partition. Slots already in use survive a
     * shrink — utilization can then exceed 1 and the backend reports
     * FAILED until loads drain it (swap-slot exhaustion injection).
     */
    void setCapacityBytes(std::uint64_t capacity_bytes);

    /** Stores rejected with an IO error (offline device, write error). */
    std::uint64_t storeErrors() const { return storeErrors_; }

    /** Loads served through the error-recovery penalty path. */
    std::uint64_t loadErrors() const { return loadErrors_; }

    /** Write attempts retried after a transient IO error (at most
     *  RETRY_POLICY.attempts - 1 per store). */
    std::uint64_t retries() const { return retries_; }

  private:
    SsdDevice &device_;
    std::string name_;
    std::uint64_t capacityBytes_;
    std::uint64_t usedBytes_ = 0;
    std::uint64_t storeErrors_ = 0;
    std::uint64_t loadErrors_ = 0;
    std::uint64_t retries_ = 0;
};

} // namespace tmo::backend
