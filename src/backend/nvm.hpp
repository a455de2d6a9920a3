/**
 * @file
 * NVM / CXL-memory offload backends (§2.5, §5.2 outlook).
 *
 * The paper expects the offload-backend population to grow beyond
 * compressed memory and NVMe SSDs: byte-addressable NVM (e.g. Optane
 * DCPMM) and CXL-attached memory offer near-DRAM latencies without
 * occupying host DRAM and without block-IO semantics. This model
 * covers both with configurable latency and capacity; loads stall the
 * faulting task on memory only (no IOWAIT), like zswap but without
 * the DRAM pool overhead or compressibility dependence.
 */

#pragma once

#include <cstdint>
#include <string>

#include "backend/backend.hpp"
#include "sim/rng.hpp"

namespace tmo::backend
{

/** Characteristics of one byte-addressable slow-memory device. */
struct NvmSpec {
    std::string name;
    /** Median / p99 of a 4 KiB fault service, microseconds. */
    double readMedianUs = 2.0;
    double readP99Us = 8.0;
    /** Store-side latency (asynchronous to the workload). */
    double writeMedianUs = 3.0;
    /** Usable capacity. */
    std::uint64_t capacityBytes = 64ull << 30;
    /** The simulator's page granularity (fault amplification). */
    std::uint32_t simulatedPageBytes = 4096;
};

/**
 * Presets: "optane" (DCPMM-class persistent memory, ~2 us reads) and
 * "cxl-dram" (CXL-attached DRAM, sub-microsecond reads).
 */
NvmSpec nvmSpecPreset(const std::string &name);

/** True when @p name is a known NVM preset (parse-time validation). */
bool isKnownNvmPreset(const std::string &name);

/** Byte-addressable slow-memory tier. */
class NvmBackend : public OffloadBackend
{
  public:
    explicit NvmBackend(NvmSpec spec, std::uint64_t seed = 21);

    const std::string &name() const override { return spec_.name; }

    StoreResult store(std::uint64_t page_bytes, double compressibility,
                      sim::SimTime now) override;

    LoadResult load(std::uint64_t stored_bytes,
                    sim::SimTime now) override;

    void release(std::uint64_t stored_bytes) override;

    std::uint64_t usedBytes() const override { return usedBytes_; }

    bool isBlockDevice() const override { return false; }

    double utilization() const override;

    const NvmSpec &spec() const { return spec_; }

  private:
    NvmSpec spec_;
    /** Lognormal fault service (microseconds per 4 KiB), from the
     *  spec's read median and p99. */
    sim::LognormalParams readLatencyUs_;
    sim::Rng rng_;
    std::uint64_t usedBytes_ = 0;
};

} // namespace tmo::backend
