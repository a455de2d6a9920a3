/**
 * @file
 * Compressed-memory (zswap) offload backend.
 *
 * Models the kernel zswap path (§3.4.1): offloaded anonymous pages are
 * compressed and kept in a RAM pool, so faults avoid block IO but the
 * savings per page depend on compressibility and on the pool
 * allocator's packing efficiency. §5.1 reports Meta's selection study:
 * zstd over lzo/lz4 for ratio at acceptable speed, zsmalloc over
 * zbud/z3fold for pool efficiency; the presets here encode those
 * trade-offs so the study is reproducible (tab_zswap_selection).
 */

#pragma once

#include <cstdint>
#include <string>

#include "backend/backend.hpp"
#include "sim/rng.hpp"

namespace tmo::backend
{

/** Compression algorithm model. */
struct CompressorSpec {
    std::string name;
    /** Multiplier on the page's intrinsic compressibility (zstd ~1.0,
     *  weaker algorithms achieve less of the available ratio). */
    double ratioFactor = 1.0;
    /** Per-4KiB-page compression latency (charged to reclaim). */
    double compressUs = 10.0;
    /** Per-4KiB-page decompression latency (charged to the fault). */
    double decompressUs = 6.0;
};

/** zswap pool allocator model. */
struct AllocatorSpec {
    std::string name;
    /**
     * Storage granularity as a fraction of the page size: zbud packs at
     * most 2 compressed pages per page (granularity 1/2), z3fold 3
     * (1/3), zsmalloc packs nearly exactly (small fixed overhead).
     */
    double minSlotFraction = 0.0;
    /** Proportional metadata overhead on the compressed size. */
    double overhead = 1.05;
};

/** Named compressor presets: "lzo", "lz4", "zstd". */
CompressorSpec compressorPreset(const std::string &name);

/** True when @p name is a known compressor (parse-time validation). */
bool isKnownCompressor(const std::string &name);

/** Named allocator presets: "zbud", "z3fold", "zsmalloc". */
AllocatorSpec allocatorPreset(const std::string &name);

/** True when @p name is a known allocator (parse-time validation). */
bool isKnownAllocator(const std::string &name);

/** Fixed fault-path overhead on top of decompression; the paper
 *  reports ~40 us p90 for a 4 KiB compressed-memory read. */
inline constexpr double ZSWAP_FAULT_OVERHEAD_US = 30.0;
/** Pages compressing worse than this fraction of their size are
 *  rejected and stay resident. */
inline constexpr double ZSWAP_REJECT_THRESHOLD = 0.9;
/** Sampled per-page ratio spread around the workload mean. */
inline constexpr double ZSWAP_RATIO_SPREAD = 0.15;

/** The device model of a zswap pool: compressor and allocator. */
struct ZswapConfig {
    CompressorSpec compressor = compressorPreset("zstd");
    AllocatorSpec allocator = allocatorPreset("zsmalloc");
};

/**
 * Compressed RAM pool. Its usedBytes() are DRAM (storesInHostDram()),
 * charged to the host by the memory manager that stores pages here.
 */
class ZswapPool : public OffloadBackend
{
  public:
    /**
     * @param config Compressor and allocator.
     * @param seed Seed of the per-page ratio and fault-latency draws.
     * @param simulated_page_bytes The simulator's page granularity. A
     *        coarse simulated page of N x 4 KiB faults as N real
     *        pages, each paying the fault overhead once (keeps stall
     *        per byte faithful at coarse granularities). A host
     *        passes its memory page size.
     * @param max_pool_bytes Pool size cap; stores beyond it are
     *        rejected (0 = unbounded). In a tier chain a rejected
     *        store falls through to the next tier (§5.2), bounding
     *        the DRAM the pool itself consumes.
     */
    explicit ZswapPool(ZswapConfig config = {}, std::uint64_t seed = 2,
                       std::uint32_t simulated_page_bytes = 4096,
                       std::uint64_t max_pool_bytes = 0);

    const std::string &name() const override { return name_; }

    /** DEGRADED while a compaction stall is injected or the pool cap
     *  is exhausted (stores bounce); never FAILED — loads always work. */
    BackendStatus status() const override;

    StoreResult store(std::uint64_t page_bytes, double compressibility,
                      sim::SimTime now) override;

    LoadResult load(std::uint64_t stored_bytes,
                    sim::SimTime now) override;

    void release(std::uint64_t stored_bytes) override;

    std::uint64_t usedBytes() const override { return usedBytes_; }

    bool isBlockDevice() const override { return false; }

    bool storesInHostDram() const override { return true; }

    /** Stores rejected (incompressible page or pool cap) since
     *  construction. */
    std::uint64_t rejectedPages() const { return rejectedPages_; }

    const ZswapConfig &config() const { return config_; }

    // --- fault injection -------------------------------------------------

    /** Shrink (or lift, with 0 = unbounded) the pool cap at runtime;
     *  pages already stored stay until faulted back. */
    void setMaxPoolBytes(std::uint64_t max_pool_bytes);

    /** Add a fixed stall to every store/load (allocator compaction
     *  stall injection); 0 clears it. */
    void setStallUs(double stall_us);
    double stallUs() const { return stallUs_; }

    /** Operations retried after stalling past the per-op timeout:
     *  under RETRY_POLICY an op stalled past opTimeout is abandoned
     *  and retried, so the observed stall is capped at attempts *
     *  opTimeout (deterministic — no RNG draw). */
    std::uint64_t retries() const { return retries_; }

  private:
    /** The injected stall as bounded by the retry budget; counts the
     *  timed-out attempts into retries_. */
    double effectiveStallUs();

    ZswapConfig config_;
    std::string name_;
    std::uint32_t simulatedPageBytes_;
    /** 0 = unbounded. */
    std::uint64_t maxPoolBytes_;
    sim::Rng rng_;
    std::uint64_t usedBytes_ = 0;
    std::uint64_t rejectedPages_ = 0;
    std::uint64_t retries_ = 0;
    double stallUs_ = 0.0;
};

} // namespace tmo::backend
