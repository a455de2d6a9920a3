#include "backend/zswap.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tmo::backend
{

CompressorSpec
compressorPreset(const std::string &name)
{
    // Relative characteristics per §5.1: zstd gives the best ratio at a
    // modest speed cost; lz4 is fastest; lzo sits in between.
    if (name == "lzo")
        return {"lzo", 0.80, 7.0, 5.0};
    if (name == "lz4")
        return {"lz4", 0.78, 4.5, 2.5};
    if (name == "zstd")
        return {"zstd", 1.00, 11.0, 6.0};
    throw std::invalid_argument("unknown compressor '" + name +
                                "' (expected lzo|lz4|zstd)");
}

bool
isKnownCompressor(const std::string &name)
{
    return name == "lzo" || name == "lz4" || name == "zstd";
}

AllocatorSpec
allocatorPreset(const std::string &name)
{
    if (name == "zbud")
        return {"zbud", 1.0 / 2.0, 1.02};
    if (name == "z3fold")
        return {"z3fold", 1.0 / 3.0, 1.03};
    if (name == "zsmalloc")
        return {"zsmalloc", 0.0, 1.05};
    throw std::invalid_argument("unknown allocator '" + name +
                                "' (expected zbud|z3fold|zsmalloc)");
}

bool
isKnownAllocator(const std::string &name)
{
    return name == "zbud" || name == "z3fold" || name == "zsmalloc";
}

ZswapPool::ZswapPool(ZswapConfig config, std::uint64_t seed,
                     std::uint32_t simulated_page_bytes,
                     std::uint64_t max_pool_bytes)
    : config_(std::move(config)),
      name_("zswap-" + config_.compressor.name + "-" +
            config_.allocator.name),
      simulatedPageBytes_(simulated_page_bytes),
      maxPoolBytes_(max_pool_bytes), rng_(seed)
{}

BackendStatus
ZswapPool::status() const
{
    if (stallUs_ > 0.0)
        return BackendStatus::DEGRADED;
    if (maxPoolBytes_ && usedBytes_ >= maxPoolBytes_)
        return BackendStatus::DEGRADED;
    return BackendStatus::HEALTHY;
}

void
ZswapPool::setMaxPoolBytes(std::uint64_t max_pool_bytes)
{
    maxPoolBytes_ = max_pool_bytes;
}

void
ZswapPool::setStallUs(double stall_us)
{
    stallUs_ = std::max(0.0, stall_us);
}

double
ZswapPool::effectiveStallUs()
{
    if (stallUs_ <= 0.0)
        return 0.0;
    const double timeout = sim::toUsec(RETRY_POLICY.opTimeout);
    if (stallUs_ <= timeout)
        return stallUs_;
    // An operation stalled past the per-op timeout is treated as hung
    // on allocator compaction and reissued; a retry typically lands
    // after compaction finished, so the observed stall is capped at
    // attempts * timeout. Deterministic — no RNG involved.
    const double capped = std::min(
        stallUs_, static_cast<double>(RETRY_POLICY.attempts) * timeout);
    retries_ += static_cast<std::uint64_t>(
                    std::ceil(capped / timeout)) -
                1;
    return capped;
}

StoreResult
ZswapPool::store(std::uint64_t page_bytes, double compressibility,
                 sim::SimTime now)
{
    // Sample this page's achieved ratio around the workload mean,
    // scaled by the compressor's strength. Ratio 1 = incompressible.
    const double mean_ratio =
        std::max(1.0, compressibility * config_.compressor.ratioFactor);
    const double ratio = std::max(
        1.0, rng_.normal(mean_ratio, ZSWAP_RATIO_SPREAD * mean_ratio));

    double compressed =
        static_cast<double>(page_bytes) / ratio;

    StoreResult result;
    if (compressed >
        ZSWAP_REJECT_THRESHOLD * static_cast<double>(page_bytes)) {
        ++rejectedPages_;
        result.accepted = false;
        traceOp(now, OP_STORE_REJECT, 0, page_bytes, 0, false);
        return result;
    }
    if (maxPoolBytes_ &&
        usedBytes_ + static_cast<std::uint64_t>(compressed) >
            maxPoolBytes_) {
        ++rejectedPages_;
        result.accepted = false;
        traceOp(now, OP_STORE_REJECT, 0, page_bytes, 0, false);
        return result;
    }

    // Allocator packing: zbud/z3fold round the slot up to a fixed
    // fraction of the page; zsmalloc stores near-exactly.
    const double min_slot = config_.allocator.minSlotFraction *
                            static_cast<double>(page_bytes);
    compressed =
        std::max(compressed, min_slot) * config_.allocator.overhead;

    result.accepted = true;
    result.storedBytes = static_cast<std::uint64_t>(compressed);
    const double pages4k =
        std::max(1.0, static_cast<double>(page_bytes) / 4096.0);
    result.latency = sim::fromUsec(
        config_.compressor.compressUs * pages4k + effectiveStallUs());

    usedBytes_ += result.storedBytes;
    traceOp(now, OP_STORE, result.latency, result.storedBytes, 0,
            false);
    return result;
}

LoadResult
ZswapPool::load(std::uint64_t stored_bytes, sim::SimTime now)
{
    // How many real 4 KiB pages one simulated page stands for.
    const double units = std::max(
        1.0, static_cast<double>(simulatedPageBytes_) / 4096.0);

    release(stored_bytes);

    LoadResult result;
    // Per-real-page fault overhead + decompression, with a little
    // spread so the reported p90 (~40 us for 4 KiB, §2.5) is a
    // distribution tail.
    const double us =
        ZSWAP_FAULT_OVERHEAD_US + config_.compressor.decompressUs;
    result.latency = sim::fromUsec(
        units * std::max(1.0, rng_.normal(us * 0.85, us * 0.15)) +
        effectiveStallUs());
    result.blockIo = false;
    traceOp(now, OP_LOAD, result.latency, stored_bytes, 0, false);
    return result;
}

void
ZswapPool::release(std::uint64_t stored_bytes)
{
    usedBytes_ -= std::min(usedBytes_, stored_bytes);
}

} // namespace tmo::backend
