#include "backend/nvm.hpp"

#include <algorithm>
#include <stdexcept>

namespace tmo::backend
{

NvmSpec
nvmSpecPreset(const std::string &name)
{
    if (name == "optane") {
        // DCPMM-class persistent memory: microseconds, not
        // milliseconds; large capacity.
        return {"nvm-optane", 2.0, 8.0, 3.0, 128ull << 30, 4096};
    }
    if (name == "cxl-dram") {
        // CXL-attached DRAM: close-to-DDR performance (§1).
        return {"cxl-dram", 0.6, 1.5, 0.8, 64ull << 30, 4096};
    }
    throw std::invalid_argument("unknown NVM preset '" + name +
                                "' (expected optane|cxl-dram)");
}

bool
isKnownNvmPreset(const std::string &name)
{
    return name == "optane" || name == "cxl-dram";
}

NvmBackend::NvmBackend(NvmSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      readLatencyUs_(sim::Rng::lognormalParams(
          spec_.readMedianUs, spec_.readP99Us / spec_.readMedianUs)),
      rng_(seed)
{}

StoreResult
NvmBackend::store(std::uint64_t page_bytes,
                  double /* compressibility */, sim::SimTime now)
{
    StoreResult result;
    if (usedBytes_ + page_bytes > spec_.capacityBytes) {
        result.accepted = false;
        traceOp(now, OP_STORE_REJECT, 0, page_bytes, 0, false);
        return result;
    }
    result.accepted = true;
    result.storedBytes = page_bytes;
    const double units =
        std::max(1.0, static_cast<double>(page_bytes) / 4096.0);
    result.latency = sim::fromUsec(spec_.writeMedianUs * units);
    usedBytes_ += page_bytes;
    traceOp(now, OP_STORE, result.latency, page_bytes, 0, false);
    return result;
}

LoadResult
NvmBackend::load(std::uint64_t stored_bytes, sim::SimTime now)
{
    release(stored_bytes);
    LoadResult result;
    // Fault amplification: one simulated page stands for N real
    // 4 KiB pages, each paying device latency once.
    const double units = std::max(
        1.0,
        static_cast<double>(spec_.simulatedPageBytes) / 4096.0);
    result.latency = sim::fromUsec(
        units * rng_.lognormal(readLatencyUs_.mu, readLatencyUs_.sigma));
    result.blockIo = false; // byte-addressable: memory stall only
    traceOp(now, OP_LOAD, result.latency, stored_bytes, 0, false);
    return result;
}

void
NvmBackend::release(std::uint64_t stored_bytes)
{
    usedBytes_ -= std::min(usedBytes_, stored_bytes);
}

double
NvmBackend::utilization() const
{
    return spec_.capacityBytes
               ? static_cast<double>(usedBytes_) /
                     static_cast<double>(spec_.capacityBytes)
               : 0.0;
}

} // namespace tmo::backend
