#include "backend/ssd.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace tmo::backend
{

SsdSpec
ssdSpecForClass(char device_class)
{
    // Values chosen to match the log-scale trends of Fig. 5: endurance
    // improving but limited, IOPS relatively stable, read/write p99
    // spanning 9.3 ms (oldest) to 470 us (newest).
    switch (device_class) {
      case 'A':
        return {"ssd-A", 450.0, 9300.0, 120.0, 12000.0,
                60e3, 25e3, 400.0, 256ull << 30};
      case 'B': // Fig. 12's "slow SSD"
        return {"ssd-B", 300.0, 5200.0, 90.0, 8000.0,
                80e3, 30e3, 700.0, 512ull << 30};
      case 'C': // Fig. 12's "fast SSD"
        return {"ssd-C", 95.0, 1100.0, 35.0, 2500.0,
                200e3, 60e3, 1400.0, 512ull << 30};
      case 'D':
        return {"ssd-D", 85.0, 900.0, 30.0, 2000.0,
                300e3, 80e3, 2000.0, 1ull << 40};
      case 'E':
        return {"ssd-E", 80.0, 680.0, 28.0, 1500.0,
                400e3, 100e3, 2800.0, 1ull << 40};
      case 'F':
        return {"ssd-F", 75.0, 540.0, 25.0, 1100.0,
                500e3, 140e3, 3600.0, 2ull << 40};
      case 'G':
        return {"ssd-G", 70.0, 470.0, 22.0, 900.0,
                550e3, 180e3, 4500.0, 2ull << 40};
      default:
        throw std::invalid_argument(
            std::string("unknown SSD class '") + device_class +
            "' (expected A-G)");
    }
}

bool
isValidSsdClass(char device_class)
{
    return device_class >= 'A' && device_class <= 'G';
}

SsdDevice::SsdDevice(SsdSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      readLatencyUs_(sim::Rng::lognormalParams(
          spec_.readMedianUs, spec_.readP99Us / spec_.readMedianUs)),
      writeLatencyUs_(sim::Rng::lognormalParams(
          spec_.writeMedianUs, spec_.writeP99Us / spec_.writeMedianUs)),
      readServiceTime_(sim::fromSeconds(1.0 / spec_.readIops)),
      rng_(seed), faultRng_(seed ^ 0x5afa5afaull)
{}

void
SsdDevice::injectLatencyMultiplier(double factor)
{
    latencyMultiplier_ = std::max(1.0, factor);
}

void
SsdDevice::setWriteErrorRate(double rate)
{
    writeErrorRate_ = std::clamp(rate, 0.0, 1.0);
}

bool
SsdDevice::sampleWriteError()
{
    if (writeErrorRate_ <= 0.0)
        return false;
    return faultRng_.chance(writeErrorRate_);
}

sim::SimTime
SsdDevice::sampleRetryBackoff(sim::SimTime base, sim::SimTime prev,
                              sim::SimTime cap)
{
    const double lo = static_cast<double>(base);
    const double hi = static_cast<double>(std::max(base, 3 * prev));
    const auto draw =
        static_cast<sim::SimTime>(faultRng_.uniform(lo, hi));
    return cap ? std::min(cap, draw) : draw;
}

void
SsdDevice::injectWearFraction(double fraction)
{
    if (fraction <= 0.0)
        return;
    // Saturate: wear far past the rated endurance is still a worn-out
    // device, and the byte count must stay representable.
    constexpr std::uint64_t MAX_WEAR =
        std::numeric_limits<std::uint64_t>::max() / 2;
    const double bytes = fraction * spec_.enduranceTbw * 1e12;
    const std::uint64_t add =
        bytes < static_cast<double>(MAX_WEAR)
            ? static_cast<std::uint64_t>(bytes)
            : MAX_WEAR;
    wearInjectedBytes_ = std::min(MAX_WEAR, wearInjectedBytes_ + add);
}

sim::SimTime
SsdDevice::service(std::uint64_t bytes, double iops,
                   const sim::LognormalParams &latency_us,
                   sim::SimTime &busy_until, sim::SimTime now)
{
    // Each 4 KiB unit occupies 1/iops seconds of device capacity; a
    // request arriving while the device is busy queues behind it.
    const double units =
        std::max(1.0, static_cast<double>(bytes) / 4096.0);
    const auto service_time =
        sim::fromSeconds(units / iops);

    const sim::SimTime start = std::max(busy_until, now);
    busy_until = start + service_time;

    const sim::SimTime queue_delay = start - now;
    const auto device_latency = sim::fromUsec(
        latencyMultiplier_ *
        rng_.lognormal(latency_us.mu, latency_us.sigma));
    return queue_delay + service_time + device_latency;
}

sim::SimTime
SsdDevice::read(std::uint64_t bytes, sim::SimTime now)
{
    // Reads larger than 4 KiB are modelled as that many sequential
    // 4 KiB operations. This keeps stall time per byte faithful when
    // the simulator uses coarse page groups: in the real system those
    // bytes fault in as independent 4 KiB pages, each paying device
    // latency.
    const double units =
        std::max(1.0, static_cast<double>(bytes) / 4096.0);
    const sim::SimTime svc_one = readServiceTime_;
    const sim::SimTime start = std::max(readBusyUntil_, now);
    const sim::SimTime queue_delay = start - now;
    const auto dev_one = sim::fromUsec(
        latencyMultiplier_ *
        rng_.lognormal(readLatencyUs_.mu, readLatencyUs_.sigma));
    const auto per_unit = svc_one + dev_one;
    const sim::SimTime latency =
        queue_delay + static_cast<sim::SimTime>(
                          units * static_cast<double>(per_unit));
    readBusyUntil_ =
        start + static_cast<sim::SimTime>(
                    units * static_cast<double>(svc_one));

    // The histogram tracks per-operation latency (what Figs. 5 and
    // 12(a) report).
    readLatency_.add(sim::toUsec(queue_delay + per_unit));
    readRate_.add(units, now);
    return latency;
}

sim::SimTime
SsdDevice::write(std::uint64_t bytes, sim::SimTime now)
{
    const sim::SimTime latency = service(
        bytes, spec_.writeIops, writeLatencyUs_, writeBusyUntil_, now);
    bytesWritten_ += bytes;
    writeRate_.add(static_cast<double>(bytes), now);
    return latency;
}

double
SsdDevice::enduranceUsed() const
{
    const double tbw =
        static_cast<double>(bytesWritten_ + wearInjectedBytes_) /
        1e12; // terabytes
    return tbw / spec_.enduranceTbw;
}

void
SsdDevice::resetStats()
{
    readLatency_.reset();
    readRate_ = stats::RateMeter();
    writeRate_ = stats::RateMeter();
}

} // namespace tmo::backend
