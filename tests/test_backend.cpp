/**
 * @file
 * Tests for the offload backends: SSD device model, zswap pool, swap
 * partition, filesystem and NVM tier.
 */

#include <gtest/gtest.h>

#include "backend/filesystem.hpp"
#include "backend/nvm.hpp"
#include "backend/ssd.hpp"
#include "backend/swap_backend.hpp"
#include "backend/zswap.hpp"

using namespace tmo;

// --- SSD ------------------------------------------------------------------

TEST(SsdSpecTest, AllClassesDefined)
{
    for (char c = 'A'; c <= 'G'; ++c) {
        const auto spec = backend::ssdSpecForClass(c);
        EXPECT_GT(spec.readIops, 0.0);
        EXPECT_GT(spec.readP99Us, spec.readMedianUs);
        EXPECT_GT(spec.enduranceTbw, 0.0);
    }
    EXPECT_THROW(backend::ssdSpecForClass('Z'), std::invalid_argument);
}

TEST(SsdSpecTest, LatencyImprovesAcrossGenerations)
{
    // Fig. 5: read p99 spans ~9.3 ms (oldest) down to ~470 us (newest).
    const auto a = backend::ssdSpecForClass('A');
    const auto g = backend::ssdSpecForClass('G');
    EXPECT_NEAR(a.readP99Us, 9300.0, 1.0);
    EXPECT_NEAR(g.readP99Us, 470.0, 1.0);
    double prev = 1e18;
    for (char c = 'A'; c <= 'G'; ++c) {
        const auto spec = backend::ssdSpecForClass(c);
        EXPECT_LE(spec.readP99Us, prev);
        prev = spec.readP99Us;
    }
}

TEST(SsdSpecTest, FastAndSlowDevicesForFig12)
{
    const auto slow = backend::ssdSpecForClass('B');
    const auto fast = backend::ssdSpecForClass('C');
    EXPECT_GT(slow.readP99Us, 3.0 * fast.readP99Us);
    EXPECT_GT(fast.readIops, slow.readIops);
}

TEST(SsdDeviceTest, ReadLatencyNearSpecWhenIdle)
{
    backend::SsdDevice dev(backend::ssdSpecForClass('C'), 1);
    for (int i = 0; i < 5000; ++i)
        dev.read(4096, static_cast<sim::SimTime>(i) * sim::MSEC);
    const auto &hist = dev.readLatency();
    // Median within 2x of spec (queueing adds a bit).
    const auto spec = backend::ssdSpecForClass('C');
    EXPECT_GT(hist.p50(), spec.readMedianUs * 0.5);
    EXPECT_LT(hist.p50(), spec.readMedianUs * 2.0);
    EXPECT_GT(hist.p99(), hist.p50());
}

TEST(SsdDeviceTest, QueueingDelaysBurstReads)
{
    backend::SsdDevice dev(backend::ssdSpecForClass('A'), 2);
    // Issue a large burst at the same instant: later requests queue.
    sim::SimTime first = 0, last = 0;
    for (int i = 0; i < 1000; ++i) {
        const auto lat = dev.read(4096, 0);
        if (i == 0)
            first = lat;
        last = lat;
    }
    EXPECT_GT(last, first * 5);
}

TEST(SsdDeviceTest, WritesAccumulateEndurance)
{
    backend::SsdDevice dev(backend::ssdSpecForClass('B'), 3);
    EXPECT_EQ(dev.bytesWritten(), 0u);
    dev.write(1 << 20, 0);
    dev.write(1 << 20, sim::SEC);
    EXPECT_EQ(dev.bytesWritten(), 2u << 20);
    EXPECT_GT(dev.enduranceUsed(), 0.0);
    EXPECT_LT(dev.enduranceUsed(), 1e-3);
}

TEST(SsdDeviceTest, RatesTrackTraffic)
{
    backend::SsdDevice dev(backend::ssdSpecForClass('C'), 4);
    for (int s = 0; s < 30; ++s) {
        for (int i = 0; i < 10; ++i)
            dev.read(4096, s * sim::SEC + i * sim::MSEC);
        dev.write(1 << 20, s * sim::SEC);
    }
    EXPECT_NEAR(dev.readOpsRate(30 * sim::SEC), 10.0, 3.0);
    EXPECT_EQ(dev.bytesWritten(), 30ull << 20);
}

TEST(SsdDeviceTest, ResetStatsKeepsEndurance)
{
    backend::SsdDevice dev(backend::ssdSpecForClass('C'), 5);
    dev.read(4096, 0);
    dev.write(4096, 0);
    dev.resetStats();
    EXPECT_EQ(dev.readLatency().count(), 0u);
    EXPECT_EQ(dev.bytesWritten(), 4096u);
}

TEST(SsdDeviceTest, WearFarPastEnduranceSaturates)
{
    // 1e9 times the rated endurance is past what a 64-bit byte count
    // holds: the wear saturates instead of converting out of range.
    backend::SsdDevice dev(backend::ssdSpecForClass('C'), 5);
    dev.injectWearFraction(1e9);
    dev.injectWearFraction(1e9);
    EXPECT_GE(dev.enduranceUsed(), 1.0);
    EXPECT_TRUE(dev.degraded());
}

TEST(DeviceLatencyStreamTest, SsdAndNvmDrawTheirSpecLognormal)
{
    // Each device draws its latencies from a stream seeded like an Rng
    // of its own; the draws must equal lognormalMedianP99 over the
    // spec on that Rng, read and write sharing the SSD's stream. The
    // reads are a second apart, so no request queues behind another.
    constexpr std::uint64_t PAGE = 64 * 1024;
    constexpr double MULTIPLIER = 3.5;
    const double units = static_cast<double>(PAGE) / 4096.0;
    const auto spec = backend::ssdSpecForClass('A');
    backend::SsdDevice ssd(spec, 77);
    ssd.injectLatencyMultiplier(MULTIPLIER);
    sim::Rng ssd_ref(77);
    const auto svc_one = sim::fromSeconds(1.0 / spec.readIops);

    auto nvm_spec = backend::nvmSpecPreset("optane");
    nvm_spec.simulatedPageBytes = PAGE;
    backend::NvmBackend nvm(nvm_spec, 78);
    sim::Rng nvm_ref(78);

    for (int i = 0; i < 10'000; ++i) {
        const sim::SimTime now = static_cast<sim::SimTime>(i) * sim::SEC;
        const auto dev_one = sim::fromUsec(
            MULTIPLIER * ssd_ref.lognormalMedianP99(
                             spec.readMedianUs,
                             spec.readP99Us / spec.readMedianUs));
        ASSERT_EQ(ssd.read(PAGE, now),
                  static_cast<sim::SimTime>(
                      units * static_cast<double>(svc_one + dev_one)))
            << "read " << i;

        const auto write_latency =
            sim::fromSeconds(units / spec.writeIops) +
            sim::fromUsec(MULTIPLIER *
                          ssd_ref.lognormalMedianP99(
                              spec.writeMedianUs,
                              spec.writeP99Us / spec.writeMedianUs));
        ASSERT_EQ(ssd.write(PAGE, now + sim::SEC / 2), write_latency)
            << "write " << i;

        const auto load = nvm.load(PAGE, now);
        ASSERT_EQ(load.latency,
                  sim::fromUsec(units * nvm_ref.lognormalMedianP99(
                                            nvm_spec.readMedianUs,
                                            nvm_spec.readP99Us /
                                                nvm_spec.readMedianUs)))
            << "NVM load " << i;
    }
    EXPECT_EQ(ssd.readLatency().count(), 10'000u);
}

// --- zswap ------------------------------------------------------------------

TEST(ZswapTest, CompressorPresets)
{
    const auto zstd = backend::compressorPreset("zstd");
    const auto lz4 = backend::compressorPreset("lz4");
    const auto lzo = backend::compressorPreset("lzo");
    // §5.1: zstd chosen for best ratio; lz4 fastest.
    EXPECT_GT(zstd.ratioFactor, lz4.ratioFactor);
    EXPECT_GT(zstd.ratioFactor, lzo.ratioFactor);
    EXPECT_LT(lz4.compressUs, zstd.compressUs);
    EXPECT_THROW(backend::compressorPreset("gzip"),
                 std::invalid_argument);
}

TEST(ZswapTest, AllocatorPresets)
{
    const auto zbud = backend::allocatorPreset("zbud");
    const auto z3fold = backend::allocatorPreset("z3fold");
    const auto zsmalloc = backend::allocatorPreset("zsmalloc");
    EXPECT_DOUBLE_EQ(zbud.minSlotFraction, 0.5);
    EXPECT_NEAR(z3fold.minSlotFraction, 1.0 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(zsmalloc.minSlotFraction, 0.0);
    EXPECT_THROW(backend::allocatorPreset("slab"),
                 std::invalid_argument);
}

TEST(ZswapTest, StoreCompresses)
{
    backend::ZswapPool pool({}, 1);
    const auto result = pool.store(64 * 1024, 4.0, 0);
    ASSERT_TRUE(result.accepted);
    EXPECT_LT(result.storedBytes, 64u * 1024 / 2);
    EXPECT_GT(result.storedBytes, 0u);
    EXPECT_EQ(pool.usedBytes(), result.storedBytes);
    EXPECT_TRUE(pool.storesInHostDram());
    EXPECT_FALSE(pool.isBlockDevice());
}

TEST(ZswapTest, IncompressiblePagesRejected)
{
    backend::ZswapPool pool({}, 2);
    int rejected = 0;
    for (int i = 0; i < 200; ++i) {
        const auto result = pool.store(64 * 1024, 1.0, 0);
        rejected += !result.accepted;
    }
    // Ratio ~1.0 compresses to ~full size: most stores are rejected.
    EXPECT_GT(rejected, 150);
    EXPECT_EQ(pool.rejectedPages(), static_cast<std::uint64_t>(rejected));
}

TEST(ZswapTest, LoadReleasesAndIsFast)
{
    backend::ZswapPool pool({}, 3);
    const auto stored = pool.store(64 * 1024, 3.0, 0);
    ASSERT_TRUE(stored.accepted);
    const auto load = pool.load(stored.storedBytes, sim::SEC);
    EXPECT_EQ(pool.usedBytes(), 0u);
    EXPECT_FALSE(load.blockIo);
    // §2.5: ~40 us reads from compressed memory.
    EXPECT_LT(load.latency, 200 * sim::USEC);
    EXPECT_GT(load.latency, sim::USEC);
}

TEST(ZswapTest, ZbudStoresAtLeastHalfPage)
{
    backend::ZswapConfig config;
    config.allocator = backend::allocatorPreset("zbud");
    backend::ZswapPool pool(config, 4);
    const auto result = pool.store(64 * 1024, 8.0, 0);
    ASSERT_TRUE(result.accepted);
    // Highly compressible page still consumes >= half a page slot.
    EXPECT_GE(result.storedBytes, 32u * 1024);
}

TEST(ZswapTest, ZsmallocBeatsZbudOnSavings)
{
    backend::ZswapConfig zs, zb;
    zs.allocator = backend::allocatorPreset("zsmalloc");
    zb.allocator = backend::allocatorPreset("zbud");
    backend::ZswapPool pool_zs(zs, 5), pool_zb(zb, 5);
    for (int i = 0; i < 100; ++i) {
        pool_zs.store(64 * 1024, 4.0, 0);
        pool_zb.store(64 * 1024, 4.0, 0);
    }
    EXPECT_LT(pool_zs.usedBytes(), pool_zb.usedBytes());
}

// --- swap partition ---------------------------------------------------------

TEST(SwapBackendTest, StoresFullPagesOnDevice)
{
    backend::SsdDevice dev(backend::ssdSpecForClass('C'), 6);
    backend::SwapBackend swap(dev, 10 << 20);
    const auto result = swap.store(64 * 1024, 4.0, 0);
    ASSERT_TRUE(result.accepted);
    EXPECT_EQ(result.storedBytes, 64u * 1024);
    EXPECT_EQ(swap.usedBytes(), 64u * 1024);
    EXPECT_EQ(dev.bytesWritten(), 64u * 1024);
    EXPECT_TRUE(swap.isBlockDevice());
    EXPECT_FALSE(swap.storesInHostDram());
}

TEST(SwapBackendTest, RejectsWhenFull)
{
    backend::SsdDevice dev(backend::ssdSpecForClass('C'), 7);
    backend::SwapBackend swap(dev, 128 * 1024);
    EXPECT_TRUE(swap.store(64 * 1024, 1.0, 0).accepted);
    EXPECT_TRUE(swap.store(64 * 1024, 1.0, 0).accepted);
    EXPECT_FALSE(swap.store(64 * 1024, 1.0, 0).accepted);
    EXPECT_DOUBLE_EQ(swap.utilization(), 1.0);
}

TEST(SwapBackendTest, LoadIsBlockIo)
{
    backend::SsdDevice dev(backend::ssdSpecForClass('B'), 8);
    backend::SwapBackend swap(dev, 10 << 20);
    const auto stored = swap.store(64 * 1024, 1.0, 0);
    const auto load = swap.load(stored.storedBytes, sim::SEC);
    EXPECT_TRUE(load.blockIo);
    EXPECT_GT(load.latency, 0u);
    EXPECT_EQ(swap.usedBytes(), 0u);
}

TEST(SwapBackendTest, ReleaseFreesSlot)
{
    backend::SsdDevice dev(backend::ssdSpecForClass('C'), 9);
    backend::SwapBackend swap(dev, 1 << 20);
    const auto stored = swap.store(64 * 1024, 1.0, 0);
    swap.release(stored.storedBytes);
    EXPECT_EQ(swap.usedBytes(), 0u);
}

// --- filesystem ---------------------------------------------------------------

TEST(FilesystemTest, CleanDropIsFree)
{
    backend::SsdDevice dev(backend::ssdSpecForClass('C'), 10);
    backend::FilesystemBackend fs(dev);
    const auto result = fs.store(64 * 1024, 1.0, 0);
    EXPECT_TRUE(result.accepted);
    EXPECT_EQ(result.latency, 0u);
    EXPECT_EQ(dev.bytesWritten(), 0u);
}

TEST(FilesystemTest, DirtyPageWritesBack)
{
    backend::SsdDevice dev(backend::ssdSpecForClass('C'), 11);
    backend::FilesystemBackend fs(dev);
    const auto result = fs.store(64 * 1024, -1.0, 0);
    EXPECT_TRUE(result.accepted);
    EXPECT_EQ(dev.bytesWritten(), 64u * 1024);
}

TEST(FilesystemTest, LoadReadsDevice)
{
    backend::SsdDevice dev(backend::ssdSpecForClass('C'), 12);
    backend::FilesystemBackend fs(dev);
    const auto load = fs.load(64 * 1024, 0);
    EXPECT_TRUE(load.blockIo);
    EXPECT_GT(load.latency, 0u);
    EXPECT_EQ(dev.readLatency().count(), 1u);
}
