/**
 * @file
 * Allocation guard for the per-host event loop.
 *
 * A wide fleet is many small hosts, so whatever one simulated
 * host-second costs beyond its simulated work is multiplied by the
 * fleet. This binary replaces the global operator new with a counting
 * one and runs one host of perfbench's wide_fleet shape (96 MiB RAM,
 * 64 KiB pages, zswap:32mb+ssd, senpai, a 64 MiB app) per preset: over
 * simulated minutes 10-20 it may allocate at most a handful of times.
 * What remains is amortized growth of recorded history, such as
 * Senpai's TimeSeries; event dispatch and the app tick allocate
 * nothing. It is its own executable so that the replacement counts
 * no other test's allocations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "host/fleet.hpp"
#include "sim/simulation.hpp"
#include "workload/app_profile.hpp"

namespace
{

// Counted only inside allocationsIn(), on the test's own thread: every
// host here runs serially.
bool g_counting = false;
std::uint64_t g_allocations = 0;

/** operator new's body. A helper: with malloc written inline in
 *  operator new, GCC's -Wmismatched-new-delete flags the frees in
 *  operator delete. */
void *
countedAlloc(std::size_t size)
{
    if (g_counting)
        ++g_allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

/** Allocations made by @p fn. */
std::uint64_t
allocationsIn(const std::function<void()> &fn)
{
    g_allocations = 0;
    g_counting = true;
    fn();
    g_counting = false;
    return g_allocations;
}

} // namespace

// The library's array and nothrow forms call these; no type in the
// tree is over-aligned.
void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace tmo;

TEST(AllocFreeTest, CounterSeesAllocations)
{
    // The guard below is only as good as the replacement it counts
    // through. The pointers outlive the window, so no new/delete pair
    // can be elided.
    std::vector<std::unique_ptr<int>> kept;
    kept.reserve(3);
    const auto n = allocationsIn([&] {
        for (int i = 0; i < 3; ++i)
            kept.push_back(std::make_unique<int>(i));
    });
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(*kept[2], 2);
}

class AllocFreeHostTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(AllocFreeHostTest, SteadyStateHostSecondsAllocateNothing)
{
    auto fleet = host::FleetSpec{}
                     .hosts(1)
                     .seed(42)
                     .ram_mb(96)
                     .page_kb(64)
                     .tiers("zswap:32mb+ssd")
                     .controller("senpai")
                     .workload(GetParam(), 64)
                     .build();
    fleet.start();
    // The host's own clock, without the fleet engine's barriers: this
    // guards the per-host loop (event dispatch, app ticks, PSI, kswapd,
    // Senpai, tier maintenance).
    sim::Simulation &clock = fleet.host(0).simulation();
    clock.runUntil(10 * sim::MINUTE);
    const std::uint64_t events_before = clock.dispatched();
    const auto allocations =
        allocationsIn([&] { clock.runUntil(20 * sim::MINUTE); });
    // The window did simulate: at least the app tick and kswapd ran
    // every second.
    EXPECT_GE(clock.dispatched() - events_before, 2u * 600u);
    EXPECT_LE(allocations, 10u)
        << GetParam() << ": " << allocations
        << " allocations over simulated minutes 10-20";
}

INSTANTIATE_TEST_SUITE_P(
    Presets, AllocFreeHostTest,
    ::testing::ValuesIn(workload::appPresetNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });
