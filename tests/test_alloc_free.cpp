/**
 * @file
 * Allocation guard for the per-host event loop.
 *
 * A wide fleet is many small hosts, so whatever one simulated
 * host-second costs beyond its simulated work is multiplied by the
 * fleet. This binary replaces the global operator new with a counting
 * one and runs one host of perfbench's wide_fleet shape (96 MiB RAM,
 * 64 KiB pages, zswap:32mb+ssd, a 64 MiB app) per preset under each
 * controller: over simulated minutes 10-20 it must not allocate at
 * all. Controllers keep counters and current values, not per-tick
 * history, so nothing grows with simulated time. It is its own
 * executable so that the replacement counts no other test's
 * allocations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "host/controller_registry.hpp"
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

namespace
{

/** One host shape: an app preset under a named controller. */
struct HostCase {
    std::string preset;
    std::string controller;
};

// Names each case by its contents ("ads_a-senpai"); ctest lists the
// printed value in place of gtest's numeric suffix.
void
PrintTo(const HostCase &param, std::ostream *out)
{
    *out << param.preset << '-' << param.controller;
}

/** Every preset under every controller the CLI knows. */
std::vector<HostCase>
hostCases()
{
    std::vector<HostCase> cases;
    for (const auto &preset : workload::appPresetNames())
        for (const auto &controller : host::knownControllers())
            cases.push_back({preset, controller});
    return cases;
}

} // namespace

class AllocFreeHostTest : public ::testing::TestWithParam<HostCase>
{};

TEST_P(AllocFreeHostTest, SteadyStateHostSecondsAllocateNothing)
{
    const HostCase &param = GetParam();
    auto fleet = host::FleetSpec{}
                     .hosts(1)
                     .seed(42)
                     .ram_mb(96)
                     .page_kb(64)
                     .tiers("zswap:32mb+ssd")
                     .controller(param.controller)
                     .workload(param.preset, 64)
                     .build();
    fleet.start();
    // The host's own clock, without the fleet engine's barriers: this
    // guards the per-host loop (event dispatch, app ticks, PSI, kswapd,
    // the controller, tier maintenance).
    sim::Simulation &clock = fleet.host(0).simulation();
    clock.runUntil(10 * sim::MINUTE);
    const std::uint64_t events_before = clock.dispatched();
    const auto allocations =
        allocationsIn([&] { clock.runUntil(20 * sim::MINUTE); });
    // The window did simulate: at least the app tick and kswapd ran
    // every second.
    EXPECT_GE(clock.dispatched() - events_before, 2u * 600u);
    EXPECT_EQ(allocations, 0u)
        << ::testing::PrintToString(param) << ": " << allocations
        << " allocations over simulated minutes 10-20";
}

INSTANTIATE_TEST_SUITE_P(Presets, AllocFreeHostTest,
                         ::testing::ValuesIn(hostCases()));
