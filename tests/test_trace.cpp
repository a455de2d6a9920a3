/**
 * @file
 * Tests for the trace-replay workload and the synthetic trace
 * generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "backend/filesystem.hpp"
#include "backend/ssd.hpp"
#include "backend/zswap.hpp"
#include "core/senpai.hpp"
#include "host/host.hpp"
#include "tier/tier_chain.hpp"
#include "workload/trace.hpp"

using namespace tmo;
using workload::TraceRecord;

namespace
{

constexpr std::uint32_t PAGE = 64 * 1024;

host::HostConfig
hostConfig()
{
    host::HostConfig config;
    config.mem.ramBytes = 1ull << 30;
    config.mem.pageBytes = PAGE;
    return config;
}

/** Expect synthesizeTrace(@p config) to throw std::invalid_argument
 *  whose message names @p field. */
void
expectRejects(const workload::TraceSynthesisConfig &config,
              const std::string &field)
{
    try {
        workload::synthesizeTrace(config, 1);
        ADD_FAILURE() << "no error naming " << field;
    } catch (const std::invalid_argument &err) {
        EXPECT_NE(std::string(err.what()).find(field), std::string::npos)
            << err.what();
    }
}

} // namespace

TEST(TraceSynthesisTest, DeterministicAndSorted)
{
    workload::TraceSynthesisConfig config;
    config.pages = 1000;
    config.duration = sim::MINUTE;
    const auto a = workload::synthesizeTrace(config, 7);
    const auto b = workload::synthesizeTrace(config, 7);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GT(a.size(), 10000u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].page, b[i].page);
        if (i) {
            EXPECT_GE(a[i].time, a[i - 1].time);
        }
        EXPECT_LT(a[i].page, 1000u);
    }
}

TEST(TraceSynthesisTest, WorkingSetIsSkewed)
{
    workload::TraceSynthesisConfig config;
    config.pages = 1000;
    config.workingSetFraction = 0.2;
    config.scanFraction = 0.0;
    const auto trace = workload::synthesizeTrace(config, 8);
    std::uint64_t in_ws = 0;
    for (const auto &record : trace)
        in_ws += record.page < 200;
    EXPECT_EQ(in_ws, trace.size()); // all inside the working set
}

TEST(TraceSynthesisTest, PhaseShiftMovesWorkingSet)
{
    workload::TraceSynthesisConfig config;
    config.pages = 1000;
    config.workingSetFraction = 0.2;
    config.scanFraction = 0.0;
    config.phaseShift = true;
    const auto trace = workload::synthesizeTrace(config, 9);
    std::uint64_t late_high = 0, late_total = 0;
    for (const auto &record : trace) {
        if (record.time > config.duration / 2) {
            ++late_total;
            late_high += record.page >= 800;
        }
    }
    EXPECT_EQ(late_high, late_total); // second phase uses the far region
}

TEST(TraceSynthesisTest, RejectsEmptyAddressSpace)
{
    // With no page to pick, the scan tail would draw from [0, 0).
    workload::TraceSynthesisConfig config;
    config.pages = 0;
    expectRejects(config, "pages");
}

TEST(TraceSynthesisTest, RejectsWorkingSetFractionOutsideUnitInterval)
{
    // A working set larger than the address space would put the
    // shifted phase below page 0, where the base wraps.
    workload::TraceSynthesisConfig config;
    config.phaseShift = true;
    for (const double fraction : {1.5, 0.0, -0.25, std::nan("")}) {
        config.workingSetFraction = fraction;
        expectRejects(config, "workingSetFraction");
    }
    // The whole address space is a valid working set.
    config.workingSetFraction = 1.0;
    config.duration = sim::MINUTE;
    for (const auto &record : workload::synthesizeTrace(config, 2))
        ASSERT_LT(record.page, config.pages);
}

TEST(TraceWorkloadTest, RejectsMalformedTraces)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &cg = machine.createContainer("trace");
    tier::TierChain chain("zswap", {&machine.zswap()}, {});
    machine.memory().attach(cg, &chain, &machine.filesystem());
    EXPECT_THROW(workload::TraceWorkload(
                     simulation, machine.memory(), cg,
                     {{sim::SEC, 0, false}, {0, 0, false}}, 10),
                 std::invalid_argument);
    EXPECT_THROW(workload::TraceWorkload(simulation, machine.memory(),
                                         cg, {{0, 99, false}}, 10),
                 std::out_of_range);
}

TEST(TraceWorkloadTest, FirstTouchAllocates)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &cg = machine.createContainer("trace");
    tier::TierChain chain("zswap", {&machine.zswap()}, {});
    machine.memory().attach(cg, &chain, &machine.filesystem());

    // Touch 3 distinct anon pages and 1 file page (beyond the 70%
    // anon split of a 10-page space).
    std::vector<TraceRecord> records = {
        {1 * sim::MSEC, 0, false},
        {2 * sim::MSEC, 1, true},
        {3 * sim::MSEC, 2, false},
        {4 * sim::MSEC, 9, false},
        {5 * sim::MSEC, 0, false}, // repeat: no new allocation
    };
    workload::TraceWorkload trace(simulation, machine.memory(), cg,
                                  records, 10);
    trace.start();
    simulation.runUntil(10 * sim::SEC);

    EXPECT_TRUE(trace.finished());
    EXPECT_EQ(trace.stats().accesses, 5u);
    EXPECT_EQ(trace.allocatedBytes(), 4ull * PAGE);
    EXPECT_EQ(cg.memCurrent(), 4ull * PAGE);
    // The file page's first read faulted through the filesystem.
    EXPECT_GE(trace.stats().faults, 1u);
    EXPECT_GT(trace.stats().ioStall, 0u);
}

TEST(TraceWorkloadTest, StallsReachPsi)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &cg = machine.createContainer("trace");
    tier::TierChain chain("zswap", {&machine.zswap()}, {});
    machine.memory().attach(cg, &chain, &machine.filesystem());

    workload::TraceSynthesisConfig config;
    config.pages = 2048;
    config.duration = 2 * sim::MINUTE;
    config.accessesPerSec = 500;
    auto records = workload::synthesizeTrace(config, 11);
    workload::TraceWorkload trace(simulation, machine.memory(), cg,
                                  std::move(records), 2048);
    machine.start();
    trace.start();
    simulation.runUntil(30 * sim::SEC);
    // Evict everything: subsequent accesses must refault and stall.
    machine.memory().reclaim(cg, 1ull << 30, simulation.now());
    simulation.runUntil(3 * sim::MINUTE);

    EXPECT_GT(trace.stats().refaults + trace.stats().faults, 0u);
    EXPECT_GT(cg.psi().totalSome(psi::Resource::MEM, simulation.now()),
              0u);
}

TEST(TraceWorkloadTest, ComposesWithSenpai)
{
    // The headline property: a replayed trace is a first-class
    // workload — Senpai offloads its cold pages like any other.
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &cg = machine.createContainer("trace");
    tier::TierChain chain("zswap", {&machine.zswap()}, {});
    machine.memory().attach(cg, &chain, &machine.filesystem(), 3.0);

    workload::TraceSynthesisConfig config;
    config.pages = 4096;
    config.duration = 20 * sim::MINUTE;
    config.accessesPerSec = 400;
    config.workingSetFraction = 0.2; // 80% of touched pages go cold
    config.scanFraction = 0.3;       // one-time scans build cold tail
    auto records = workload::synthesizeTrace(config, 12);
    workload::TraceWorkload trace(simulation, machine.memory(), cg,
                                  std::move(records), 4096);
    machine.start();
    trace.start();
    simulation.runUntil(5 * sim::MINUTE);
    const auto before = cg.memCurrent();

    core::Senpai senpai(simulation, machine.memory(), cg,
                        core::senpaiProductionConfig());
    senpai.start();
    simulation.runUntil(20 * sim::MINUTE);
    EXPECT_LT(cg.memCurrent(), before);
    EXPECT_GT(cg.stats().pgsteal, 0u);
}

TEST(TraceWorkloadTest, PhaseShiftCausesRefaultWave)
{
    // A working-set transition after offloading: the new phase's
    // region was reclaimed as cold and now refaults — the §3.2 case
    // PSI distinguishes from steady-state thrashing.
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &cg = machine.createContainer("trace");
    tier::TierChain chain("zswap", {&machine.zswap()}, {});
    machine.memory().attach(cg, &chain, &machine.filesystem());

    workload::TraceSynthesisConfig config;
    config.pages = 4096;
    config.duration = 10 * sim::MINUTE;
    config.accessesPerSec = 800;
    config.phaseShift = true;
    config.scanFraction = 0.2;
    auto records = workload::synthesizeTrace(config, 13);
    workload::TraceWorkload trace(simulation, machine.memory(), cg,
                                  std::move(records), 4096);
    machine.start();
    trace.start();

    // Just before the shift, evict the (currently cold) far region.
    simulation.runUntil(5 * sim::MINUTE - 10 * sim::SEC);
    machine.memory().reclaim(cg, 1ull << 30, simulation.now());
    const auto faults_before = trace.stats().faults;
    simulation.runUntil(7 * sim::MINUTE);
    EXPECT_GT(trace.stats().faults, faults_before + 100);
}
