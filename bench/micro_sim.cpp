/**
 * @file
 * Microbenchmarks for the simulation core (google-benchmark): event
 * dispatch, periodic re-arming, and the per-tick PSI timeline replay.
 * Every host pays these once per simulated second or more, so on a
 * wide fleet of small hosts they are most of the run.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cgroup/cgroup.hpp"
#include "psi/psi.hpp"
#include "sched/task.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

using namespace tmo;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    // A steady queue of 64 pending events; each iteration schedules
    // one, cancels every fourth, and runs the earliest. The callable
    // captures 40 bytes, more than std::function stores inline, so
    // each schedule pays one allocation for it.
    sim::EventQueue queue;
    std::uint64_t sink = 0;
    const std::array<std::uint64_t, 4> payload{1, 2, 3, 4};
    sim::SimTime when = 0;
    for (int i = 0; i < 64; ++i)
        queue.schedule(++when, [&sink, payload] { sink += payload[0]; });
    std::uint64_t n = 0;
    for (auto _ : state) {
        const auto id = queue.schedule(
            ++when, [&sink, payload] { sink += payload[1]; });
        if (++n % 4 == 0) {
            queue.cancel(id);
            queue.schedule(++when,
                           [&sink, payload] { sink += payload[2]; });
        }
        queue.runNext();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_SimulationEvery(benchmark::State &state)
{
    // Eight periodic services on one clock, like a host's app tick,
    // kswapd, PSI averaging and controllers; one iteration runs one
    // period of each.
    sim::Simulation simulation;
    std::uint64_t ticks = 0;
    for (int i = 0; i < 8; ++i)
        simulation.every(sim::SEC, [&ticks] {
            ++ticks;
            return true;
        });
    sim::SimTime deadline = 0;
    for (auto _ : state) {
        deadline += sim::SEC;
        simulation.runUntil(deadline);
    }
    benchmark::DoNotOptimize(ticks);
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SimulationEvery);

void
BM_ReplayTimelines(benchmark::State &state)
{
    // One app tick's replay of 8 tasks. wide_fleet:0 gives each task 5
    // segments (run, wait, memory, memory+IO and IO stall), offset so
    // they overlap. wide_fleet:1 is a perfbench wide_fleet tick: each
    // task runs one block of 40-60 ms at a random offset in the second
    // and never stalls (seeded draws, made before timing).
    const bool wide_fleet = state.range(0) != 0;
    cgroup::CgroupTree tree;
    auto &cg = tree.create("app");
    std::vector<std::unique_ptr<sched::Task>> tasks;
    std::vector<sched::TaskTimeline> timelines(8);
    for (std::size_t t = 0; t < timelines.size(); ++t) {
        tasks.push_back(
            std::make_unique<sched::Task>(cg, "w" + std::to_string(t)));
        timelines[t].task = tasks.back().get();
    }
    const unsigned states[5] = {psi::TSK_ONCPU, psi::TSK_RUNNABLE,
                                psi::TSK_MEMSTALL,
                                psi::TSK_MEMSTALL | psi::TSK_IOWAIT,
                                psi::TSK_IOWAIT};
    sim::Rng rng(42);
    std::vector<sched::Segment> blocks(1024 * timelines.size());
    for (auto &block : blocks) {
        block.duration = (40 + rng.uniformInt(21)) * sim::MSEC;
        block.start = rng.uniformInt(sim::SEC - block.duration + 1);
        block.state = psi::TSK_ONCPU;
    }
    std::vector<sched::Transition> scratch;
    sim::SimTime start = 0;
    std::size_t next = 0;
    for (auto _ : state) {
        for (std::size_t t = 0; t < timelines.size(); ++t) {
            auto &segments = timelines[t].segments;
            segments.clear();
            if (wide_fleet) {
                sched::Segment block = blocks[next++ % blocks.size()];
                block.start += start;
                segments.push_back(block);
                continue;
            }
            sim::SimTime at = start + t * 10 * sim::MSEC;
            for (int s = 0; s < 5; ++s) {
                segments.push_back({at, 100 * sim::MSEC, states[s]});
                at += 100 * sim::MSEC + (s % 2) * 20 * sim::MSEC;
            }
        }
        start += sim::SEC;
        sched::replayTimelines(timelines, start, scratch);
    }
    benchmark::DoNotOptimize(cg.psi().totalSome(psi::Resource::MEM, start));
    benchmark::DoNotOptimize(cg.psi().nonIdleTime());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReplayTimelines)->ArgName("wide_fleet")->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
