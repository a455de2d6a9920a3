/**
 * @file
 * Microbenchmarks for the reclaim and fault paths (google-benchmark).
 *
 * §3.4: "reclaim driven by Senpai consumes 0.05% of all CPU cycles, a
 * negligible amount" — these benches quantify the simulator's reclaim
 * scan throughput and the page access/fault hot paths.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "backend/filesystem.hpp"
#include "backend/ssd.hpp"
#include "backend/zswap.hpp"
#include "cgroup/cgroup.hpp"
#include "mem/memory_manager.hpp"
#include "tier/tier_chain.hpp"

using namespace tmo;

namespace
{

constexpr std::uint32_t PAGE = 64 * 1024;

struct Setup {
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd{backend::ssdSpecForClass('C'), 1};
    backend::FilesystemBackend fs{ssd};
    backend::ZswapPool zswap{{}, 2};
    tier::TierChain chain{"zswap", {&zswap}, {}};
    std::unique_ptr<mem::MemoryManager> mm;
    cgroup::Cgroup *cg = nullptr;
    std::vector<mem::PageIdx> pages;

    explicit Setup(std::size_t n)
    {
        mem::MemoryConfig config;
        config.ramBytes = static_cast<std::uint64_t>(n + 1024) * PAGE;
        config.pageBytes = PAGE;
        mm = std::make_unique<mem::MemoryManager>(config, 3);
        cg = &tree.create("bench");
        mm->attach(*cg, &chain, &fs, 3.0);
        pages.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            pages.push_back(mm->newPage(*cg, i % 2 == 0, true, 0));
    }
};

void
BM_AccessResident(benchmark::State &state)
{
    Setup setup(65536);
    std::size_t i = 0;
    sim::SimTime now = 0;
    for (auto _ : state) {
        now += 100;
        benchmark::DoNotOptimize(
            setup.mm->access(setup.pages[i % setup.pages.size()], now));
        ++i;
    }
}
BENCHMARK(BM_AccessResident);

void
BM_ReclaimScanThroughput(benchmark::State &state)
{
    // Pages reclaimed per second of host CPU, steady churn: reclaim a
    // batch, fault it back, repeat.
    Setup setup(16384);
    sim::SimTime now = 0;
    std::int64_t reclaimed = 0;
    for (auto _ : state) {
        now += 6 * sim::SEC;
        const auto outcome =
            setup.mm->reclaim(*setup.cg, 64 * PAGE, now);
        reclaimed += static_cast<std::int64_t>(
            outcome.reclaimedBytes / PAGE);
        state.PauseTiming();
        // Fault everything back outside the timed region.
        for (const auto idx : setup.pages)
            if (!setup.mm->pages()[idx].resident())
                setup.mm->access(idx, now);
        state.ResumeTiming();
    }
    state.SetItemsProcessed(reclaimed);
}
BENCHMARK(BM_ReclaimScanThroughput)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(300); // untimed refill dominates; bound the run

void
BM_FaultFromZswap(benchmark::State &state)
{
    Setup setup(8192);
    sim::SimTime now = 0;
    // Keep a pool of offloaded pages and fault them in one at a time,
    // re-offloading periodically.
    setup.mm->reclaim(*setup.cg, 4096 * PAGE, now);
    std::size_t i = 0;
    for (auto _ : state) {
        now += 1000;
        const auto idx = setup.pages[i % setup.pages.size()];
        if (!setup.mm->pages()[idx].resident()) {
            benchmark::DoNotOptimize(setup.mm->access(idx, now));
        } else {
            state.PauseTiming();
            setup.mm->reclaim(*setup.cg, 256 * PAGE, now);
            state.ResumeTiming();
        }
        ++i;
    }
}
BENCHMARK(BM_FaultFromZswap)->Iterations(50000);

/** Fleet-shaped fixture: many cgroups under one parent. */
struct MultiSetup {
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd{backend::ssdSpecForClass('C'), 1};
    backend::FilesystemBackend fs{ssd};
    backend::ZswapPool zswap{{}, 2};
    tier::TierChain chain{"zswap", {&zswap}, {}};
    std::unique_ptr<mem::MemoryManager> mm;
    cgroup::Cgroup *parent = nullptr;
    std::vector<cgroup::Cgroup *> cgs;
    std::vector<mem::PageIdx> pages;

    MultiSetup(std::size_t n_cg, std::size_t n_pages)
    {
        mem::MemoryConfig config;
        config.ramBytes =
            static_cast<std::uint64_t>(n_pages + 1024) * PAGE;
        config.pageBytes = PAGE;
        mm = std::make_unique<mem::MemoryManager>(config, 3);
        parent = &tree.create("bench");
        for (std::size_t c = 0; c < n_cg; ++c) {
            cgs.push_back(
                &tree.create("cg" + std::to_string(c), parent));
            mm->attach(*cgs.back(), &chain, &fs, 3.0);
        }
        pages.reserve(n_pages);
        for (std::size_t i = 0; i < n_pages; ++i)
            pages.push_back(
                mm->newPage(*cgs[i % n_cg], i % 2 == 0, true, 0));
    }
};

void
BM_MemcgLookup(benchmark::State &state)
{
    // The per-page entry point (newPage / reclaim / controllers):
    // index-map lookup, independent of the cgroup count.
    MultiSetup setup(static_cast<std::size_t>(state.range(0)), 4096);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            setup.mm->memcgOf(*setup.cgs[i % setup.cgs.size()]));
        ++i;
    }
}
BENCHMARK(BM_MemcgLookup)->Arg(4)->Arg(64)->Arg(1024);

void
BM_IdleBreakdown(benchmark::State &state)
{
    // The working-set profiler's per-interval poll of every cgroup at
    // whole seconds: the generation counts answer each poll by summing
    // a few hundred generations, whatever the page-table size.
    MultiSetup setup(64, static_cast<std::size_t>(state.range(0)));
    // Touch 1/64th of the pages "now"; the rest stay cold.
    const sim::SimTime now = sim::HOUR;
    for (std::size_t i = 0; i < setup.pages.size() / 64; ++i)
        setup.mm->access(setup.pages[i], now);
    // The one page-table walk that starts the counts stays untimed.
    benchmark::DoNotOptimize(setup.mm->idleBreakdown(*setup.cgs[0], now));
    std::size_t c = 0;
    for (auto _ : state) {
        // One whole second per round over the cgroups, within a minute
        // of the warm stamps so every bucket has generations to sum.
        const std::size_t round = c / setup.cgs.size();
        const sim::SimTime at = now + (1 + round % 60) * sim::SEC;
        benchmark::DoNotOptimize(setup.mm->idleBreakdown(
            *setup.cgs[c % setup.cgs.size()], at));
        ++c;
    }
}
BENCHMARK(BM_IdleBreakdown)->Arg(65536)->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

void
BM_SubtreeReclaimManyCgroups(benchmark::State &state)
{
    // memory.reclaim on a parent with many attached children: the
    // subtree index hands reclaim its targets directly.
    MultiSetup setup(static_cast<std::size_t>(state.range(0)), 16384);
    sim::SimTime now = 0;
    std::int64_t reclaimed = 0;
    for (auto _ : state) {
        now += 6 * sim::SEC;
        const auto outcome = setup.mm->reclaim(
            *setup.parent, setup.cgs.size() * 2 * PAGE, now);
        reclaimed += static_cast<std::int64_t>(
            outcome.reclaimedBytes / PAGE);
        state.PauseTiming();
        for (const auto idx : setup.pages)
            if (!setup.mm->pages()[idx].resident())
                setup.mm->access(idx, now);
        state.ResumeTiming();
    }
    state.SetItemsProcessed(reclaimed);
}
BENCHMARK(BM_SubtreeReclaimManyCgroups)
    ->Arg(4)->Arg(64)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(100);

} // namespace

BENCHMARK_MAIN();
