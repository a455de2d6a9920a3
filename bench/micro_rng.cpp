/**
 * @file
 * Microbenchmarks for the simulator's RNG and samplers
 * (google-benchmark). Access generation is the simulator's innermost
 * loop, so these bound overall simulation throughput.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "sim/rng.hpp"
#include "stats/histogram.hpp"

using namespace tmo;

namespace
{

void
BM_RngNext(benchmark::State &state)
{
    sim::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_RngUniformInt(benchmark::State &state)
{
    sim::Rng rng(2);
    // The simulator's bounds are run-time data: a constant one would
    // let the inline uniformInt fold its divide into a multiply.
    std::uint64_t n = 1000003;
    benchmark::DoNotOptimize(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.uniformInt(n));
}
BENCHMARK(BM_RngUniformInt);

void
BM_RngLognormal(benchmark::State &state)
{
    // An SSD or NVM device computes its spec's (mu, sigma) once; each
    // latency draw is one normal and one exp.
    sim::Rng rng(3);
    const sim::LognormalParams params =
        sim::Rng::lognormalParams(100.0, 10.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.lognormal(params.mu, params.sigma));
}
BENCHMARK(BM_RngLognormal);

void
BM_ZipfSample(benchmark::State &state)
{
    sim::Rng rng(4);
    sim::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)),
                          0.9);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(1024)->Arg(1 << 20);

void
BM_HistogramAdd(benchmark::State &state)
{
    // SSD-read-shaped latencies drawn up front, so the loop times
    // add() alone: its bucket comes from the bound table.
    stats::Histogram hist(0.1, 1e7);
    sim::Rng rng(5);
    std::vector<double> samples(4096);
    for (double &sample : samples)
        sample = rng.lognormalMedianP99(100.0, 10.0);
    std::size_t i = 0;
    for (auto _ : state) {
        hist.add(samples[i]);
        benchmark::ClobberMemory();
        i = (i + 1) % samples.size();
    }
}
BENCHMARK(BM_HistogramAdd);

void
BM_HistogramQuantile(benchmark::State &state)
{
    stats::Histogram hist(0.1, 1e7);
    sim::Rng rng(6);
    for (int i = 0; i < 100000; ++i)
        hist.add(rng.lognormalMedianP99(100.0, 10.0));
    for (auto _ : state)
        benchmark::DoNotOptimize(hist.p99());
}
BENCHMARK(BM_HistogramQuantile);

} // namespace

BENCHMARK_MAIN();
