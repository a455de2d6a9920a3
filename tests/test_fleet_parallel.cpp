/**
 * @file
 * The parallel fleet engine's contract: sharded execution is an
 * implementation detail. For any job count and any epoch length,
 * collect() vectors and final per-host stats are bit-identical to the
 * serial run — the property that lets every fleet experiment use all
 * cores without a determinism caveat. Plus coverage for the
 * FleetSpec/HostBuilder configuration layer and the controller
 * registry behind --controller.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "host/controller_registry.hpp"
#include "host/fault_plan.hpp"
#include "host/fleet.hpp"
#include "sim/sharded_executor.hpp"
#include "stats/histogram.hpp"
#include "stats/table.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace
{

host::FleetSpec
fleetSpec(std::uint64_t seed, sim::SimTime epoch)
{
    return host::FleetSpec{}
        .hosts(16)
        .epoch(epoch)
        .name_prefix("shard")
        .ram_mb(256)
        .page_kb(64)
        .cpus(8)
        .seed(seed)
        .tiers("zswap")
        .workload("feed", 192)
        .controller("senpai");
}

/**
 * Everything a fleet run can disagree about, as one flat vector in
 * host-index order: memory/vmstat counters, device wear, RPS, and the
 * PSI stall totals the paper's percentiles are computed from.
 */
std::vector<double>
runDigest(std::uint64_t seed, unsigned jobs, sim::SimTime epoch,
          sim::SimTime duration = 2 * sim::MINUTE)
{
    host::Fleet fleet = fleetSpec(seed, epoch).build();
    fleet.start();
    fleet.run(duration, jobs);

    std::vector<double> digest;
    const auto append = [&](const std::function<double(host::Host &)>
                                &metric) {
        for (double value : fleet.collect(metric))
            digest.push_back(value);
    };
    const auto cg = [](host::Host &h) -> cgroup::Cgroup & {
        return h.apps().front()->cgroup();
    };
    append([&](host::Host &h) {
        return static_cast<double>(cg(h).memCurrent());
    });
    append([&](host::Host &h) {
        return static_cast<double>(cg(h).stats().pswpin);
    });
    append([&](host::Host &h) {
        return static_cast<double>(cg(h).stats().pswpout);
    });
    append([&](host::Host &h) {
        return static_cast<double>(cg(h).stats().wsRefault);
    });
    append([&](host::Host &h) {
        return static_cast<double>(h.ssd().bytesWritten());
    });
    append([&](host::Host &h) {
        return h.apps().front()->lastTick().completedRps;
    });
    append([&](host::Host &h) {
        return static_cast<double>(cg(h).psi().totalSome(
            psi::Resource::MEM, h.simulation().now()));
    });
    append([&](host::Host &h) {
        return static_cast<double>(cg(h).psi().totalSome(
            psi::Resource::IO, h.simulation().now()));
    });
    return digest;
}

} // namespace

TEST(FleetParallelTest, SerialAndParallelBitIdentical)
{
    // The tentpole guarantee, over three seeds: a 16-host fleet under
    // --jobs 4 produces exactly the serial collect() vectors and
    // final PSI/savings stats.
    for (const std::uint64_t seed : {1ull, 42ull, 777ull}) {
        const auto serial = runDigest(seed, 1, sim::MINUTE);
        const auto parallel = runDigest(seed, 4, sim::MINUTE);
        EXPECT_EQ(serial, parallel) << "seed " << seed;
    }
}

TEST(FleetParallelTest, EpochLengthDoesNotChangeResults)
{
    // Shards never interact, so the barrier period is free to tune
    // for wall-clock without a determinism caveat.
    const auto coarse = runDigest(42, 4, sim::MINUTE);
    const auto fine = runDigest(42, 4, 10 * sim::SEC);
    const auto fine_serial = runDigest(42, 1, 10 * sim::SEC);
    EXPECT_EQ(coarse, fine);
    EXPECT_EQ(coarse, fine_serial);
}

TEST(FleetParallelTest, MoreJobsThanShardsIsHarmless)
{
    const auto modest = runDigest(7, 2, sim::MINUTE, 30 * sim::SEC);
    const auto oversubscribed =
        runDigest(7, 32, sim::MINUTE, 30 * sim::SEC);
    EXPECT_EQ(modest, oversubscribed);
}

TEST(FleetParallelTest, RunLeavesEveryShardAtTheDeadline)
{
    host::Fleet fleet = fleetSpec(3, 20 * sim::SEC).build();
    fleet.start();
    fleet.run(90 * sim::SEC, 4); // not a multiple of the epoch
    EXPECT_EQ(fleet.now(), 90 * sim::SEC);
    for (std::size_t i = 0; i < fleet.size(); ++i)
        EXPECT_EQ(fleet.simulationOf(i).now(), 90 * sim::SEC);
}

namespace
{

/** Everything hierarchical aggregation could disagree about. */
struct AggregationDigest {
    /** collect() vectors, restart counters, merged-histogram stats,
     *  and metric-series sample values, flattened. */
    std::vector<double> values;
    /** metricSeries() names in order (host-prefixed). */
    std::vector<std::string> seriesNames;

    bool operator==(const AggregationDigest &) const = default;
};

/**
 * Run a 72-host serving fleet — two fixed 64-host aggregation groups,
 * so group pre-merge and the group-order combine are both exercised —
 * through a crash-and-restart (host 3) and a crash-until-permanent
 * failure (host 70), then digest every aggregation surface: collect()
 * vectors, the merged request-latency histogram, and metricSeries().
 */
AggregationDigest
aggregationDigest(unsigned jobs)
{
    host::Fleet fleet = host::FleetSpec{}
                            .hosts(72)
                            .epoch(30 * sim::SEC)
                            .name_prefix("agg")
                            .ram_mb(192)
                            .page_kb(64)
                            .cpus(8)
                            .seed(2024)
                            .tiers("zswap")
                            .workload("feed", 128)
                            .traffic("flat:rps=40")
                            .controller("senpai")
                            .restart({.maxAttempts = 1,
                                      .backoff = 30 * sim::SEC})
                            .customize([](std::size_t i,
                                          host::HostBuilder &builder) {
                                // Host 3 crashes once and rejoins at
                                // the 90 s barrier; host 70 (second
                                // aggregation group) also crashes
                                // again 10 s after that rebuild, past
                                // its budget of one attempt —
                                // permanently failed.
                                if (i == 3)
                                    builder.faults(
                                        host::FaultPlan::parseString(
                                            "t=40 kind=host-crash\n"));
                                if (i == 70)
                                    builder.faults(
                                        host::FaultPlan::parseString(
                                            "t=40 kind=host-crash\n"
                                            "t=100 kind=host-crash\n"));
                            })
                            .build();
    fleet.enableMetrics(15 * sim::SEC);
    fleet.start();

    fleet.run(3 * sim::MINUTE, jobs);

    AggregationDigest digest;
    digest.values.push_back(
        static_cast<double>(fleet.restartedCount()));
    digest.values.push_back(static_cast<double>(fleet.failedCount()));
    digest.values.push_back(
        static_cast<double>(fleet.permanentlyFailedCount()));
    const auto append = [&](const std::function<double(host::Host &)>
                                &metric) {
        for (double value : fleet.collect(metric))
            digest.values.push_back(value);
    };
    append([](host::Host &h) {
        return static_cast<double>(
            h.apps().front()->cgroup().memCurrent());
    });
    append([](host::Host &h) {
        return static_cast<double>(
            h.apps().front()->cgroup().stats().pswpin);
    });
    append([](host::Host &h) {
        return h.apps().front()->lastTick().completedRps;
    });

    const stats::Histogram merged = fleet.mergeHistograms(
        [](host::Host &machine)
            -> std::vector<const stats::Histogram *> {
            std::vector<const stats::Histogram *> hists;
            for (const auto &app : machine.apps())
                if (app->servingRequests())
                    hists.push_back(&app->requests().latencyUs);
            return hists;
        });
    digest.values.push_back(static_cast<double>(merged.count()));
    digest.values.push_back(merged.min());
    digest.values.push_back(merged.max());
    digest.values.push_back(merged.mean());
    digest.values.push_back(merged.p50());
    digest.values.push_back(merged.p99());
    digest.values.push_back(merged.p999());

    for (const auto &series : fleet.metricSeries()) {
        digest.seriesNames.push_back(series.name());
        digest.values.push_back(static_cast<double>(series.size()));
        for (const auto &sample : series.samples())
            digest.values.push_back(sample.value);
    }
    return digest;
}

} // namespace

TEST(FleetAggregationTest, HierarchicalGatherBitIdenticalAcrossJobs)
{
    // The S4 property: shard-group pre-merged histograms, collect()
    // vectors, and metric series are byte-identical to the flat
    // serial gather for every job count, including a fleet where one
    // host restarted and another failed permanently.
    const AggregationDigest serial = aggregationDigest(1);
    EXPECT_EQ(serial.values[0], 2.0) << "expected two rebuilds";
    EXPECT_EQ(serial.values[1], 1.0) << "expected one failed host";
    EXPECT_EQ(serial.values[2], 1.0)
        << "expected one permanently failed host";
    EXPECT_FALSE(serial.seriesNames.empty());
    for (const unsigned jobs : {2u, 4u, 8u}) {
        const AggregationDigest parallel = aggregationDigest(jobs);
        EXPECT_EQ(serial, parallel) << "jobs " << jobs;
    }
}

TEST(FleetAggregationTest, AllHostsFailedYieldsEmptyAggregates)
{
    // The S3 contract at the source: once every host is down,
    // collect() is empty (consumers print "no data" instead of
    // indexing values[0]) and the merged histogram has no samples.
    host::Fleet fleet = host::FleetSpec{}
                            .hosts(2)
                            .epoch(30 * sim::SEC)
                            .ram_mb(192)
                            .page_kb(64)
                            .seed(5)
                            .workload("feed", 128)
                            .traffic("flat:rps=20")
                            .faults(host::FaultPlan::parseString(
                                "t=40 kind=host-crash\n"))
                            .build();
    fleet.start();
    fleet.run(2 * sim::MINUTE, 2);

    ASSERT_EQ(fleet.failedCount(), fleet.size());
    const auto values =
        fleet.collect([](host::Host &) { return 1.0; });
    EXPECT_TRUE(values.empty());
    EXPECT_EQ(stats::fmtQuantile(values, 0.5, 2), "no data");
    const stats::Histogram merged = fleet.mergeHistograms(
        [](host::Host &machine)
            -> std::vector<const stats::Histogram *> {
            std::vector<const stats::Histogram *> hists;
            for (const auto &app : machine.apps())
                if (app->servingRequests())
                    hists.push_back(&app->requests().latencyUs);
            return hists;
        });
    EXPECT_EQ(merged.count(), 0u);
}

TEST(ShardedExecutorTest, RunsEveryIndexExactlyOnce)
{
    sim::ShardedExecutor executor(4);
    EXPECT_EQ(executor.jobs(), 4u);
    std::vector<int> hits(1000, 0);
    // Each index is claimed by exactly one lane, so no two threads
    // ever touch the same element.
    executor.parallelFor(hits.size(),
                         [&](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ShardedExecutorTest, ReusableAcrossRounds)
{
    sim::ShardedExecutor executor(3);
    std::vector<int> counters(64, 0);
    for (int round = 0; round < 10; ++round)
        executor.parallelFor(counters.size(),
                             [&](std::size_t i) { counters[i] += 1; });
    for (int value : counters)
        EXPECT_EQ(value, 10);
}

TEST(HostBuilderTest, PageKbRejectsZeroAndUint32Overflow)
{
    // pageBytes is 32-bit: page_kb(1 << 22) used to wrap the shift
    // to pageBytes == 0 and divide-by-zero deep in the page-count
    // math. The builder now rejects out-of-range sizes by name.
    host::HostBuilder builder;
    EXPECT_THROW(builder.page_kb(0), std::invalid_argument);
    EXPECT_THROW(builder.page_kb(std::uint64_t{1} << 22),
                 std::invalid_argument);
    EXPECT_THROW(builder.page_kb(std::uint64_t{1} << 40),
                 std::invalid_argument);
    // The boundary value still fits: 4 GiB - 1 KiB pages are absurd
    // but representable; 64 KiB is the stock configuration.
    EXPECT_NO_THROW(builder.page_kb((std::uint64_t{1} << 22) - 1));
    EXPECT_NO_THROW(builder.page_kb(64));
}

TEST(ControllerRegistryTest, KnowsTheCliVocabulary)
{
    for (const char *name : {"none", "senpai", "senpai-aggressive",
                             "senpai-slo", "tmo", "gswap"})
        EXPECT_TRUE(host::isKnownController(name)) << name;
    EXPECT_FALSE(host::isKnownController("bogus"));
    EXPECT_EQ(host::knownControllers().size(), 6u);
    EXPECT_THROW(host::controllerFactoryFor("bogus"),
                 std::invalid_argument);
}

TEST(ControllerRegistryTest, DispatchGoesThroughTheInterface)
{
    // One host, two containers; every named policy builds, starts,
    // and stops through core::Controller alone.
    for (const std::string name :
         {"senpai", "senpai-aggressive", "tmo", "gswap"}) {
        host::Fleet fleet = host::FleetSpec{}
                                .hosts(1)
                                .ram_mb(256)
                                .page_kb(64)
                                .workload("feed", 64)
                                .workload("web", 64)
                                .controller(name)
                                .build();
        core::Controller *controller = fleet.host(0).controller();
        ASSERT_NE(controller, nullptr) << name;
        EXPECT_FALSE(controller->running()) << name;
        fleet.start();
        EXPECT_TRUE(controller->running()) << name;
        EXPECT_FALSE(controller->statsRow().empty()) << name;
        controller->stop();
        EXPECT_FALSE(controller->running()) << name;
    }
}

TEST(ControllerRegistryTest, NoneMeansNoController)
{
    host::Fleet fleet = host::FleetSpec{}
                            .hosts(1)
                            .ram_mb(256)
                            .page_kb(64)
                            .workload("feed", 64)
                            .controller("none")
                            .build();
    EXPECT_EQ(fleet.host(0).controller(), nullptr);
}

TEST(FleetSpecTest, BuildsWhatItDeclares)
{
    host::Fleet fleet =
        host::FleetSpec{}
            .hosts(3)
            .name_prefix("n")
            .ram_mb(512)
            .page_kb(64)
            .ssd_class('B')
            .workload("feed", 128)
            .controller("tmo")
            .customize([](std::size_t i, host::HostBuilder &builder) {
                if (i == 2)
                    builder.ssd_class('G');
            })
            .build();
    ASSERT_EQ(fleet.size(), 3u);
    EXPECT_EQ(fleet.host(0).name(), "n0");
    EXPECT_EQ(fleet.host(2).name(), "n2");
    EXPECT_EQ(fleet.host(0).memory().ramCapacity(), 512ull << 20);
    EXPECT_EQ(fleet.host(0).ssd().spec().name, "ssd-B");
    EXPECT_EQ(fleet.host(2).ssd().spec().name, "ssd-G");
    ASSERT_EQ(fleet.host(1).apps().size(), 1u);
    ASSERT_NE(fleet.host(1).controller(), nullptr);
    EXPECT_EQ(fleet.host(1).controller()->name(), "tmo");
    // Same spec, distinct deterministic seeds per host index.
    EXPECT_NE(fleet.host(0).config().seed, fleet.host(1).config().seed);
}

TEST(FleetSpecTest, BackendAppliesRegardlessOfFluentOrder)
{
    // workload() before backend(): the default mode is resolved at
    // build time, so the chain reads naturally in any order.
    host::Fleet fleet = host::FleetSpec{}
                            .hosts(1)
                            .ram_mb(256)
                            .page_kb(64)
                            .workload("ads_a", 128)
                            .tiers("ssd")
                            .build();
    fleet.start();
    fleet.run(5 * sim::SEC);
    auto &machine = fleet.host(0);
    machine.memory().reclaim(machine.apps().front()->cgroup(),
                             64ull << 20, fleet.now());
    EXPECT_GT(machine.swap().usedBytes(), 0u);
    EXPECT_EQ(machine.zswap().usedBytes(), 0u);
}

TEST(FleetSpecTest, UnknownWorkloadOrControllerThrowEarly)
{
    EXPECT_THROW(host::FleetSpec{}.workload("not-an-app"),
                 std::invalid_argument);
    EXPECT_THROW(host::FleetSpec{}.controller("not-a-controller"),
                 std::invalid_argument);
}
