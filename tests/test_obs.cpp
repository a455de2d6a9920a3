/**
 * @file
 * Observability stack: trace ring semantics, exporter round-trips,
 * metric sampling alignment, and the bit-identity guarantee — merged
 * traces and metric series must not depend on the fleet job count,
 * with or without fault plans.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/senpai.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "host/controller_registry.hpp"
#include "host/fleet.hpp"
#include "host/host.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace
{

obs::TraceRing
sampleRing()
{
    obs::TraceRing ring(64 * sizeof(obs::TraceEvent));
    ring.record(0, obs::TraceEventType::CONTROLLER, 0, 1);
    ring.record(6 * sim::SEC, obs::TraceEventType::SENPAI_TICK, 5, 1,
                {0.00125, 0.0, 524288.0, 524288.0, 524288.0, 262144.0,
                 131072.0, 131072.0});
    ring.record(6 * sim::SEC, obs::TraceEventType::RECLAIM_PASS, 0, 1,
                {131072.0, 65536.0, 1.0, 0.0, 0.5, 0.25, 3.0, 0.9});
    ring.record(6 * sim::SEC + 1, obs::TraceEventType::BACKEND_OP, 1,
                obs::TRACK_ZSWAP, {41.5, 65536.0, 0.0, 0.0});
    ring.record(7 * sim::SEC, obs::TraceEventType::FAULT_INJECT, 3, 0,
                {1e-9});
    ring.record(8 * sim::SEC, obs::TraceEventType::OOMD_KILL, 0, 2,
                {0.21, 1048576.0});
    return ring;
}

} // namespace

// --- ring semantics --------------------------------------------------------

TEST(TraceRingTest, RecordsInOrderWithMonotoneSequence)
{
    const auto ring = sampleRing();
    EXPECT_EQ(ring.recorded(), 6u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.size(), 6u);

    const auto events = ring.snapshot();
    ASSERT_EQ(events.size(), 6u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, i);
        if (i) {
            EXPECT_GE(events[i].time, events[i - 1].time);
        }
    }
    EXPECT_EQ(events[1].type, obs::TraceEventType::SENPAI_TICK);
    EXPECT_EQ(events[1].code, 5);
    EXPECT_EQ(events[1].domain, 1);
    EXPECT_DOUBLE_EQ(events[1].args[0], 0.00125);
    EXPECT_DOUBLE_EQ(events[1].args[7], 131072.0);
    // Missing args read as zero.
    EXPECT_DOUBLE_EQ(events[0].args[0], 0.0);
}

TEST(TraceRingTest, OverwritesOldestWhenFull)
{
    obs::TraceRing ring(3 * sizeof(obs::TraceEvent));
    ASSERT_EQ(ring.capacity(), 3u);
    for (std::uint64_t i = 0; i < 5; ++i)
        ring.record(i * sim::SEC, obs::TraceEventType::PSI_STATE, 0, 0,
                    {static_cast<double>(i)});
    EXPECT_EQ(ring.recorded(), 5u);
    EXPECT_EQ(ring.dropped(), 2u);
    EXPECT_EQ(ring.size(), 3u);

    const auto events = ring.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events.front().seq, 2u); // oldest survivor
    EXPECT_EQ(events.back().seq, 4u);
    EXPECT_DOUBLE_EQ(events.back().args[0], 4.0);

    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.recorded(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRingTest, TinyCapacityStillHoldsOneEvent)
{
    obs::TraceRing ring(1); // less than one event's worth of bytes
    EXPECT_EQ(ring.capacity(), 1u);
    ring.record(1, obs::TraceEventType::CONTROLLER, 0, 0);
    ring.record(2, obs::TraceEventType::CONTROLLER, 1, 0);
    const auto events = ring.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].seq, 1u);
}

// --- exporters -------------------------------------------------------------

TEST(ExportTest, JsonlRoundTripsExactly)
{
    const auto ring = sampleRing();
    const std::vector<obs::HostTrace> hosts = {{"host0", &ring}};

    std::ostringstream first;
    obs::writeTraceJsonl(first, hosts);

    std::istringstream in(first.str());
    const auto parsed = obs::readTraceJsonl(in);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].host, "host0");
    const auto original = ring.snapshot();
    ASSERT_EQ(parsed[0].events.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(parsed[0].events[i].time, original[i].time);
        EXPECT_EQ(parsed[0].events[i].seq, original[i].seq);
        EXPECT_EQ(parsed[0].events[i].type, original[i].type);
        EXPECT_EQ(parsed[0].events[i].code, original[i].code);
        EXPECT_EQ(parsed[0].events[i].domain, original[i].domain);
        for (std::size_t a = 0; a < 8; ++a)
            EXPECT_DOUBLE_EQ(parsed[0].events[i].args[a],
                             original[i].args[a]);
    }

    // Write-parse-write is a fixed point: the golden-file property.
    obs::TraceRing replay(64 * sizeof(obs::TraceEvent));
    for (const auto &e : parsed[0].events)
        replay.record(e.time, e.type, e.code, e.domain,
                      {e.args[0], e.args[1], e.args[2], e.args[3],
                       e.args[4], e.args[5], e.args[6], e.args[7]});
    std::ostringstream second;
    obs::writeTraceJsonl(second,
                         {{parsed[0].host, &replay}});
    EXPECT_EQ(first.str(), second.str());
}

TEST(ExportTest, JsonlRejectsMalformedLines)
{
    std::istringstream in("{\"host\":\"h\",\"time\":0}\n");
    EXPECT_THROW(obs::readTraceJsonl(in), std::runtime_error);
}

TEST(ExportTest, CsvHasHeaderAndOneRowPerEvent)
{
    const auto ring = sampleRing();
    std::ostringstream out;
    obs::writeTraceCsv(out, {{"h", &ring}});
    std::istringstream lines(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line,
              "host,time_ns,seq,type,code,domain,a0,a1,a2,a3,a4,a5,"
              "a6,a7");
    std::size_t rows = 0;
    while (std::getline(lines, line))
        ++rows;
    EXPECT_EQ(rows, ring.size());
    EXPECT_NE(out.str().find("h,6000000000,1,senpai_tick,5,1,"),
              std::string::npos);
}

TEST(ExportTest, ChromeTraceMergesHostsUnderPrefixedTracks)
{
    const auto a = sampleRing();
    obs::TraceRing b(8 * sizeof(obs::TraceEvent));
    b.record(sim::SEC, obs::TraceEventType::PSI_STATE, 0, 3,
             {1.0, 1000.0});
    std::ostringstream out;
    obs::writeTraceChrome(out, {{"alpha", &a}, {"beta", &b}});
    const std::string text = out.str();

    // One process per host...
    EXPECT_NE(text.find("{\"ph\":\"M\",\"pid\":0,\"name\":"
                        "\"process_name\",\"args\":{\"name\":"
                        "\"alpha\"}}"),
              std::string::npos);
    EXPECT_NE(text.find("{\"ph\":\"M\",\"pid\":1,\"name\":"
                        "\"process_name\",\"args\":{\"name\":"
                        "\"beta\"}}"),
              std::string::npos);
    // ...named event-type threads, instants on both pids, and the
    // Senpai counter track.
    EXPECT_NE(text.find("\"thread_name\",\"args\":{\"name\":"
                        "\"senpai_tick\"}"),
              std::string::npos);
    EXPECT_NE(text.find("{\"ph\":\"i\",\"pid\":1,\"tid\":0,"),
              std::string::npos);
    EXPECT_NE(text.find("\"name\":\"senpai.cg1\""), std::string::npos);
}

TEST(ExportTest, MetricsCsvAndJsonlGolden)
{
    stats::TimeSeries pressure("senpai.app.pressure");
    pressure.record(6 * sim::SEC, 0.00125);
    pressure.record(12 * sim::SEC, 0.5);
    stats::TimeSeries frees("host.free_bytes");
    frees.record(6 * sim::SEC, 1048576.0);
    // Ragged on purpose: the second row has no free_bytes sample.
    const std::vector<const stats::TimeSeries *> series = {&pressure,
                                                           &frees};

    std::ostringstream csv;
    obs::writeMetricsCsv(csv, series);
    EXPECT_EQ(csv.str(), "time_s,senpai.app.pressure,host.free_bytes\n"
                         "6,0.00125,1048576\n"
                         "12,0.5,\n");

    std::ostringstream jsonl;
    obs::writeMetricsJsonl(jsonl, series);
    EXPECT_EQ(jsonl.str(),
              "{\"t\":6000000000,\"name\":\"senpai.app.pressure\","
              "\"value\":0.00125}\n"
              "{\"t\":12000000000,\"name\":\"senpai.app.pressure\","
              "\"value\":0.5}\n"
              "{\"t\":6000000000,\"name\":\"host.free_bytes\","
              "\"value\":1048576}\n");
}

TEST(ExportTest, FormatDoubleRoundTrips)
{
    for (const double v :
         {0.0, 0.1, 1.0 / 3.0, 6.25e-5, 1e300, -42.125,
          123456789.123456789}) {
        const std::string text = obs::formatDouble(v);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
}

// --- metric registry & sampler --------------------------------------------

TEST(MetricsTest, RegistryIsIdempotentAndVisitsInNameOrder)
{
    obs::MetricRegistry registry;
    registry.counter("b.count").add(2.0);
    registry.counter("b.count").increment();
    registry.gauge("a.gauge").set(7.0);
    registry.addProbe("c.probe", [] { return 9.0; });

    std::vector<std::string> names;
    std::vector<double> values;
    registry.visit([&](const std::string &name, double value) {
        names.push_back(name);
        values.push_back(value);
    });
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a.gauge");
    EXPECT_EQ(names[1], "b.count");
    EXPECT_EQ(names[2], "c.probe");
    EXPECT_DOUBLE_EQ(values[1], 3.0);
}

TEST(MetricsTest, SamplerAlignsWithSenpaiInterval)
{
    sim::Simulation simulation;
    host::HostConfig config;
    config.mem.ramBytes = 512ull << 20;
    config.mem.pageBytes = 64 * 1024;
    host::Host machine(simulation, config);
    auto &app = machine.addApp(
        workload::appPreset("feed", 256ull << 20),
        tier::TierChainSpec::parse("zswap"));
    auto *controller =
        machine.setController(std::make_unique<core::Senpai>(
            simulation, machine.memory(), app.cgroup(),
            core::senpaiProductionConfig()));
    machine.start();
    app.start();
    controller->start();

    // Same 6 s cadence as Senpai: one sample per control tick.
    auto &registry = machine.enableMetrics(6 * sim::SEC);
    registry.addProbe("test.time_s", [&] {
        return sim::toSeconds(simulation.now());
    });
    simulation.runUntil(sim::MINUTE);

    const auto *sampler = machine.sampler();
    ASSERT_NE(sampler, nullptr);
    const auto *times = sampler->find("test.time_s");
    ASSERT_NE(times, nullptr);
    ASSERT_EQ(times->size(), 10u);
    for (std::size_t i = 0; i < times->size(); ++i) {
        EXPECT_EQ(times->samples()[i].time,
                  (i + 1) * 6 * sim::SEC);
        EXPECT_DOUBLE_EQ(times->samples()[i].value,
                         static_cast<double>((i + 1) * 6));
    }
    // Controller probes were registered through setController.
    EXPECT_NE(sampler->find("senpai." + app.cgroup().name() +
                            ".pressure"),
              nullptr);
}

TEST(MetricsTest, EventDispatchProbeCountsEveryCadence)
{
    // One host's event count over 60 s follows from its cadences: the
    // app tick and kswapd every 1 s (60 + 60), PSI averaging every 2 s
    // (30), and Senpai, two-tier maintenance and the 6 s sampler every
    // 6 s (10 + 10 + 10).
    sim::Simulation simulation;
    host::HostConfig config;
    config.mem.ramBytes = 512ull << 20;
    config.mem.pageBytes = 64 * 1024;
    host::Host machine(simulation, config);
    auto &app = machine.addApp(
        workload::appPreset("feed", 256ull << 20),
        tier::TierChainSpec::parse("zswap+ssd"));
    auto *controller =
        machine.setController(std::make_unique<core::Senpai>(
            simulation, machine.memory(), app.cgroup(),
            core::senpaiProductionConfig()));
    machine.start();
    app.start();
    controller->start();
    auto &registry = machine.enableMetrics(6 * sim::SEC);
    simulation.runUntil(sim::MINUTE);

    EXPECT_EQ(simulation.dispatched(), 60u + 60u + 30u + 10u + 10u + 10u);
    double probed = -1.0;
    registry.visit([&](const std::string &name, double value) {
        if (name == "sim.events_dispatched")
            probed = value;
    });
    EXPECT_EQ(probed, 180.0);
    // Each sample reads the count live: it grows by one 6 s window of
    // events (6 + 6 + 3 + 1 + 1 + 1 = 18) per sample.
    const auto *series = machine.sampler()->find("sim.events_dispatched");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->size(), 10u);
    for (std::size_t i = 1; i < series->size(); ++i)
        EXPECT_EQ(series->samples()[i].value -
                      series->samples()[i - 1].value,
                  18.0)
            << "sample " << i;
}

// --- bit-identity across job counts ---------------------------------------

namespace
{

/** One full observability artifact: merged trace + metric CSV. */
struct ObsArtifact {
    std::string trace;
    std::string metrics;
};

ObsArtifact
runFleet(unsigned jobs, bool with_faults)
{
    auto fleet = host::FleetSpec{}
                     .hosts(4)
                     .name_prefix("obs")
                     .ram_mb(512)
                     .page_kb(64)
                     .seed(99)
                     .tiers("ssd")
                     .workload("feed", 256)
                     .controller(host::controllerFactoryFor("senpai",
                                                            {}))
                     .build();
    fleet.enableTracing(1 << 20);
    fleet.enableMetrics(6 * sim::SEC);
    fleet.start();

    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    if (with_faults) {
        const auto plan = fault::FaultPlan::parseString(
            "t=30 kind=ssd-latency arg=8\n"
            "t=60 kind=controller-stall arg=20\n"
            "t=90 kind=ssd-offline\n"
            "t=150 kind=ssd-online\n");
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            injectors.push_back(
                std::make_unique<fault::FaultInjector>(fleet.host(i),
                                                       plan));
            injectors.back()->arm();
        }
    }

    fleet.run(4 * sim::MINUTE, jobs);

    ObsArtifact artifact;
    std::ostringstream trace;
    obs::writeTraceJsonl(trace, fleet.traces());
    artifact.trace = trace.str();
    const auto merged = fleet.metricSeries();
    std::vector<const stats::TimeSeries *> series;
    for (const auto &s : merged)
        series.push_back(&s);
    std::ostringstream metrics;
    obs::writeMetricsCsv(metrics, series);
    artifact.metrics = metrics.str();
    return artifact;
}

} // namespace

TEST(ObsFleetTest, TraceBitIdenticalSerialVsParallel)
{
    const auto serial = runFleet(1, false);
    const auto parallel = runFleet(4, false);
    EXPECT_FALSE(serial.trace.empty());
    EXPECT_EQ(serial.trace, parallel.trace);
    EXPECT_EQ(serial.metrics, parallel.metrics);
    // The per-host event count is among the series compared: dispatch
    // on a shard clock does not depend on the lane it runs on.
    EXPECT_NE(serial.metrics.find("sim.events_dispatched"),
              std::string::npos);
}

TEST(ObsFleetTest, TraceBitIdenticalUnderFaultPlans)
{
    const auto serial = runFleet(1, true);
    const auto parallel = runFleet(4, true);
    EXPECT_FALSE(serial.trace.empty());
    EXPECT_EQ(serial.trace, parallel.trace);
    EXPECT_EQ(serial.metrics, parallel.metrics);
    // The fault plan itself must be visible in the trace.
    EXPECT_NE(serial.trace.find("\"fault_inject\""),
              std::string::npos);
    EXPECT_NE(serial.trace.find("\"fault_recover\""),
              std::string::npos);
}

TEST(ObsFleetTest, TracedRunMatchesUntracedState)
{
    // Tracing must observe, never perturb: end-of-run workload state
    // is identical with and without the ring attached.
    const auto digest = [](bool traced) {
        auto fleet = host::FleetSpec{}
                         .hosts(2)
                         .name_prefix("obs")
                         .ram_mb(512)
                         .page_kb(64)
                         .seed(7)
                         .tiers("zswap")
                         .workload("feed", 256)
                         .controller(host::controllerFactoryFor(
                             "senpai", {}))
                         .build();
        if (traced)
            fleet.enableTracing(1 << 20);
        fleet.start();
        fleet.run(3 * sim::MINUTE, 2);
        std::vector<std::uint64_t> out;
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            auto &cg = fleet.host(i).apps().front()->cgroup();
            out.push_back(cg.memCurrent());
            out.push_back(cg.stats().pgscan);
            out.push_back(cg.stats().pswpout);
        }
        return out;
    };
    EXPECT_EQ(digest(false), digest(true));
}
