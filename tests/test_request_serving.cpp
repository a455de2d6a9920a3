/**
 * @file
 * Request-level serving and SLO-driven reclaim control.
 *
 * Covers the open-loop pieces end to end: TrafficSpec parsing and
 * rate curves, RequestServer queueing/shedding, histogram merging for
 * fleet percentiles, the AppModel serving path (offered vs completed
 * accounting, idle-tick no-sample semantics, the completed<=offered
 * clamp), serial-vs-parallel bit-identity of fleet-merged latency
 * percentiles, and the SloSenpai state machine — including the
 * acceptance scenario where stock Senpai violates a p99 target under
 * a traffic surge and the SLO controller holds it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/senpai.hpp"
#include "core/slo_controller.hpp"
#include "host/fleet.hpp"
#include "host/host.hpp"
#include "stats/histogram.hpp"
#include "workload/app_model.hpp"
#include "workload/app_profile.hpp"
#include "workload/request_gen.hpp"

using namespace tmo;

namespace
{

host::HostConfig
hostConfig(std::uint64_t ram_mb = 2048, std::uint64_t seed = 7)
{
    host::HostConfig config;
    config.mem.ramBytes = ram_mb << 20;
    config.mem.pageBytes = 64 * 1024;
    config.cpus = 16;
    config.seed = seed;
    return config;
}

} // namespace

// --- TrafficSpec ---------------------------------------------------------

TEST(TrafficSpecTest, ParsesFlat)
{
    const auto spec = workload::TrafficSpec::parse("flat:rps=1000");
    EXPECT_TRUE(spec.enabled());
    EXPECT_DOUBLE_EQ(spec.baseRps, 1000.0);
    EXPECT_DOUBLE_EQ(spec.rateAt(0), 1000.0);
    EXPECT_DOUBLE_EQ(spec.rateAt(3 * sim::HOUR), 1000.0);
}

TEST(TrafficSpecTest, DiurnalSwingsAroundTheBase)
{
    const auto spec = workload::TrafficSpec::parse(
        "diurnal:rps=1000,amp=0.5,period-min=4");
    // Quarter period: sin peak; three quarters: trough.
    EXPECT_NEAR(spec.rateAt(sim::MINUTE), 1500.0, 1e-6);
    EXPECT_NEAR(spec.rateAt(3 * sim::MINUTE), 500.0, 1e-6);
    EXPECT_NEAR(spec.rateAt(0), 1000.0, 1e-6);
    // phase-min shifts the curve.
    const auto shifted = workload::TrafficSpec::parse(
        "diurnal:rps=1000,amp=0.5,period-min=4,phase-min=1");
    EXPECT_NEAR(shifted.rateAt(0), spec.rateAt(sim::MINUTE), 1e-6);
}

TEST(TrafficSpecTest, SpikeMultipliesInsideItsWindow)
{
    const auto spec = workload::TrafficSpec::parse(
        "spike:rps=100,mult=5,at-min=2,dur-min=1");
    EXPECT_DOUBLE_EQ(spec.rateAt(sim::MINUTE), 100.0);
    EXPECT_DOUBLE_EQ(spec.rateAt(2 * sim::MINUTE + sim::SEC), 500.0);
    EXPECT_DOUBLE_EQ(spec.rateAt(3 * sim::MINUTE + sim::SEC), 100.0);
    // The same spike layers on a diurnal curve via the common keys.
    const auto layered = workload::TrafficSpec::parse(
        "diurnal:rps=1000,amp=0.5,period-min=4,"
        "spike-mult=2,spike-at-min=1,spike-dur-min=1");
    EXPECT_NEAR(layered.rateAt(sim::MINUTE + sim::SEC),
                2.0 * workload::TrafficSpec::parse(
                          "diurnal:rps=1000,amp=0.5,period-min=4")
                          .rateAt(sim::MINUTE + sim::SEC),
                1e-6);
}

TEST(TrafficSpecTest, RejectsMalformedSpecsWithNamedErrors)
{
    for (const char *bad :
         {"", "sawtooth:rps=100", "flat", "flat:rps=0", "flat:rps=-5",
          "flat:rps=1e9", "diurnal:rps=100,amp=1.5",
          "flat:rps=100,bogus=1", "spike:rps=100,mult=5",
          "flat:rps=abc"}) {
        EXPECT_THROW(workload::TrafficSpec::parse(bad),
                     std::invalid_argument)
            << bad;
        std::string error;
        EXPECT_FALSE(workload::isValidTrafficSpec(bad, &error)) << bad;
        EXPECT_NE(error.find("bad traffic spec"), std::string::npos)
            << error;
    }
    std::string error;
    EXPECT_TRUE(workload::isValidTrafficSpec(
        "diurnal:rps=200,amp=0.6,period-min=60,queue-ms=250",
        &error));
    EXPECT_TRUE(error.empty());
}

TEST(TrafficSpecTest, RejectsValuesPastTheirConversionRange)
{
    // Each of these used to reach an out-of-range float-to-integer
    // conversion: a flat diurnal curve, a spike at minute 0, a zero
    // queue limit, requests that touch no page.
    const auto expectError = [](const std::string &text,
                                const std::string &key) {
        std::string error;
        EXPECT_FALSE(workload::isValidTrafficSpec(text, &error)) << text;
        EXPECT_NE(error.find(key + " must be in"), std::string::npos)
            << error;
    };
    expectError("diurnal:rps=100,period-min=1e300", "period-min");
    expectError("diurnal:rps=100,phase-min=1e300", "phase-min");
    expectError("flat:rps=100,spike-mult=2,spike-at-min=1e300,"
                "spike-dur-min=1",
                "spike-at-min");
    expectError("flat:rps=100,spike-mult=2,spike-at-min=1,"
                "spike-dur-min=1e300",
                "spike-dur-min");
    expectError("spike:rps=100,mult=2,at-min=1e300,dur-min=1", "at-min");
    expectError("spike:rps=100,mult=2,at-min=1,dur-min=1e7", "dur-min");
    expectError("flat:rps=100,queue-ms=1e300", "queue-ms");
    expectError("flat:rps=100,fanout=1e30", "fanout");

    // The bounds themselves parse, and convert exactly.
    const auto spec = workload::TrafficSpec::parse(
        "diurnal:rps=100,period-min=1e6,phase-min=1e6,spike-mult=2,"
        "spike-at-min=1e6,spike-dur-min=1e6,queue-ms=1e9,fanout=1e6");
    EXPECT_EQ(spec.period, 1'000'000 * sim::MINUTE);
    EXPECT_EQ(spec.phase, 1'000'000 * sim::MINUTE);
    EXPECT_EQ(spec.spikeAt, 1'000'000 * sim::MINUTE);
    EXPECT_EQ(spec.spikeDuration, 1'000'000 * sim::MINUTE);
    EXPECT_EQ(spec.queueLimit, 1'000'000'000 * sim::MSEC);
    EXPECT_EQ(spec.fanout, 1e6);
}

TEST(TrafficSpecTest, LengthsBelowOneNanosecondAreRejected)
{
    // A positive period, spike duration or queue limit that truncates
    // to 0 ns would print as 0, which the grammar refuses.
    for (const char *bad :
         {"diurnal:rps=100,period-min=1e-12",
          "flat:rps=100,spike-dur-min=1e-12", "flat:rps=100,queue-ms=1e-7"}) {
        std::string error;
        EXPECT_FALSE(workload::isValidTrafficSpec(bad, &error)) << bad;
        EXPECT_NE(error.find("at least one nanosecond"), std::string::npos)
            << error;
    }
}

TEST(TrafficSpecTest, RejectsSpecsPastThePeakTouchBound)
{
    // Every key is in range, but 1e6 rps, twice that at the diurnal
    // peak, a 1000x spike and 1e6 touches per request come to 2e15
    // page touches per simulated second.
    std::string error;
    EXPECT_FALSE(workload::isValidTrafficSpec(
        "diurnal:rps=1e6,amp=1,spike-mult=1000,spike-at-min=1,"
        "spike-dur-min=1,fanout=1e6",
        &error));
    EXPECT_NE(error.find("peak offered touches per second, rps x "
                         "(1 + amp) x spike-mult x max(1, fanout) = "
                         "2e+15"),
              std::string::npos)
        << error;

    // A request costs at least one touch: below a fanout of 1 the
    // request rate itself is bounded, 2e9 requests a second here.
    EXPECT_FALSE(workload::isValidTrafficSpec(
        "diurnal:rps=1e6,amp=1,spike-mult=1000,spike-at-min=1,"
        "spike-dur-min=1,fanout=0.5",
        &error));
    EXPECT_NE(error.find("max(1, fanout) = 2e+09"), std::string::npos)
        << error;

    // The bound itself parses; a touch more does not.
    using workload::TrafficSpec;
    EXPECT_EQ(TrafficSpec::parse("flat:rps=1000,fanout=1e6")
                  .peakTouchesPerSec(),
              TrafficSpec::MAX_PEAK_TOUCHES_PER_SEC);
    EXPECT_FALSE(
        workload::isValidTrafficSpec("flat:rps=1000.001,fanout=1e6", &error));
    EXPECT_FALSE(workload::isValidTrafficSpec(
        "diurnal:rps=5e5,amp=1,fanout=1001", &error));
    EXPECT_FALSE(workload::isValidTrafficSpec(
        "spike:rps=1e6,mult=1000,at-min=1,dur-min=1", &error));
    // fanout 0 leaves the count to the app profile, and counts as the
    // most any preset asks for.
    EXPECT_EQ(TrafficSpec::parse("flat:rps=1e6").peakTouchesPerSec(),
              1e6 * TrafficSpec::PROFILE_FANOUT);
    for (const std::string &name : workload::appPresetNames())
        EXPECT_LE(workload::appPreset(name, 64ull << 20).touchesPerRequest,
                  TrafficSpec::PROFILE_FANOUT)
            << name;
    for (const char *name : {"dc_logging", "dc_profiling", "dc_discovery",
                             "ms_proxy", "ms_router"})
        EXPECT_LE(
            workload::sidecarPreset(name, 64ull << 20).touchesPerRequest,
            TrafficSpec::PROFILE_FANOUT)
            << name;
}

TEST(TrafficSpecTest, EverySpecInUseParses)
{
    // The specs of the tmo usage text, the benches, perfbench, the
    // tests, the README and CI: the touch bound refuses none.
    for (const char *text : {
             // tmo --help, README.md
             "flat:rps=2000",
             "diurnal:rps=2000,amp=0.6,period-min=60",
             "spike:rps=2000,mult=4,at-min=30,dur-min=10",
             "diurnal:rps=400,amp=0.6,period-min=60",
             // bench_runner, perfbench, ctest
             "diurnal:rps=400,amp=0.5,period-min=8",
             "flat:rps=30",
             "diurnal:rps=1200,amp=0.3,period-min=10",
             "diurnal:rps=300,amp=0.5,period-min=4",
             // CI
             "diurnal:rps=300,amp=0.6,period-min=4",
             "flat:rps=200,spike-mult=3,spike-at-min=1,spike-dur-min=1",
             // tests
             "diurnal:rps=1000,amp=0.5,period-min=4,phase-min=1",
             "diurnal:rps=50,amp=1.0,period-min=4",
             "flat:rps=300,spike-mult=2.5,spike-at-min=3,spike-dur-min=3",
             "spike:rps=100,mult=5,at-min=2,dur-min=1",
             "spike:rps=150,mult=3,at-min=1,dur-min=2",
             "flat:rps=10,spike-mult=2,spike-at-min=0.5,spike-dur-min=1,"
             "fanout=12,queue-ms=50",
             "diurnal:rps=200,amp=0.6,period-min=60,queue-ms=250",
             "diurnal:rps=100,period-min=1e6,phase-min=1e6,spike-mult=2,"
             "spike-at-min=1e6,spike-dur-min=1e6,queue-ms=1e9,fanout=1e6",
         }) {
        std::string error;
        EXPECT_TRUE(workload::isValidTrafficSpec(text, &error))
            << text << ": " << error;
    }
}

TEST(TrafficSpecTest, ToStringPrintsTheGrammarBack)
{
    EXPECT_EQ(workload::TrafficSpec::parse("flat:rps=1200").toString(),
              "flat:rps=1200");
    // Defaults are left out; "spike:" sugar prints as flat.
    EXPECT_EQ(workload::TrafficSpec::parse(
                  "diurnal:rps=2000,amp=0.5,period-min=60,queue-ms=500")
                  .toString(),
              "diurnal:rps=2000,period-min=60");
    EXPECT_EQ(
        workload::TrafficSpec::parse("spike:rps=150,mult=3,at-min=1,dur-min=2")
            .toString(),
        "flat:rps=150,spike-mult=3,spike-at-min=1,spike-dur-min=2");
    // Lengths print as a number that converts back to the same
    // nanoseconds, and every number reads back exactly.
    for (const char *text :
         {"diurnal:rps=0.1,amp=0.3333333333333333,phase-min=0.7",
          "flat:rps=7,queue-ms=0.0000017,fanout=2.5",
          "diurnal:rps=123.456,period-min=1e-9"}) {
        const auto spec = workload::TrafficSpec::parse(text);
        EXPECT_EQ(workload::TrafficSpec::parse(spec.toString()), spec)
            << text << " printed as " << spec.toString();
    }
    EXPECT_EQ(workload::TrafficSpec{}.toString(), "");
}

// --- RequestServer -------------------------------------------------------

TEST(RequestServerTest, IdleWorkerServesImmediately)
{
    workload::RequestServer server(2, sim::SEC);
    const auto outcome = server.offer(sim::SEC, 5 * sim::USEC);
    EXPECT_TRUE(outcome.admitted);
    EXPECT_EQ(outcome.latency, 5 * sim::USEC);
}

TEST(RequestServerTest, BusyWorkersQueueArrivals)
{
    workload::RequestServer server(1, sim::SEC);
    EXPECT_EQ(server.offer(0, 10 * sim::USEC).latency, 10 * sim::USEC);
    // Same arrival instant, single worker: the second request waits
    // for the first and its latency includes the queue delay.
    const auto second = server.offer(0, 10 * sim::USEC);
    EXPECT_TRUE(second.admitted);
    EXPECT_EQ(second.latency, 20 * sim::USEC);
    EXPECT_EQ(server.backlog(0), 20 * sim::USEC);
}

TEST(RequestServerTest, ShedsWhenTheQueueWaitExceedsTheLimit)
{
    workload::RequestServer server(1, 15 * sim::USEC);
    EXPECT_TRUE(server.offer(0, 10 * sim::USEC).admitted);
    EXPECT_TRUE(server.offer(0, 10 * sim::USEC).admitted); // waits 10us
    const auto shed = server.offer(0, 10 * sim::USEC); // would wait 20us
    EXPECT_FALSE(shed.admitted);
    EXPECT_EQ(shed.latency, 0u);
}

TEST(RequestServerTest, ResetForgetsTheBacklog)
{
    workload::RequestServer server(1, sim::SEC);
    server.offer(0, sim::MSEC);
    EXPECT_GT(server.backlog(0), 0u);
    server.reset();
    EXPECT_EQ(server.backlog(0), 0u);
}

// --- Histogram merge (the fleet percentile primitive) --------------------

TEST(HistogramMergeTest, MergeMatchesTheCombinedStream)
{
    stats::Histogram a(0.1, 1e7, 20), b(0.1, 1e7, 20);
    stats::Histogram combined(0.1, 1e7, 20);
    for (int i = 1; i <= 2000; ++i) {
        const double left = 100.0 + (i % 97);
        const double right = 5000.0 + (i % 31) * 40.0;
        a.add(left);
        b.add(right);
        combined.add(left);
        combined.add(right);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_DOUBLE_EQ(a.quantile(0.5), combined.quantile(0.5));
    EXPECT_DOUBLE_EQ(a.p99(), combined.p99());
    EXPECT_DOUBLE_EQ(a.p999(), combined.p999());
    EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
}

TEST(HistogramMergeTest, MergingAnEmptyHistogramIsANoop)
{
    stats::Histogram a(0.1, 1e7, 20), empty(0.1, 1e7, 20);
    a.add(42.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 42.0);
}

TEST(HistogramMergeTest, GeometryMismatchThrows)
{
    stats::Histogram a(0.1, 1e7, 20), b(1.0, 1e6, 10);
    b.add(1.0);
    EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// --- AppModel serving path ----------------------------------------------

TEST(ServingModelTest, LegacyCompletedNeverExceedsOffered)
{
    // Regression (bugfix): the measurement-noise multiplier used to be
    // applied AFTER the min(offered, capacity) clamp, so an app at
    // full capacity could report completedRps > offeredRps about half
    // its ticks. Plenty of RAM keeps the app unthrottled and at
    // capacity, the worst case for the old code.
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(workload::appPreset("feed", 512ull << 20),
                               tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    for (int tick = 1; tick <= 180; ++tick) {
        simulation.runUntil(static_cast<sim::SimTime>(tick) * sim::SEC +
                            sim::MSEC);
        const auto &stats = app.lastTick();
        EXPECT_LE(stats.completedRps, stats.offeredRps * (1.0 + 1e-12))
            << "tick " << tick;
    }
}

TEST(ServingModelTest, IdleTickReportsNoLatencySample)
{
    // Regression (bugfix): offered==0 ticks used to leave
    // requestLatencyUs at 0.0 with no way to tell "no requests" from
    // "zero latency", polluting any aggregation over a diurnal trough.
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto &app = machine.addApp(workload::appPreset("feed", 256ull << 20),
                               tier::TierChainSpec::parse("zswap"));
    app.setOfferedRps(0.0);
    machine.start();
    app.start();
    simulation.runUntil(10 * sim::SEC + sim::MSEC);
    EXPECT_DOUBLE_EQ(app.lastTick().offeredRps, 0.0);
    EXPECT_FALSE(app.lastTick().latencySampled);
    EXPECT_DOUBLE_EQ(app.lastTick().requestLatencyUs, 0.0);
}

TEST(ServingModelTest, DiurnalTroughTicksAreNoSample)
{
    // Full-amplitude diurnal: around the trough the offered rate dips
    // to (essentially) zero, so whole ticks pass with no arrivals.
    // Those ticks must report "no sample", and must not add anything
    // to the latency histogram.
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto profile = workload::appPreset("feed", 256ull << 20);
    profile.traffic = workload::TrafficSpec::parse(
        "diurnal:rps=50,amp=1.0,period-min=4");
    auto &app = machine.addApp(profile, tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    ASSERT_TRUE(app.servingRequests());

    int idle_ticks = 0;
    for (int tick = 1; tick <= 240; ++tick) {
        const std::uint64_t before = app.requests().latencyUs.count();
        simulation.runUntil(static_cast<sim::SimTime>(tick) * sim::SEC +
                            sim::MSEC);
        const auto &stats = app.lastTick();
        if (stats.offeredRps == 0.0) {
            ++idle_ticks;
            EXPECT_FALSE(stats.latencySampled) << "tick " << tick;
            EXPECT_DOUBLE_EQ(stats.requestLatencyUs, 0.0);
            EXPECT_EQ(app.requests().latencyUs.count(), before);
        }
        EXPECT_LE(stats.completedRps, stats.offeredRps);
    }
    // One 4-minute period spends a good stretch near the trough.
    EXPECT_GT(idle_ticks, 10);
}

TEST(ServingModelTest, ServesTheOfferedLoad)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    auto profile = workload::appPreset("feed", 256ull << 20);
    profile.traffic = workload::TrafficSpec::parse("flat:rps=200");
    auto &app = machine.addApp(profile, tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();
    simulation.runUntil(3 * sim::MINUTE);

    const auto &requests = app.requests();
    // Poisson arrivals at 200 rps over ~180 s.
    EXPECT_NEAR(static_cast<double>(requests.offered), 200.0 * 180.0,
                0.1 * 200.0 * 180.0);
    EXPECT_LE(requests.completed, requests.offered);
    // Every arrival is either served or shed — none vanish.
    EXPECT_EQ(requests.completed + requests.dropped, requests.offered);
    EXPECT_EQ(requests.latencyUs.count(), requests.completed);
    EXPECT_GT(requests.latencyUs.p99(), 0.0);
    EXPECT_GE(requests.latencyUs.p999(), requests.latencyUs.p99());
    // A comfortable load on a healthy host: p99 well under a second.
    EXPECT_LT(requests.latencyUs.p99(), 1e6);
}

// --- Fleet-merged percentiles: serial vs parallel ------------------------

namespace
{

struct FleetLatency {
    std::uint64_t count = 0;
    double p50 = 0.0, p99 = 0.0, p999 = 0.0;
};

FleetLatency
runSpikeFleet(unsigned jobs)
{
    host::Fleet fleet =
        host::FleetSpec{}
            .hosts(8)
            .ram_mb(256)
            .page_kb(64)
            .cpus(8)
            .seed(42)
            .workload("feed", 192)
            .traffic("flat:rps=150,spike-mult=3,spike-at-min=1,"
                     "spike-dur-min=1")
            .controller("senpai")
            .build();
    fleet.start();
    fleet.run(3 * sim::MINUTE, jobs);

    const stats::Histogram merged = fleet.mergeHistograms(
        [](host::Host &machine)
            -> std::vector<const stats::Histogram *> {
            std::vector<const stats::Histogram *> hists;
            for (const auto &app : machine.apps())
                if (app->servingRequests())
                    hists.push_back(&app->requests().latencyUs);
            return hists;
        });
    FleetLatency out;
    out.count = merged.count();
    out.p50 = merged.quantile(0.5);
    out.p99 = merged.p99();
    out.p999 = merged.p999();
    return out;
}

} // namespace

TEST(FleetServingTest, MergedPercentilesBitIdenticalSerialVsParallel)
{
    const FleetLatency serial = runSpikeFleet(1);
    const FleetLatency parallel = runSpikeFleet(4);
    EXPECT_GT(serial.count, 0u);
    EXPECT_EQ(serial.count, parallel.count);
    EXPECT_EQ(serial.p50, parallel.p50);
    EXPECT_EQ(serial.p99, parallel.p99);
    EXPECT_EQ(serial.p999, parallel.p999);
}

// --- SloSenpai state machine ---------------------------------------------

namespace
{

/** Host + app + SloSenpai driven by a synthetic latency probe. */
struct SloFixture {
    sim::Simulation simulation;
    host::Host machine{simulation, hostConfig(512)};
    workload::AppModel &app = machine.addApp(
        workload::appPreset("feed", 256ull << 20),
        tier::TierChainSpec::parse("zswap"));
    double probeValue = -1.0;
    std::unique_ptr<core::SloSenpai> controller;
    sim::SimTime clock = 0;

    explicit SloFixture(core::SloConfig slo = {})
    {
        machine.start();
        app.start();
        controller = std::make_unique<core::SloSenpai>(
            simulation, machine.memory(), app.cgroup(),
            core::senpaiProductionConfig(), slo,
            [this] { return probeValue; });
        controller->start();
    }

    /** Advance past the next N SLO control ticks. */
    void
    ticks(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            clock += core::CONTROL_INTERVAL;
            simulation.runUntil(clock + sim::MSEC);
        }
    }
};

} // namespace

TEST(SloControllerTest, EscalatesImmediatelyOnViolation)
{
    SloFixture fx;
    EXPECT_EQ(fx.controller->state(), core::SloState::STEADY);
    EXPECT_DOUBLE_EQ(fx.controller->reclaimScale(), 1.0);

    fx.probeValue = 5000.0; // target 2000us
    fx.ticks(1);
    EXPECT_EQ(fx.controller->state(), core::SloState::VIOLATION);
    EXPECT_EQ(fx.controller->escalations(), 1u);
    EXPECT_DOUBLE_EQ(fx.controller->reclaimScale(), 0.0);
    // Reclaim is actually suspended, not just labeled so.
    EXPECT_DOUBLE_EQ(fx.controller->inner().config().reclaimRatio, 0.0);
    EXPECT_DOUBLE_EQ(fx.controller->lastP99Us(), 5000.0);
}

TEST(SloControllerTest, DeescalationNeedsSustainedHealth)
{
    SloFixture fx;
    fx.probeValue = 5000.0;
    fx.ticks(1);
    ASSERT_EQ(fx.controller->state(), core::SloState::VIOLATION);

    // Between clear (1400) and caution (1700) thresholds: the state
    // holds and the healthy streak resets.
    fx.probeValue = 1500.0;
    fx.ticks(4);
    EXPECT_EQ(fx.controller->state(), core::SloState::VIOLATION);

    // Healthy readings de-escalate one level per clearIntervals run,
    // never straight to STEADY.
    fx.probeValue = 1000.0;
    fx.ticks(2);
    EXPECT_EQ(fx.controller->state(), core::SloState::VIOLATION);
    fx.ticks(1);
    EXPECT_EQ(fx.controller->state(), core::SloState::CAUTION);
    EXPECT_DOUBLE_EQ(fx.controller->reclaimScale(),
                     core::SLO_CAUTION_SCALE);
    fx.ticks(3);
    EXPECT_EQ(fx.controller->state(), core::SloState::STEADY);
    EXPECT_DOUBLE_EQ(fx.controller->reclaimScale(), 1.0);
    EXPECT_EQ(fx.controller->escalations(), 1u);
    EXPECT_GE(fx.controller->violationIntervals(), 5u);
}

TEST(SloControllerTest, CautionEntersFromSteadyOnly)
{
    SloFixture fx;
    fx.probeValue = 1800.0; // above caution (1700), below target
    fx.ticks(1);
    EXPECT_EQ(fx.controller->state(), core::SloState::CAUTION);
    EXPECT_EQ(fx.controller->escalations(), 0u);
}

TEST(SloControllerTest, NoSignalRelaxesGradually)
{
    SloFixture fx;
    fx.probeValue = 5000.0;
    fx.ticks(1);
    ASSERT_EQ(fx.controller->state(), core::SloState::VIOLATION);

    // An idle app (diurnal trough, restart) reports no samples; the
    // controller must not stay panicked forever, nor snap back.
    fx.probeValue = -1.0;
    fx.ticks(3);
    EXPECT_EQ(fx.controller->state(), core::SloState::CAUTION);
    fx.ticks(3);
    EXPECT_EQ(fx.controller->state(), core::SloState::STEADY);
}

// --- Acceptance: SLO control under a traffic surge -----------------------

namespace
{

struct SurgeOutcome {
    double overallP99Us = 0.0;
    std::uint64_t escalations = 0;
};

/**
 * A Senpai tuned hard for savings: a big probe step and a wide PSI
 * tolerance (the paper's config-"B" direction taken further). Stock
 * Senpai with these knobs keeps digging into the warm working set
 * right through a surge, because 7-10% stall pressure is still under
 * its 50% tolerance — PSI alone cannot tell it the p99 SLO is gone.
 */
core::SenpaiConfig
savingsTunedSenpai()
{
    auto config = core::senpaiAggressiveConfig();
    config.psiThreshold = 0.5;
    config.ioPsiThreshold = 0.5;
    config.reclaimRatio = 0.10;
    config.maxProbeRatio = 0.20;
    return config;
}

/**
 * One memory-tight host serving a flat request stream that surges
 * 2.5x for three minutes, with the savings-tuned Senpai probing
 * underneath. `slo` wraps that same inner config in the latency
 * governor — the governor is the only difference.
 */
SurgeOutcome
runSurge(bool slo, double target_us)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig(512, 11));
    auto profile = workload::appPreset("web", 400ull << 20);
    profile.traffic = workload::TrafficSpec::parse(
        "flat:rps=300,spike-mult=2.5,spike-at-min=3,spike-dur-min=3");
    auto &app = machine.addApp(profile, tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();

    std::unique_ptr<core::Controller> controller;
    if (slo) {
        core::SloConfig config;
        config.p99TargetUs = target_us;
        controller = std::make_unique<core::SloSenpai>(
            simulation, machine.memory(), app.cgroup(),
            savingsTunedSenpai(), config,
            [&app] { return app.windowP99Us(); });
    } else {
        controller = std::make_unique<core::Senpai>(
            simulation, machine.memory(), app.cgroup(),
            savingsTunedSenpai());
    }
    controller->start();
    simulation.runUntil(9 * sim::MINUTE);

    SurgeOutcome outcome;
    outcome.overallP99Us = app.requests().latencyUs.p99();
    if (slo) {
        auto *governed =
            static_cast<core::SloSenpai *>(controller.get());
        outcome.escalations = governed->escalations();
    }
    return outcome;
}

} // namespace

TEST(SloControllerTest, HoldsP99UnderSurgeWhereStockSenpaiViolates)
{
    // The target sits above the reclaim-free queueing baseline of the
    // surge (~2.6 ms at these rates): an SLO the service CAN meet,
    // and one only reclaim-induced stalls push it past.
    constexpr double TARGET_US = 3500.0;
    const SurgeOutcome stock = runSurge(false, TARGET_US);
    const SurgeOutcome governed = runSurge(true, TARGET_US);
    std::cout << "surge p99: stock=" << stock.overallP99Us
              << "us governed=" << governed.overallP99Us
              << "us target=" << TARGET_US << "us\n";

    // Stock aggressive Senpai keeps shrinking the working set through
    // the surge: fault stalls inflate service times and the queue
    // pushes p99 past the SLO.
    EXPECT_GT(stock.overallP99Us, TARGET_US);
    // The SLO controller saw the breach and suspended reclaim...
    EXPECT_GE(governed.escalations, 1u);
    // ...which keeps the run's p99 under the target.
    EXPECT_LE(governed.overallP99Us, TARGET_US);
    EXPECT_LT(governed.overallP99Us, stock.overallP99Us);
}
