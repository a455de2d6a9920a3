/**
 * @file
 * Tests for the TMO daemon (priority-scaled orchestration) and the
 * oomd-lite full-pressure watcher.
 */

#include <gtest/gtest.h>

#include "core/oomd_lite.hpp"
#include "core/tmo_daemon.hpp"
#include "host/host.hpp"
#include "sched/task.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace
{

host::HostConfig
hostConfig()
{
    host::HostConfig config;
    config.mem.ramBytes = 2ull << 30;
    config.mem.pageBytes = 64 * 1024;
    return config;
}

} // namespace

TEST(TmoDaemonTest, PriorityScalesConfig)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    core::TmoDaemon daemon(simulation, machine.memory());

    auto &low = machine.createContainer("tax");
    low.setPriority(cgroup::Priority::LOW);
    auto &normal = machine.createContainer("app");
    auto &high = machine.createContainer("critical");
    high.setPriority(cgroup::Priority::HIGH);

    const auto base = core::senpaiProductionConfig();
    const auto low_cfg = daemon.configFor(low);
    const auto normal_cfg = daemon.configFor(normal);
    const auto high_cfg = daemon.configFor(high);

    EXPECT_GT(low_cfg.reclaimRatio, base.reclaimRatio);
    EXPECT_GT(low_cfg.psiThreshold, base.psiThreshold);
    EXPECT_DOUBLE_EQ(normal_cfg.reclaimRatio, base.reclaimRatio);
    EXPECT_LT(high_cfg.reclaimRatio, base.reclaimRatio);
    EXPECT_LT(high_cfg.psiThreshold, base.psiThreshold);
}

TEST(TmoDaemonTest, ManagesMultipleContainers)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    core::TmoDaemon daemon(simulation, machine.memory());

    auto &app = machine.addApp(
        workload::appPreset("feed", 512ull << 20),
        tier::TierChainSpec::parse("zswap"));
    auto &tax = machine.addApp(
        workload::sidecarPreset("dc_logging", 128ull << 20),
        tier::TierChainSpec::parse("zswap"));
    tax.cgroup().setPriority(cgroup::Priority::LOW);

    machine.start();
    app.start();
    tax.start();
    daemon.manage(app.cgroup());
    daemon.manage(tax.cgroup());
    daemon.start();
    ASSERT_EQ(daemon.senpais().size(), 2u);

    simulation.runUntil(5 * sim::MINUTE);
    for (const auto &senpai : daemon.senpais()) {
        EXPECT_TRUE(senpai->running());
        EXPECT_GT(senpai->totalRequested(), 0u);
    }

    daemon.stop();
    for (const auto &senpai : daemon.senpais())
        EXPECT_FALSE(senpai->running());
}

TEST(TmoDaemonTest, LowPriorityTaxYieldsMoreRelativeSavings)
{
    sim::Simulation simulation;
    host::Host machine(simulation, hostConfig());
    core::TmoDaemon daemon(simulation, machine.memory());

    // Identical coldness profiles, different priorities.
    auto profile = workload::sidecarPreset("dc_profiling",
                                           256ull << 20);
    profile.name = "tax";
    auto &tax = machine.addApp(profile, tier::TierChainSpec::parse("zswap"));
    tax.cgroup().setPriority(cgroup::Priority::LOW);
    profile.name = "svc";
    auto &svc = machine.addApp(profile, tier::TierChainSpec::parse("zswap"));
    svc.cgroup().setPriority(cgroup::Priority::HIGH);

    machine.start();
    tax.start();
    svc.start();
    daemon.manage(tax.cgroup());
    daemon.manage(svc.cgroup());
    daemon.start();
    simulation.runUntil(10 * sim::MINUTE);

    const double tax_left = static_cast<double>(tax.cgroup().memCurrent());
    const double svc_left = static_cast<double>(svc.cgroup().memCurrent());
    EXPECT_LT(tax_left, svc_left);
}

TEST(OomdLiteTest, KillsOnSustainedFullPressure)
{
    sim::Simulation simulation;
    cgroup::CgroupTree tree;
    auto &cg = tree.create("victim");
    core::OomdLite oomd(simulation, {0.2, 10 * sim::SEC, sim::SEC});

    bool killed = false;
    oomd.watch(cg, [&] { killed = true; });
    oomd.start();

    // Saturate full-memory pressure: one task stalled, nothing running.
    sched::Task task(cg, "t");
    simulation.at(0, [&] { task.setState(psi::TSK_MEMSTALL, 0); });
    simulation.runUntil(15 * sim::SEC);
    task.setState(0, simulation.now());
    EXPECT_TRUE(killed);
    EXPECT_EQ(oomd.kills(), 1u);
}

TEST(OomdLiteTest, MildPressureDoesNotKill)
{
    sim::Simulation simulation;
    cgroup::CgroupTree tree;
    auto &cg = tree.create("healthy");
    core::OomdLite oomd(simulation, {0.2, 10 * sim::SEC, sim::SEC});
    bool killed = false;
    oomd.watch(cg, [&] { killed = true; });
    oomd.start();

    // 5% duty-cycle stall: far below the 20% kill threshold.
    sched::Task task(cg, "t");
    for (int s = 0; s < 30; ++s) {
        simulation.at(s * sim::SEC, [&, s] {
            task.setState(psi::TSK_MEMSTALL, simulation.now());
        });
        simulation.at(s * sim::SEC + 50 * sim::MSEC, [&] {
            task.setState(0, simulation.now());
        });
    }
    simulation.runUntil(30 * sim::SEC);
    EXPECT_FALSE(killed);
    EXPECT_EQ(oomd.kills(), 0u);
}

TEST(OomdLiteTest, StopHaltsPolling)
{
    sim::Simulation simulation;
    cgroup::CgroupTree tree;
    auto &cg = tree.create("x");
    core::OomdLite oomd(simulation, {0.01, 10 * sim::SEC, sim::SEC});
    bool killed = false;
    oomd.watch(cg, [&] { killed = true; });
    oomd.start();
    oomd.stop();

    sched::Task task(cg, "t");
    simulation.at(0, [&] { task.setState(psi::TSK_MEMSTALL, 0); });
    simulation.runUntil(20 * sim::SEC);
    task.setState(0, simulation.now());
    EXPECT_FALSE(killed);
}
