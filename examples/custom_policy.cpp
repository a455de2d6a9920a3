/**
 * @file
 * Building a custom userspace memory controller on the public API.
 *
 * Senpai is one policy; the kernel interfaces it uses — per-cgroup PSI
 * and the stateless memory.reclaim knob — are general. This example
 * implements a different policy ("free-memory targeter": keep host
 * free memory at a setpoint, back off on full-pressure) and runs it
 * next to a PSI trigger that pages a human when pressure escalates,
 * plus oomd-lite as the last line of defence (§3.2.4).
 *
 * Build & run:  ./build/examples/custom_policy
 */

#include <algorithm>
#include <iostream>

#include "core/oomd_lite.hpp"
#include "host/host.hpp"
#include "psi/psi.hpp"
#include "stats/table.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace
{

/**
 * A deliberately different control law: reclaim whatever keeps host
 * free memory at `target_free`, unless the container shows full-
 * memory pressure over the last interval.
 */
class FreeMemoryTargeter
{
  public:
    FreeMemoryTargeter(sim::Simulation &simulation,
                       mem::MemoryManager &mm, cgroup::Cgroup &cg,
                       std::uint64_t target_free)
        : sim_(simulation), mm_(mm), cg_(&cg), targetFree_(target_free)
    {}

    void
    start()
    {
        sim_.every(10 * sim::SEC, [this] {
            tick();
            return true;
        });
    }

    std::uint64_t reclaimed() const { return reclaimed_; }

  private:
    void
    tick()
    {
        const auto now = sim_.now();
        // Back off on any full-memory pressure in the last window.
        const auto full =
            cg_->psi().totalFull(psi::Resource::MEM, now);
        if (full > lastFull_) {
            lastFull_ = full;
            return;
        }
        lastFull_ = full;
        if (mm_.freeBytes() >= targetFree_)
            return;
        const std::uint64_t want = std::min<std::uint64_t>(
            targetFree_ - mm_.freeBytes(), 32ull << 20);
        reclaimed_ += cg_->memoryReclaim(want, now);
    }

    sim::Simulation &sim_;
    mem::MemoryManager &mm_;
    cgroup::Cgroup *cg_;
    std::uint64_t targetFree_;
    std::uint64_t reclaimed_ = 0;
    sim::SimTime lastFull_ = 0;
};

} // namespace

int
main()
{
    sim::Simulation simulation;
    host::HostConfig config;
    config.mem.ramBytes = 1ull << 30;
    config.mem.pageBytes = 64 * 1024;
    host::Host machine(simulation, config, "custom");
    auto &app = machine.addApp(
        workload::appPreset("analytics", 900ull << 20),
        tier::TierChainSpec::parse("zswap"));
    machine.start();
    app.start();

    // 1. The custom policy: keep 256 MiB free on the host.
    FreeMemoryTargeter policy(simulation, machine.memory(),
                              app.cgroup(), 256ull << 20);
    policy.start();

    // 2. A PSI trigger for observability: fire when the container
    //    stalls on memory for >150 ms within any 10 s window.
    psi::PsiTriggerSet triggers(app.cgroup().psi());
    int alerts = 0;
    psi::PsiTrigger trigger;
    trigger.resource = psi::Resource::MEM;
    trigger.threshold = 150 * sim::MSEC;
    trigger.window = 10 * sim::SEC;
    trigger.callback = [&](sim::SimTime stall) {
        ++alerts;
        std::cout << "  [alert] memory stall "
                  << stats::fmt(sim::toSeconds(stall) * 1000, 0)
                  << " ms within 10 s at t="
                  << stats::fmt(sim::toSeconds(simulation.now()), 0)
                  << " s\n";
    };
    triggers.add(trigger);
    simulation.every(2 * sim::SEC, [&] {
        triggers.poll(simulation.now());
        return true;
    });

    // 3. oomd-lite: kill the container on sustained full pressure.
    core::OomdLite oomd(simulation);
    oomd.watch(app.cgroup(), [&] {
        std::cout << "  [oomd] would kill " << app.cgroup().name()
                  << "\n";
    });
    oomd.start();

    std::cout << "custom policy: free-memory targeter + PSI trigger"
                 " + oomd-lite\n\n";
    simulation.runUntil(30 * sim::MINUTE);

    stats::Table table;
    table.setHeader({"metric", "value"});
    table.addRow({"host free", stats::fmtBytes(static_cast<double>(
                                   machine.memory().freeBytes()))});
    table.addRow({"reclaim requested by policy",
                  stats::fmtBytes(static_cast<double>(
                      policy.reclaimed()))});
    table.addRow({"PSI alerts", std::to_string(alerts)});
    table.addRow({"oomd kills", std::to_string(oomd.kills())});
    table.addRow({"app RPS", stats::fmt(app.lastTick().completedRps, 0)});
    table.print(std::cout);

    std::cout << "\nThe same kernel interfaces Senpai uses (PSI +"
                 " memory.reclaim) compose into arbitrary userspace"
                 " policies.\n";
    return 0;
}
