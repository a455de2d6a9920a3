/**
 * @file
 * The common userspace-controller interface.
 *
 * TMO's control plane is pluggable: Senpai, the per-container TMO
 * daemon, and the g-swap baseline are all periodic userspace policies
 * that start, stop, and expose telemetry. Controller is the small
 * polymorphic surface they share, so hosts, the fleet engine, and
 * tools/tmo_sim can hold and dispatch "the controller" without
 * special-casing each backend by name.
 */

#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace tmo::obs
{
class TraceRing;
class MetricRegistry;
} // namespace tmo::obs

namespace tmo::core
{

/** The period of every control loop: Senpai's reclaim step (§3.3),
 *  the SLO state machine, g-swap and the TMO daemon's health check.
 *  Six seconds: long enough to observe the delayed impact (refaults)
 *  of the last step. */
inline constexpr sim::SimTime CONTROL_INTERVAL = 6 * sim::SEC;

/** Label/value telemetry pairs for summary tables. */
using StatsRow = std::vector<std::pair<std::string, std::string>>;

/** A userspace memory-offloading policy controlling one host's
 *  containers through exported kernel interfaces only. */
class Controller
{
  public:
    Controller() = default;
    virtual ~Controller() = default;

    Controller(const Controller &) = delete;
    Controller &operator=(const Controller &) = delete;

    /** Begin periodic control. Idempotent. */
    virtual void start() = 0;

    /** Stop controlling (cgroup state is left as-is). Idempotent. */
    virtual void stop() = 0;

    /** Whether periodic control is active. */
    virtual bool running() const = 0;

    /** Short policy name ("senpai", "tmo", "gswap", ...). */
    virtual std::string name() const = 0;

    /** Telemetry for summary output; may be empty. */
    virtual StatsRow statsRow() const { return {}; }

    /** Attach a trace ring (nullptr detaches). Controllers that emit
     *  trace events override this; the default ignores tracing. */
    virtual void setTrace(obs::TraceRing * /* ring */) {}

    /** Register this controller's metrics (counters/gauges/probes)
     *  with the host registry. Default: nothing to register. */
    virtual void registerMetrics(obs::MetricRegistry & /* registry */) {}
};

/**
 * A controller made of controllers: one policy instance per container
 * presented as a single host-level Controller (how "senpai" and
 * "gswap" scale past one container without daemon machinery).
 */
class CompositeController final : public Controller
{
  public:
    explicit CompositeController(std::string name)
        : name_(std::move(name))
    {}

    /** Take ownership of a part (ignores nullptr). */
    Controller &
    add(std::unique_ptr<Controller> part)
    {
        parts_.push_back(std::move(part));
        return *parts_.back();
    }

    void
    start() override
    {
        for (auto &part : parts_)
            part->start();
    }

    void
    stop() override
    {
        for (auto &part : parts_)
            part->stop();
    }

    bool
    running() const override
    {
        for (const auto &part : parts_)
            if (part->running())
                return true;
        return false;
    }

    std::string name() const override { return name_; }

    void
    setTrace(obs::TraceRing *ring) override
    {
        for (auto &part : parts_)
            part->setTrace(ring);
    }

    void
    registerMetrics(obs::MetricRegistry &registry) override
    {
        for (auto &part : parts_)
            part->registerMetrics(registry);
    }

    StatsRow
    statsRow() const override
    {
        StatsRow rows;
        for (const auto &part : parts_) {
            auto sub = part->statsRow();
            rows.insert(rows.end(),
                        std::make_move_iterator(sub.begin()),
                        std::make_move_iterator(sub.end()));
        }
        return rows;
    }

    std::size_t size() const { return parts_.size(); }
    Controller &part(std::size_t i) { return *parts_[i]; }

  private:
    std::string name_;
    std::vector<std::unique_ptr<Controller>> parts_;
};

} // namespace tmo::core
