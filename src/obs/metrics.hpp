/**
 * @file
 * Named metric registry and sim-clock sampler.
 *
 * Components register pull probes by name; the values stay with the
 * layer that owns them. A MetricSampler walks the registry on the
 * shard's sim-clock and appends one sample per probe per interval into
 * TimeSeries. Iteration order is the (deterministic) lexicographic name
 * order, so exported series are bit-identical for serial and parallel
 * runs.
 */

#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/periodic.hpp"
#include "stats/timeseries.hpp"

namespace tmo::obs
{

/** Registry of named pull probes. */
class MetricRegistry
{
  public:
    /** Register a pull probe evaluated at each sample tick. Replaces
     *  any previous probe of the same name. */
    void addProbe(const std::string &name,
                  std::function<double()> probe);

    /** Remove the probe named @p name; its series keeps the samples
     *  it has. Unknown names are ignored. */
    void removeProbe(const std::string &name);

    /** Every probe's name, in name order. */
    std::vector<std::string> names() const;

    /** Visit every probe's value in name order. */
    void visit(const std::function<void(const std::string &name,
                                        double value)> &fn) const;

    std::size_t size() const { return probes_.size(); }

  private:
    // std::map keeps visitation order deterministic.
    std::map<std::string, std::function<double()>> probes_;
};

/**
 * Samples a MetricRegistry on the sim-clock into per-metric
 * TimeSeries. Sampling happens at start()+k*interval, aligning with
 * periodic controllers when given the same interval (Senpai: 6 s).
 */
class MetricSampler
{
  public:
    MetricSampler(sim::Simulation &simulation, MetricRegistry &registry,
                  sim::SimTime interval);

    MetricSampler(const MetricSampler &) = delete;
    MetricSampler &operator=(const MetricSampler &) = delete;

    /** Begin periodic sampling (first sample one interval from now). */
    void start() { timer_.start(); }
    void stop() { timer_.stop(); }
    bool running() const { return timer_.running(); }

    /** Take one sample of every metric right now. */
    void sampleOnce();

    /** Every series by metric name. */
    using Series = std::map<std::string, stats::TimeSeries>;

    /** Hand every series over, leaving this sampler with none. */
    Series takeSeries() { return std::exchange(series_, {}); }

    /** Continue @p earlier, the series of a sampler this one replaces
     *  (a rebuilt host's): new samples append to them. Only before
     *  this sampler's first sample. */
    void continueSeries(Series earlier);

    /** All collected series, in name order. */
    std::vector<const stats::TimeSeries *> series() const;

    /** One series by metric name; nullptr when never sampled. */
    const stats::TimeSeries *find(const std::string &name) const;

  private:
    sim::Simulation &sim_;
    MetricRegistry &registry_;
    Series series_;
    sim::Periodic<MetricSampler, &MetricSampler::sampleOnce> timer_;
};

} // namespace tmo::obs
