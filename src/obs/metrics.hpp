/**
 * @file
 * Named metric registry and sim-clock sampler.
 *
 * Components register counters, gauges, histograms, or pull probes by
 * name; a MetricSampler walks the registry on the shard's sim-clock
 * and appends one sample per metric per interval into TimeSeries.
 * Iteration order is the (deterministic) lexicographic name order, so
 * exported series are bit-identical for serial and parallel runs.
 */

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "stats/histogram.hpp"
#include "stats/timeseries.hpp"

namespace tmo::obs
{

/** Monotone accumulating metric. */
class Counter
{
  public:
    void add(double delta) { value_ += delta; }
    void increment() { value_ += 1.0; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Point-in-time metric, overwritten on set. */
class Gauge
{
  public:
    void set(double value) { value_ = value; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Registry of named metrics. Registration is idempotent per name:
 * asking for an existing name returns the existing instrument, so
 * components can grab handles without coordinating ownership.
 */
class MetricRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    /** Histogram metrics expand to <name>.count / .p50 / .p99 / .max
     *  when sampled. A new name with a bad geometry throws the
     *  Histogram constructor's std::invalid_argument and registers
     *  nothing. */
    stats::Histogram &histogram(const std::string &name,
                                double min_value = 1.0,
                                double max_value = 1e12,
                                int buckets_per_decade = 20);

    /** Register a pull probe evaluated at each sample tick. Replaces
     *  any previous probe of the same name. */
    void addProbe(const std::string &name,
                  std::function<double()> probe);

    /** Visit every samplable value in name order. Histograms visit
     *  once per expanded sub-metric. */
    void visit(const std::function<void(const std::string &name,
                                        double value)> &fn) const;

    std::size_t size() const;

  private:
    // std::map keeps visitation order deterministic.
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<stats::Histogram>>
        histograms_;
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
    ~MetricSampler();

    MetricSampler(const MetricSampler &) = delete;
    MetricSampler &operator=(const MetricSampler &) = delete;

    /** Begin periodic sampling (first sample one interval from now). */
    void start();
    void stop();
    bool running() const { return running_; }

    /** Take one sample of every metric right now. */
    void sampleOnce();

    sim::SimTime interval() const { return interval_; }

    /** All collected series, in name order. */
    std::vector<const stats::TimeSeries *> series() const;

    /** One series by metric name; nullptr when never sampled. */
    const stats::TimeSeries *find(const std::string &name) const;

  private:
    void tick();

    sim::Simulation &sim_;
    MetricRegistry &registry_;
    sim::SimTime interval_;
    bool running_ = false;
    sim::EventId event_ = sim::INVALID_EVENT;
    std::map<std::string, stats::TimeSeries> series_;
};

} // namespace tmo::obs
