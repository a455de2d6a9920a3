#include "obs/metrics.hpp"

#include <cassert>

namespace tmo::obs
{

void
MetricRegistry::addProbe(const std::string &name,
                         std::function<double()> probe)
{
    probes_[name] = std::move(probe);
}

void
MetricRegistry::removeProbe(const std::string &name)
{
    probes_.erase(name);
}

std::vector<std::string>
MetricRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &entry : probes_)
        out.push_back(entry.first);
    return out;
}

void
MetricRegistry::visit(const std::function<void(const std::string &,
                                               double)> &fn) const
{
    for (const auto &[name, probe] : probes_)
        fn(name, probe ? probe() : 0.0);
}

MetricSampler::MetricSampler(sim::Simulation &simulation,
                             MetricRegistry &registry,
                             sim::SimTime interval)
    : sim_(simulation), registry_(registry),
      timer_(simulation, *this, interval)
{}

void
MetricSampler::sampleOnce()
{
    const sim::SimTime now = sim_.now();
    registry_.visit([&](const std::string &name, double value) {
        auto it = series_.find(name);
        if (it == series_.end())
            it = series_.emplace(name, stats::TimeSeries(name)).first;
        it->second.record(now, value);
    });
}

void
MetricSampler::continueSeries(Series earlier)
{
    assert(series_.empty() && "continueSeries after a sample");
    series_ = std::move(earlier);
}

std::vector<const stats::TimeSeries *>
MetricSampler::series() const
{
    std::vector<const stats::TimeSeries *> out;
    out.reserve(series_.size());
    for (const auto &[name, ts] : series_)
        out.push_back(&ts);
    return out;
}

const stats::TimeSeries *
MetricSampler::find(const std::string &name) const
{
    const auto it = series_.find(name);
    return it == series_.end() ? nullptr : &it->second;
}

} // namespace tmo::obs
