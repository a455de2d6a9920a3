#include "obs/metrics.hpp"

namespace tmo::obs
{

void
MetricRegistry::addProbe(const std::string &name,
                         std::function<double()> probe)
{
    probes_[name] = std::move(probe);
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
    : sim_(simulation), registry_(registry), interval_(interval)
{}

MetricSampler::~MetricSampler()
{
    stop();
}

void
MetricSampler::start()
{
    if (running_)
        return;
    running_ = true;
    event_ = sim_.after(interval_, [this] { tick(); });
}

void
MetricSampler::stop()
{
    if (!running_)
        return;
    running_ = false;
    sim_.events().cancel(event_);
    event_ = sim::INVALID_EVENT;
}

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
MetricSampler::tick()
{
    sampleOnce();
    if (running_)
        event_ = sim_.after(interval_, [this] { tick(); });
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
