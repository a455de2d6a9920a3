#include "obs/metrics.hpp"

namespace tmo::obs
{

Counter &
MetricRegistry::counter(const std::string &name)
{
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

stats::Histogram &
MetricRegistry::histogram(const std::string &name, double min_value,
                          double max_value, int buckets_per_decade)
{
    if (const auto it = histograms_.find(name); it != histograms_.end())
        return *it->second;
    // Built before the name is taken: a rejected geometry leaves the
    // registry as it was.
    auto hist = std::make_unique<stats::Histogram>(min_value, max_value,
                                                   buckets_per_decade);
    return *histograms_.emplace(name, std::move(hist)).first->second;
}

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
    // Four-way merge of the (sorted) instrument maps, so the overall
    // visitation is one global lexicographic name order regardless of
    // instrument kind.
    auto c = counters_.begin();
    auto g = gauges_.begin();
    auto h = histograms_.begin();
    auto p = probes_.begin();
    while (c != counters_.end() || g != gauges_.end() ||
           h != histograms_.end() || p != probes_.end()) {
        const std::string *next = nullptr;
        const auto consider = [&](const std::string &name) {
            if (!next || name < *next)
                next = &name;
        };
        if (c != counters_.end())
            consider(c->first);
        if (g != gauges_.end())
            consider(g->first);
        if (h != histograms_.end())
            consider(h->first);
        if (p != probes_.end())
            consider(p->first);
        if (c != counters_.end() && &c->first == next) {
            fn(c->first, c->second->value());
            ++c;
        } else if (g != gauges_.end() && &g->first == next) {
            fn(g->first, g->second->value());
            ++g;
        } else if (h != histograms_.end() && &h->first == next) {
            fn(h->first + ".count",
               static_cast<double>(h->second->count()));
            fn(h->first + ".p50", h->second->p50());
            fn(h->first + ".p99", h->second->p99());
            fn(h->first + ".max", h->second->max());
            ++h;
        } else {
            fn(p->first, p->second ? p->second() : 0.0);
            ++p;
        }
    }
}

std::size_t
MetricRegistry::size() const
{
    return counters_.size() + gauges_.size() + histograms_.size() +
           probes_.size();
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
