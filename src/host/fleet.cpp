#include "host/fleet.hpp"

#include <algorithm>
#include <exception>
#include <iostream>

namespace tmo::host
{

namespace
{

/** Mix the configured seed with the host index (splitmix-style) so a
 *  shared spec still yields deterministically distinct hosts. */
std::uint64_t
mixSeed(std::uint64_t seed, std::size_t index)
{
    return seed * 0x2545f4914f6cdd1dull +
           (index + 1) * 0x9e3779b97f4a7c15ull;
}

/**
 * Hosts per aggregation group. Fixed by fleet size only — NEVER by
 * the job count — so the partial boundaries (and with them any
 * floating-point fold order) are identical for every --jobs value.
 * 64 hosts per group keeps per-group work coarse enough to amortize
 * executor dispatch while a 100k-host fleet still fans out over
 * ~1.5k groups.
 */
constexpr std::size_t GROUP_HOSTS = 64;

} // namespace

Fleet::Fleet(const FleetSpec &spec)
{
    *this = spec.build();
}

void
Fleet::buildShard(Shard &shard)
{
    HostConfig config = shard.builder.hostConfig();
    // Always the ORIGINAL host index: a rebuilt host replays the same
    // deterministic life its first incarnation had.
    config.seed = mixSeed(config.seed, shard.index);

    // On a restart rebuild, the old host must die while its clock is
    // still alive: controller destructors cancel their timers on the
    // simulation they were scheduled on.
    shard.host.reset();
    shard.sim = std::make_unique<sim::Simulation>();
    const std::string name =
        shard.builder.hostName().empty()
            ? "host" + std::to_string(shard.index)
            : shard.builder.hostName();
    shard.host = std::make_unique<Host>(*shard.sim, config, name);
    for (auto &spec : shard.builder.resolvedApps()) {
        auto &app = shard.host->addApp(spec.profile, spec.tiers);
        app.cgroup().setPriority(spec.priority);
    }
    if (shard.builder.controllerFactory()) {
        shard.host->setController(
            shard.builder.controllerFactory()(*shard.host));
        // Same recipe doubles as the controller watchdog's rebuild
        // path after a CONTROLLER_CRASH fault.
        shard.host->setControllerFactory(
            shard.builder.controllerFactory());
    }
    if (traceBytesPerHost_)
        shard.host->enableTracing(traceBytesPerHost_);
    if (metricsInterval_)
        shard.host->enableMetrics(metricsInterval_);
}

Host &
Fleet::addHost(const HostBuilder &builder)
{
    Shard shard;
    shard.builder = builder;
    shard.index = shards_.size();
    buildShard(shard);
    shards_.push_back(std::move(shard));
    return *shards_.back().host;
}

void
Fleet::enableTracing(std::size_t capacity_bytes_per_host)
{
    traceBytesPerHost_ = capacity_bytes_per_host;
    if (!traceBytesPerHost_)
        return;
    for (auto &shard : shards_)
        shard.host->enableTracing(traceBytesPerHost_);
}

void
Fleet::enableMetrics(sim::SimTime interval)
{
    metricsInterval_ = interval;
    if (!metricsInterval_)
        return;
    for (auto &shard : shards_)
        shard.host->enableMetrics(metricsInterval_);
}

std::vector<obs::HostTrace>
Fleet::traces()
{
    std::vector<obs::HostTrace> hosts;
    for (auto &shard : shards_)
        if (shard.host->trace())
            hosts.emplace_back(shard.host->name(),
                               shard.host->trace());
    return hosts;
}

std::size_t
Fleet::aggGroupCount() const
{
    return (shards_.size() + GROUP_HOSTS - 1) / GROUP_HOSTS;
}

void
Fleet::forEachShardGroup(
    const std::function<void(std::size_t, std::size_t, std::size_t)>
        &group_fn)
{
    const std::size_t groups = aggGroupCount();
    if (groups == 0)
        return;
    // A worker lane must not unwind through parallelFor (no handler
    // there — it would terminate): capture per group, rethrow on the
    // calling thread after the barrier, first group in order wins.
    std::vector<std::exception_ptr> errors(groups);
    const auto run_group = [&](std::size_t g) {
        const std::size_t begin = g * GROUP_HOSTS;
        const std::size_t end =
            std::min(begin + GROUP_HOSTS, shards_.size());
        try {
            group_fn(g, begin, end);
        } catch (...) {
            errors[g] = std::current_exception();
        }
    };
    if (executor_ && groups > 1) {
        executor_->parallelFor(groups, run_group);
    } else {
        for (std::size_t g = 0; g < groups; ++g)
            run_group(g);
    }
    for (const auto &error : errors)
        if (error)
            std::rethrow_exception(error);
}

std::vector<stats::TimeSeries>
Fleet::metricSeries()
{
    // Each group copies its hosts' series into its own partial slot
    // (exclusively owned by the lane running the group); the partials
    // are then spliced in group order, preserving the host-index then
    // metric-name order of the historical serial walk.
    std::vector<std::vector<stats::TimeSeries>> partials(
        aggGroupCount());
    forEachShardGroup([&](std::size_t g, std::size_t begin,
                          std::size_t end) {
        std::vector<stats::TimeSeries> &part = partials[g];
        for (std::size_t i = begin; i < end; ++i) {
            const Shard &shard = shards_[i];
            const obs::MetricSampler *sampler = shard.host->sampler();
            if (!sampler)
                continue;
            for (const stats::TimeSeries *series : sampler->series()) {
                stats::TimeSeries copy(shard.host->name() + "." +
                                       series->name());
                for (const stats::Sample &sample : series->samples())
                    copy.record(sample.time, sample.value);
                part.push_back(std::move(copy));
            }
        }
    });
    std::vector<stats::TimeSeries> merged;
    std::size_t total = 0;
    for (const auto &part : partials)
        total += part.size();
    merged.reserve(total);
    for (auto &part : partials)
        for (auto &series : part)
            merged.push_back(std::move(series));
    return merged;
}

void
Fleet::start()
{
    for (auto &shard : shards_) {
        shard.host->start();
        for (const auto &app : shard.host->apps())
            app->start();
        if (shard.host->controller())
            shard.host->controller()->start();
    }
}

void
Fleet::setEpoch(sim::SimTime epoch)
{
    epoch_ = epoch > 0 ? epoch : sim::MINUTE;
}

void
Fleet::run(sim::SimTime deadline, unsigned jobs)
{
    if (jobs == 0)
        jobs = 1;
    const bool parallel = jobs > 1 && shards_.size() > 1;
    if (parallel && (!executor_ || executor_->jobs() != jobs))
        executor_ = std::make_unique<sim::ShardedExecutor>(jobs);

    while (now_ < deadline) {
        const sim::SimTime target = std::min(deadline, now_ + epoch_);
        // Advance every shard to the epoch end. The executor's
        // barrier is the only cross-shard synchronization point;
        // within the epoch each shard runs single-threaded on its own
        // clock, so results cannot depend on jobs or epoch length.
        // A shard that throws is marked failed and frozen — exactly
        // one host's experiment is lost, not the fleet's. Each lane
        // touches only its own shard, so the flag needs no locking.
        const auto step = [this, target](std::size_t i) {
            Shard &shard = shards_[i];
            if (shard.failed)
                return;
            try {
                shard.sim->runUntil(target);
            } catch (const std::exception &error) {
                shard.failed = true;
                shard.error = error.what();
                shard.failedAt = target;
            } catch (...) {
                shard.failed = true;
                shard.error = "unknown error";
                shard.failedAt = target;
            }
        };
        if (parallel) {
            executor_->parallelFor(shards_.size(), step);
        } else {
            for (std::size_t i = 0; i < shards_.size(); ++i)
                step(i);
        }
        now_ = target;
        // Recovery decisions live at the barrier, on the calling
        // thread, in shard-index order: the only cross-shard state
        // (restart counters, audit log) is touched deterministically.
        restartEligibleShards();
        if (audit_)
            auditShards();
    }
}

void
Fleet::restartEligibleShards()
{
    if (restart_.maxAttempts == 0)
        return;
    for (auto &shard : shards_) {
        if (!shard.failed ||
            shard.restartAttempts >= restart_.maxAttempts)
            continue;
        // Exponential backoff in sim-time, capped.
        double wait = static_cast<double>(restart_.backoff);
        for (unsigned i = 0; i < shard.restartAttempts; ++i)
            wait *= restart_.multiplier;
        if (restart_.maxBackoff)
            wait = std::min(
                wait, static_cast<double>(restart_.maxBackoff));
        if (static_cast<double>(now_ - shard.failedAt) < wait)
            continue;

        ++shard.restartAttempts;
        // Rebuild from the stored recipe (dropping the dead host and
        // its frozen clock), fast-forward the empty queue to the
        // fleet clock, then start services as Fleet::start() would —
        // every periodic tick lands on now_ + period.
        buildShard(shard);
        shard.sim->runUntil(now_);
        shard.host->start();
        for (const auto &app : shard.host->apps())
            app->start();
        if (shard.host->controller())
            shard.host->controller()->start();
        shard.failed = false;
        shard.error.clear();
        ++restartedCount_;
        if (restartHook_)
            restartHook_(shard.index, *shard.host);
    }
}

void
Fleet::auditShards()
{
    // Bounded log: a systematically broken invariant would otherwise
    // flood memory over a long soak.
    constexpr std::size_t MAX_VIOLATIONS = 16;
    for (auto &shard : shards_) {
        if (shard.failed)
            continue;
        if (auditViolations_.size() >= MAX_VIOLATIONS)
            return;
        const auto violations = audit_(*shard.host);
        if (violations.empty())
            continue;
        for (const auto &violation : violations) {
            if (auditViolations_.size() >= MAX_VIOLATIONS)
                break;
            auditViolations_.push_back(shard.host->name() + ": " +
                                       violation);
        }
        if (!auditDumped_) {
            auditDumped_ = true;
            dumpTraceExcerpt(shard);
        }
    }
}

void
Fleet::dumpTraceExcerpt(const Shard &shard) const
{
    std::cerr << "invariant violation on " << shard.host->name()
              << " at t=" << sim::toSeconds(now_) << "s\n";
    const obs::TraceRing *ring = shard.host->trace();
    if (!ring) {
        std::cerr << "  (tracing off; no event excerpt)\n";
        return;
    }
    const auto events = ring->snapshot();
    constexpr std::size_t EXCERPT = 20;
    const std::size_t first =
        events.size() > EXCERPT ? events.size() - EXCERPT : 0;
    for (std::size_t i = first; i < events.size(); ++i) {
        const auto &event = events[i];
        std::cerr << "  t=" << sim::toSeconds(event.time) << "s "
                  << obs::traceEventTypeName(event.type)
                  << " code=" << static_cast<unsigned>(event.code)
                  << " domain=" << event.domain << " a0="
                  << event.args[0] << " a1=" << event.args[1]
                  << "\n";
    }
}

std::size_t
Fleet::failedCount() const
{
    std::size_t count = 0;
    for (const auto &shard : shards_)
        count += shard.failed ? 1 : 0;
    return count;
}

std::size_t
Fleet::permanentlyFailedCount() const
{
    std::size_t count = 0;
    for (const auto &shard : shards_)
        if (shard.failed &&
            (restart_.maxAttempts == 0 ||
             shard.restartAttempts >= restart_.maxAttempts))
            ++count;
    return count;
}

std::vector<double>
Fleet::collect(const std::function<double(Host &)> &metric)
{
    // Hierarchical gather: each fixed contiguous shard group builds
    // its value vector in host-index order on an executor lane, and
    // the partials concatenate in group order — exactly the flat
    // host-index walk, value for value, for any --jobs.
    // Failed hosts are frozen at their failure time; folding them
    // into a fleet percentile would mix stale samples into a
    // distribution taken "now". Skip them — availability is reported
    // separately via failedCount(). With every host failed the result
    // is empty: consumers report "no data", not values[0].
    std::vector<std::vector<double>> partials(aggGroupCount());
    forEachShardGroup([&](std::size_t g, std::size_t begin,
                          std::size_t end) {
        std::vector<double> &part = partials[g];
        part.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
            Shard &shard = shards_[i];
            if (shard.failed)
                continue;
            part.push_back(metric(*shard.host));
        }
    });
    std::vector<double> values;
    values.reserve(shards_.size());
    for (const auto &part : partials)
        values.insert(values.end(), part.begin(), part.end());
    return values;
}

stats::Histogram
Fleet::mergeHistograms(
    const std::function<std::vector<const stats::Histogram *>(Host &)>
        &pick)
{
    // Hierarchical merge: every group pre-merges its hosts'
    // histograms (host-index order) into a private partial; the
    // partials combine in group order. Bucket counts are uint64 sums
    // and min/max are extremum folds — order-invariant — so counts
    // and every quantile are bit-identical to the flat host-index
    // merge for any --jobs; the mean's double summation order is
    // pinned by the fleet-size-only partition.
    struct Partial {
        stats::Histogram hist;
        bool any = false;
    };
    std::vector<Partial> partials(aggGroupCount());
    forEachShardGroup([&](std::size_t g, std::size_t begin,
                          std::size_t end) {
        Partial &part = partials[g];
        for (std::size_t i = begin; i < end; ++i) {
            Shard &shard = shards_[i];
            if (shard.failed)
                continue;
            for (const stats::Histogram *hist : pick(*shard.host)) {
                if (!hist)
                    continue;
                if (!part.any) {
                    part.hist = *hist;
                    part.any = true;
                } else {
                    part.hist.merge(*hist);
                }
            }
        }
    });
    stats::Histogram merged;
    bool first = true;
    for (const Partial &part : partials) {
        if (!part.any)
            continue;
        if (first) {
            merged = part.hist;
            first = false;
        } else {
            merged.merge(part.hist);
        }
    }
    return merged;
}

} // namespace tmo::host
