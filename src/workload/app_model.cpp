#include "workload/app_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sched/cpu_model.hpp"

namespace tmo::workload
{

AppModel::AppModel(sim::Simulation &simulation, mem::MemoryManager &mm,
                   cgroup::Cgroup &cg, AppProfile profile,
                   unsigned host_cpus, std::uint64_t seed,
                   sim::SimTime tick, sched::CpuCoordinator *coordinator)
    : sim_(simulation), mm_(mm), cg_(&cg), profile_(std::move(profile)),
      hostCpus_(host_cpus), coordinator_(coordinator), rng_(seed),
      tickLen_(tick), timer_(simulation, *this, tick)
{
    assert(tickLen_ > 0);
    for (unsigned i = 0; i < profile_.threads; ++i) {
        tasks_.push_back(std::make_unique<sched::Task>(
            cg, profile_.name + "/worker" + std::to_string(i)));
    }
    demands_.resize(tasks_.size());
    timelines_.resize(tasks_.size());
    for (std::size_t i = 0; i < tasks_.size(); ++i)
        timelines_[i].task = tasks_[i].get();
    buildRegions();
}

void
AppModel::buildRegions()
{
    regions_.clear();
    const auto page = static_cast<double>(mm_.pageBytes());
    for (const auto &spec : profile_.regions) {
        Region region;
        region.spec = spec;
        region.targetPages = static_cast<std::uint64_t>(
            spec.fraction * static_cast<double>(profile_.footprintBytes) /
            page);
        if (region.targetPages == 0)
            continue;
        regions_.push_back(std::move(region));
    }
}

void
AppModel::allocateInitial(sim::SimTime now)
{
    for (auto &region : regions_) {
        // Lazy regions too: they grow to targetPages at most, so their
        // growth never reallocates mid-run.
        region.pages.reserve(region.targetPages);
        if (region.spec.lazy)
            continue; // grows over time
        // File pages start resident too: the page cache is assumed
        // warm at container start (Web preloads its cache, §4.2).
        region.pages.resize(region.targetPages);
        mm_.newPages(*cg_, !region.spec.file, true, region.targetPages, now,
                     region.pages.data());
    }
}

void
AppModel::growLazyRegions(sim::SimTime now, Stalls &stalls)
{
    if (profile_.growthSeconds <= 0.0)
        return;
    // Self-regulation (§4.2): near the memory limit the app throttles
    // requests, which also slows its allocation growth; it stops
    // allocating entirely with <2% headroom rather than thrash.
    const double throttle = throttleFactor();
    if (cg_->headroom() < cg_->memMax() / 50 &&
        cg_->memMax() != cgroup::NO_LIMIT)
        return;
    const double tick_s = sim::toSeconds(tickLen_);
    for (auto &region : regions_) {
        if (!region.spec.lazy ||
            region.pages.size() >= region.targetPages)
            continue;
        const double per_tick =
            throttle * static_cast<double>(region.targetPages) *
            tick_s / profile_.growthSeconds;
        growthCarry_ += per_tick;
        auto grow = static_cast<std::uint64_t>(growthCarry_);
        growthCarry_ -= static_cast<double>(grow);
        grow = std::min<std::uint64_t>(
            grow, region.targetPages - region.pages.size());
        const std::size_t have = region.pages.size();
        region.pages.resize(have + grow);
        stalls.add(mm_.newPages(*cg_, !region.spec.file, true, grow, now,
                                region.pages.data() + have));
    }
}

void
AppModel::churnColdAllocations(sim::SimTime now, Stalls &stalls)
{
    if (profile_.churnBytesPerSec <= 0.0)
        return;
    // Replace the oldest pages of the largest non-critical anon
    // region with freshly allocated ones: footprint stays constant,
    // but new soon-cold memory keeps appearing.
    Region *target = nullptr;
    for (auto &region : regions_) {
        if (region.spec.file || region.spec.critical ||
            region.pages.empty())
            continue;
        if (!target || region.pages.size() > target->pages.size())
            target = &region;
    }
    if (!target)
        return;
    churnCarry_ += profile_.churnBytesPerSec *
                   sim::toSeconds(tickLen_) /
                   static_cast<double>(mm_.pageBytes());
    auto replace = static_cast<std::uint64_t>(churnCarry_);
    churnCarry_ -= static_cast<double>(replace);
    replace = std::min<std::uint64_t>(replace, target->pages.size());
    for (std::uint64_t i = 0; i < replace; ++i) {
        const std::size_t slot = churnCursor_++ % target->pages.size();
        mm_.freePage(target->pages[slot]);
        mem::AccessResult result;
        target->pages[slot] =
            mm_.newPage(*cg_, true, true, now, &result);
        stalls.add(result);
    }
}

void
AppModel::count(const mem::TouchTotals &totals, bool critical,
                Stalls &stalls)
{
    lastTick_.touches += totals.touches;
    if (critical)
        lastTick_.criticalTouches += totals.touches;
    lastTick_.faults += totals.faults;
    lastTick_.refaults += totals.refaults;
    stalls += totals.stalls;
}

void
AppModel::sweepRegion(Region &region, sim::SimTime now,
                      sim::SimTime stall_budget, Stalls &critical,
                      Stalls &background)
{
    if (region.pages.empty())
        return;
    const double share = static_cast<double>(tickLen_) /
                         static_cast<double>(region.spec.reusePeriod);
    region.touchCarry +=
        static_cast<double>(region.pages.size()) * share;
    auto touches = static_cast<std::uint64_t>(region.touchCarry);
    region.touchCarry -= static_cast<double>(touches);
    touches = std::min<std::uint64_t>(touches, region.pages.size());
    if (touches == 0)
        return; // a small region's sweep is often empty

    // The app can't touch faster than it can fault: the sweep stops
    // once the tick's stalls reach the budget.
    const sim::SimTime stalled = critical.total() + background.total();
    const sim::SimTime budget =
        stalled < stall_budget ? stall_budget - stalled : 0;
    const mem::PageIdx *pages = region.pages.data();
    const std::size_t size = region.pages.size();
    // Cold regions are touched sporadically at random; warm/hot
    // regions cycle deterministically through their pages, from where
    // the last sweep stopped.
    const bool random = region.spec.randomAccess;
    sim::Rng rng = rng_;
    std::size_t pos = random ? 0 : region.cursor % size;
    const mem::TouchTotals totals = mm_.touch(
        touches, now,
        [&] {
            if (random)
                return pages[rng.uniformInt(size)];
            const mem::PageIdx idx = pages[pos];
            pos = pos + 1 == size ? 0 : pos + 1;
            return idx;
        },
        budget, region.spec.dirty);
    if (random)
        rng_ = rng;
    else
        region.cursor += totals.touches;
    count(totals, region.spec.critical,
          region.spec.critical ? critical : background);
}

double
AppModel::modelRequests(sim::SimTime start, const Stalls &critical)
{
    const double tick_s = sim::toSeconds(tickLen_);
    const double throttle = throttleFactor();
    const double offered = profile_.offeredRps * throttle;
    double completed = 0.0;
    if (offered > 0.0) {
        const double offered_now = offered * tick_s;
        const double cpu_per_req =
            profile_.cpuUsPerRequest * sim::USEC;
        // Frontend-bound coupling (§4.4): each request touches
        // touchesPerRequest pages of the critical working set; the
        // expected miss cost per touch is this tick's critical stall
        // time over its touches.
        double miss_cost = 0.0;
        if (lastTick_.criticalTouches > 0) {
            miss_cost = static_cast<double>(critical.total()) /
                        static_cast<double>(lastTick_.criticalTouches) *
                        profile_.touchesPerRequest;
        }
        // One tick holds few critical touches; smooth the estimate so
        // a single unlucky fault burst does not crater one tick's RPS.
        missCost_.update(miss_cost, start);
        miss_cost = missCost_.value();
        const double req_latency = cpu_per_req + miss_cost;
        lastTick_.requestLatencyUs = req_latency / sim::USEC;
        lastTick_.latencySampled = true;
        const double worker_time =
            static_cast<double>(profile_.threads) *
            static_cast<double>(tickLen_);
        const double capacity = req_latency > 0.0
                                    ? worker_time / req_latency
                                    : offered_now;
        completed = std::min(offered_now, capacity);
        // Small measurement noise so A/B deltas are not suspiciously
        // exact. Re-clamp afterwards: noise models measurement error
        // of the *completion* count, and an app cannot complete more
        // requests than were offered.
        completed *= std::max(0.0, rng_.normal(1.0, 0.01));
        completed = std::min(completed, offered_now);
    }
    lastTick_.offeredRps = offered;
    return completed;
}

sim::SimTime
AppModel::touchCriticalPages(std::uint64_t touches, sim::SimTime now,
                             Stalls &critical)
{
    // Fan-out: the request reads random pages of the critical working
    // set. A touch landing on an offloaded page eats the fault stall
    // in its own completion latency AND feeds PSI via the critical
    // stall bucket — the §4.4 coupling, now per request.
    if (criticalPages_.empty())
        return 0;
    const mem::PageIdx *pages = criticalPages_.data();
    const std::size_t size = criticalPages_.size();
    sim::Rng rng = rng_;
    const mem::TouchTotals totals = mm_.touch(
        touches, now, [&] { return pages[rng.uniformInt(size)]; },
        mem::NO_STALL_BUDGET, false);
    rng_ = rng;
    count(totals, true, critical);
    // Wall-clock cost to the request: mem and IO stalls of one
    // access overlap, so the longer one dominates.
    return totals.stalls.total();
}

void
AppModel::rollLatencyWindow(sim::SimTime now)
{
    if (now - windowStart_ < windowLen_)
        return;
    // An empty window yields "no signal" (negative), not a stale
    // reading: an idle trough must not keep a controller panicked
    // about a surge that already passed.
    windowP99Us_ = window_.count() > 0 ? window_.p99() : -1.0;
    window_.reset();
    windowStart_ = now;
}

double
AppModel::serveRequests(sim::SimTime start, Stalls &critical)
{
    const sim::SimTime end = start + tickLen_;
    rollLatencyWindow(start);
    if (!server_)
        server_ = std::make_unique<RequestServer>(
            profile_.threads, profile_.traffic.queueLimit);

    const double rate = profile_.traffic.rateAt(start);
    const double throttle = throttleFactor();
    const double cpu_per_req = profile_.cpuUsPerRequest * sim::USEC;
    const double fanout = profile_.traffic.fanout > 0.0
                              ? profile_.traffic.fanout
                              : profile_.touchesPerRequest;
    const auto touches = static_cast<std::uint64_t>(fanout);
    criticalPages_.clear();
    for (const auto &region : regions_)
        if (region.spec.critical)
            criticalPages_.insert(criticalPages_.end(), region.pages.begin(),
                                  region.pages.end());

    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t dropped = 0;
    double latency_sum_us = 0.0;
    if (rate > 0.0) {
        // Open-loop Poisson arrivals: exponential gaps at the
        // instantaneous rate. The gap sequence restarts each tick,
        // which the exponential's memorylessness makes statistically
        // identical to one continuous process while keeping ticks
        // independent of the rate history. A gap is compared with the
        // rest of the tick before it converts to SimTime: at a
        // vanishing rate (a tiny rps, a diurnal trough at amp=1) it
        // can exceed what SimTime holds.
        sim::SimTime cursor = start;
        for (;;) {
            const double gap = rng_.exponential(1.0 / rate) *
                               static_cast<double>(sim::SEC);
            if (!(gap < static_cast<double>(end - cursor)))
                break;
            cursor += std::max<sim::SimTime>(
                static_cast<sim::SimTime>(gap), 1);
            if (cursor >= end)
                break;
            ++arrivals;
            // Memory-bound self-throttling (§4.2) sheds at admission:
            // near its limit the app serves fewer requests rather
            // than thrash.
            if (throttle < 1.0 && rng_.chance(1.0 - throttle)) {
                ++dropped;
                continue;
            }
            // Load shedding: a request that would out-wait the queue
            // limit is rejected before doing any work.
            if (server_->backlog(cursor) > profile_.traffic.queueLimit) {
                ++dropped;
                continue;
            }
            const sim::SimTime stall =
                touchCriticalPages(touches, cursor, critical);
            const auto outcome = server_->offer(
                cursor, static_cast<sim::SimTime>(cpu_per_req) + stall);
            if (!outcome.admitted) {
                ++dropped;
                continue;
            }
            ++served;
            const double us =
                static_cast<double>(outcome.latency) / sim::USEC;
            requests_.latencyUs.add(us);
            window_.add(us);
            latency_sum_us += us;
        }
    }
    requests_.offered += arrivals;
    requests_.completed += served;
    requests_.dropped += dropped;
    lastTick_.offeredRps =
        static_cast<double>(arrivals) / sim::toSeconds(tickLen_);
    lastTick_.dropped = dropped;
    if (served > 0) {
        lastTick_.requestLatencyUs =
            latency_sum_us / static_cast<double>(served);
        lastTick_.latencySampled = true;
    }
    return static_cast<double>(served);
}

double
AppModel::throttleFactor() const
{
    if (profile_.throttleStartFraction <= 0.0)
        return 1.0;
    const std::uint64_t limit = std::min<std::uint64_t>(
        cg_->memMax(), mm_.ramCapacity());
    if (limit == 0 || limit == cgroup::NO_LIMIT)
        return 1.0;
    const double used = static_cast<double>(cg_->memCurrent()) /
                        static_cast<double>(limit);
    if (used <= profile_.throttleStartFraction)
        return 1.0;
    // Linear backoff from 1.0 at the start fraction to 0.3 at 100%.
    const double span = 1.0 - profile_.throttleStartFraction;
    const double depth = (used - profile_.throttleStartFraction) / span;
    return std::max(0.3, 1.0 - 0.7 * std::min(1.0, depth));
}

void
AppModel::tick()
{
    const sim::SimTime start = sim_.now();
    const sim::SimTime end = start + tickLen_;
    const double tick_s = sim::toSeconds(tickLen_);

    const std::uint64_t swapins_before = cg_->stats().pswpin;
    lastTick_ = TickStats{};

    Stalls critical, background;
    growLazyRegions(start, critical);
    churnColdAllocations(start, background);

    // Stall budget: the workload has threads-worth of blocking
    // capacity per tick; beyond that it simply makes less progress.
    const auto budget = static_cast<sim::SimTime>(
        0.9 * static_cast<double>(profile_.threads) *
        static_cast<double>(tickLen_));
    for (auto &region : regions_)
        sweepRegion(region, start, budget, critical, background);

    // --- request processing -------------------------------------------
    const double completed = servingRequests()
                                 ? serveRequests(start, critical)
                                 : modelRequests(start, critical);
    Stalls all = critical;
    all += background;
    lastTick_.completedRps = completed / tick_s;
    lastTick_.memStall = all.memOnly + all.memAndIo;
    lastTick_.ioStall = all.ioOnly + all.memAndIo;
    lastTick_.swapins = cg_->stats().pswpin - swapins_before;

    // --- PSI timelines --------------------------------------------------
    const double n = static_cast<double>(tasks_.size());
    const double cpu_total =
        completed * profile_.cpuUsPerRequest * sim::USEC +
        0.02 * static_cast<double>(tickLen_); // background housekeeping

    for (auto &d : demands_)
        d = static_cast<sim::SimTime>(cpu_total / n);
    sched::allocateCpu(demands_, hostCpus_, tickLen_, shares_);
    // Cross-application contention: the host coordinator scales
    // everyone's run time by the host-wide satisfaction ratio; the
    // shortfall becomes runqueue wait (CPU pressure).
    if (coordinator_) {
        coordinator_->report(
            static_cast<sim::SimTime>(cpu_total), start);
        const double scale = coordinator_->contentionScale(start);
        if (scale < 1.0) {
            for (auto &share : shares_) {
                const auto cut = static_cast<sim::SimTime>(
                    static_cast<double>(share.run) * (1.0 - scale));
                share.run -= cut;
                share.wait = std::min<sim::SimTime>(
                    share.wait + cut, tickLen_ - share.run);
            }
        }
    }

    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        auto &tl = timelines_[i];
        tl.segments.clear();
        // Per-thread shares of each bucket.
        sim::SimTime seq[TICK_SEGMENTS] = {
            shares_[i].run,
            shares_[i].wait,
            static_cast<sim::SimTime>(
                static_cast<double>(all.memOnly) / n),
            static_cast<sim::SimTime>(
                static_cast<double>(all.memAndIo) / n),
            static_cast<sim::SimTime>(
                static_cast<double>(all.ioOnly) / n),
        };
        const unsigned states[TICK_SEGMENTS] = {
            psi::TSK_ONCPU,
            psi::TSK_RUNNABLE,
            psi::TSK_MEMSTALL,
            psi::TSK_MEMSTALL | psi::TSK_IOWAIT,
            psi::TSK_IOWAIT,
        };
        sim::SimTime used = 0;
        for (const auto d : seq)
            used += d;
        // Clamp to the tick: stalls beyond capacity squeeze run time
        // first (the budget above makes this rare).
        if (used > tickLen_) {
            const double scale = static_cast<double>(tickLen_) /
                                 static_cast<double>(used);
            for (auto &d : seq)
                d = static_cast<sim::SimTime>(
                    static_cast<double>(d) * scale);
            used = 0;
            for (const auto d : seq)
                used += d;
        }
        // Random offset inside the tick so stall overlap across
        // threads varies (drives some-vs-full dynamics).
        const sim::SimTime slack = tickLen_ - used;
        sim::SimTime cursor =
            start + (slack > 0 ? rng_.uniformInt(slack + 1) : 0);
        for (std::size_t s = 0; s < TICK_SEGMENTS; ++s) {
            if (seq[s] == 0)
                continue;
            tl.segments.push_back(
                sched::Segment{cursor, seq[s], states[s]});
            cursor += seq[s];
        }
    }
    sched::replayTimelines(timelines_, end, transitions_);
}

void
AppModel::start()
{
    if (timer_.running())
        return;
    allocateInitial(sim_.now());
    timer_.start();
}

void
AppModel::freeAll()
{
    for (auto &region : regions_) {
        for (const auto idx : region.pages)
            mm_.freePage(idx);
        region.pages.clear();
        region.cursor = 0;
    }
    growthCarry_ = 0.0;
}

void
AppModel::restart()
{
    const bool was_running = running();
    stop();
    freeAll();
    // In-flight requests die with the process; cumulative request
    // stats survive like cgroup counters do.
    if (server_)
        server_->reset();
    if (was_running)
        start();
}

std::uint64_t
AppModel::allocatedBytes() const
{
    std::uint64_t pages = 0;
    for (const auto &region : regions_)
        pages += region.pages.size();
    return pages * mm_.pageBytes();
}

} // namespace tmo::workload
