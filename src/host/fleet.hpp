/**
 * @file
 * The sharded parallel fleet engine.
 *
 * Fleet-wide results in the paper (Figs. 9, 10, 14) are distributions
 * over many servers. Hosts never interact: each one is a shard with
 * its OWN sim::Simulation clock, and run() advances all shards in
 * deterministic lockstep epochs — every shard reaches the epoch end
 * (a barrier) before cross-host collection can observe it. Inside an
 * epoch shards execute on a sim::ShardedExecutor worker pool, so a
 * 64-host hour costs roughly a single-host hour per core; because
 * shards share no mutable state and per-host RNG seeds mix in the
 * host index, results are bit-identical for any job count or epoch
 * length.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "host/fault_injector.hpp"
#include "host/fleet_spec.hpp"
#include "host/host.hpp"
#include "obs/export.hpp"
#include "sim/sharded_executor.hpp"
#include "sim/simulation.hpp"
#include "stats/histogram.hpp"
#include "stats/timeseries.hpp"

namespace tmo::host
{

/** N independent hosts advanced in lockstep epochs. */
class Fleet
{
  public:
    Fleet() = default;

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;
    Fleet(Fleet &&) = default;
    Fleet &operator=(Fleet &&) = default;

    /**
     * Add one host described by @p builder: a fresh shard clock, the
     * host, its containers, and its controller. The builder's seed is
     * combined with the host index so hosts differ deterministically.
     */
    Host &addHost(const HostBuilder &builder);

    /** Start host services, workloads, controllers and then fault
     *  plans everywhere. Call once, before the first run(). */
    void start();

    /**
     * Advance every shard to @p deadline in lockstep epochs using
     * @p jobs lanes (1 = serial in the calling thread). After return,
     * every host clock reads exactly @p deadline.
     */
    void run(sim::SimTime deadline, unsigned jobs = 1);

    /** Common fleet time: where the last run() left every shard. */
    sim::SimTime now() const { return now_; }

    /** Lockstep barrier period used by run(). */
    sim::SimTime epoch() const { return epoch_; }
    void setEpoch(sim::SimTime epoch);

    std::size_t size() const { return shards_.size(); }
    Host &host(std::size_t i) { return *shards_[i].host; }

    // --- per-host failure isolation --------------------------------------

    /**
     * True when host @p i threw out of its event loop. A failed host
     * is frozen at the time of its failure and skipped by later
     * epochs; the rest of the fleet keeps running (one bad host must
     * not abort a fleet experiment, §4 operational stance). With a
     * RestartPolicy the fleet rebuilds the host from its builder
     * recipe at a later epoch boundary, clearing this flag.
     */
    bool hostFailed(std::size_t i) const { return shards_[i].failed; }

    /** The failure message of host @p i (empty while healthy). */
    const std::string &
    hostError(std::size_t i) const
    {
        return shards_[i].error;
    }

    /** Number of hosts currently failed. */
    std::size_t failedCount() const;

    // --- self-healing -----------------------------------------------------

    /** Host restart policy, from FleetSpec::restart (default:
     *  maxAttempts = 0, disabled). */
    const RestartPolicy &restartPolicy() const { return restart_; }

    /** Hosts rebuilt after a failure so far (counts every rebuild,
     *  including repeat failures of the same shard). */
    std::uint64_t restartedCount() const { return restartedCount_; }

    /**
     * Hosts that are failed AND out of restart budget: with restarts
     * disabled every failed host is permanent; otherwise a host whose
     * attempts reached maxAttempts stays down for good.
     */
    std::size_t permanentlyFailedCount() const;

    /**
     * The injector delivering host @p i's fault plan
     * (HostBuilder::faults), or nullptr when the host has none. One
     * injector serves all of the host's lives, so its counts and
     * summary rows span its rebuilds.
     */
    const FaultInjector *
    injector(std::size_t i) const
    {
        return shards_[i].faults.get();
    }

    /** Per-host invariant audit result: a list of violation strings
     *  (empty = clean). */
    using AuditFn = std::function<std::vector<std::string>(Host &)>;

    /**
     * Run @p audit on every healthy host after every epoch barrier
     * (and after restarts), accumulating host-prefixed violation
     * strings. On the first violation a trace-ring excerpt of the
     * offending host is dumped to stderr. The fault library's
     * auditHost() is the intended auditor; the hook is generic so the
     * host layer stays below the fault layer.
     */
    void enableInvariantAudit(AuditFn audit)
    {
        audit_ = std::move(audit);
    }

    /** Violations collected so far (capped; empty = clean run). */
    const std::vector<std::string> &auditViolations() const
    {
        return auditViolations_;
    }

    /** The shard clock owning host @p i. */
    sim::Simulation &simulationOf(std::size_t i)
    {
        return *shards_[i].sim;
    }

    /**
     * Evaluate @p metric on every host, in host-index order, and
     * return the values (for exactQuantile-style cluster
     * percentiles). Call between run() epochs: all shards are then at
     * the same simulated time.
     *
     * Gathering is hierarchical: fixed contiguous shard groups each
     * produce their partial on an executor lane (when the last run()
     * was parallel) and the partials are concatenated in group order
     * — exactly the flat host-index walk, so the result is
     * bit-identical for any --jobs. @p metric may therefore run
     * concurrently on DIFFERENT hosts; it must only touch the host it
     * is handed, never shared mutable state.
     *
     * The result is empty when every host has failed — consumers must
     * report "no data" rather than index into it.
     */
    std::vector<double> collect(
        const std::function<double(Host &)> &metric);

    /**
     * Merge per-host histograms into one fleet distribution —
     * request-latency p50/p99/p999 over every request the fleet
     * served, not an average of per-host percentiles. @p pick may
     * return several histograms per host (one per serving app);
     * failed shards are skipped like collect(). Merging is
     * hierarchical (see collect()): each fixed shard group pre-merges
     * its hosts' histograms in host-index order on an executor lane,
     * and the per-group partials are combined in group order. Bucket
     * counts and min/max — hence count() and every quantile — are
     * order-invariant integer/extremum folds, so results are
     * bit-identical for any --jobs; the mean's summation order is
     * fixed by the fleet-size-only partition, never the job count.
     * @p pick runs concurrently on different hosts like @p metric.
     * All picked histograms must share one bucket geometry; the
     * result is empty when no host contributes.
     */
    stats::Histogram mergeHistograms(
        const std::function<std::vector<const stats::Histogram *>(
            Host &)> &pick);

    // --- observability ---------------------------------------------------

    /** Turn on tracing on every host (current and future). Each host
     *  gets its own ring stamped on its shard clock, so the merged
     *  view is independent of the job count. */
    void enableTracing(std::size_t capacity_bytes_per_host);

    /** Turn on metric sampling on every host (current and future). */
    void enableMetrics(sim::SimTime interval);

    /**
     * Per-host trace rings in host-index order (tracing-enabled hosts
     * only), named for the exporters' host-prefixed tracks. Pass to
     * obs::writeTraceFile.
     */
    std::vector<obs::HostTrace> traces();

    /**
     * Every host's sampled metric series merged under
     * "<host-name>." prefixes, in host-index then metric-name order.
     * Copies — safe to keep past further run() epochs. The copies are
     * made hierarchically (see collect()): per shard group on the
     * executor, concatenated in group order, so a 100k-host dump
     * scales with cores instead of serializing the whole fleet.
     */
    std::vector<stats::TimeSeries> metricSeries();

  private:
    /** One host with its private clock. */
    struct Shard {
        std::unique_ptr<sim::Simulation> sim;
        std::unique_ptr<Host> host;
        /** The recipe that built this host — kept so a restart can
         *  stamp an identical replacement (same mixed seed). */
        HostBuilder builder;
        /** Original host index; seeds mix THIS index on rebuild. */
        std::size_t index = 0;
        /** Set when the host's event loop threw; the shard is then
         *  excluded from further epochs. */
        bool failed = false;
        std::string error;
        /** Epoch barrier at which the failure was observed. */
        sim::SimTime failedAt = 0;
        /** Rebuilds consumed from the restart budget. */
        unsigned restartAttempts = 0;
        /** Delivers the builder's fault plan to every life of the
         *  host; created by the first startShard(). */
        std::unique_ptr<FaultInjector> faults;
    };

    friend class FleetSpec;

    /** (Re)materialize shard state from its stored builder: fresh
     *  clock, host, containers, controller, tracing (a rebuilt host
     *  records into its predecessor's ring). Its caller starts the
     *  metric sampler once the clock is where it belongs. */
    void buildShard(Shard &shard);

    /** Start host services, apps and controller, then the fault plan:
     *  all of it on the first start, the events strictly after now()
     *  on a rebuild. */
    void startShard(Shard &shard);

    /** Rebuild failed shards whose backoff elapsed (epoch barrier);
     *  a rebuilt host continues its predecessor's metric series. */
    void restartEligibleShards();

    /** Run the invariant auditor over every healthy shard. */
    void auditShards();

    /** Print the tail of a shard's trace ring to stderr (first
     *  invariant violation only). */
    void dumpTraceExcerpt(const Shard &shard) const;

    /**
     * Hierarchical-aggregation fan-out: invoke
     * @p group_fn(group, begin, end) once per fixed contiguous shard
     * group [begin, end), on the executor when one exists (serially
     * otherwise). The partition depends only on the fleet size —
     * never on --jobs or worker scheduling — so group partials are
     * deterministic. Exceptions thrown by a group are captured on its
     * lane and rethrown here in group order (worker lanes must not
     * unwind through parallelFor).
     */
    void forEachShardGroup(
        const std::function<void(std::size_t, std::size_t,
                                 std::size_t)> &group_fn);

    /** Number of fixed aggregation groups for the current fleet. */
    std::size_t aggGroupCount() const;

    // Threading discipline (audited by tools/tmo_lint.py check
    // `mutex-annotation` and clang's -Wthread-safety): Fleet holds no
    // mutex on purpose. During run() a shard is touched by exactly
    // one executor lane (the worker that claimed its index), every
    // other member below is read/written only by the calling thread
    // between epochs, and ShardedExecutor::parallelFor's barrier is
    // the happens-before edge separating the two phases. Any new
    // member a worker lane may touch must be per-shard state inside
    // Shard, never fleet-global — a fleet-global accumulator written
    // from the epoch lambda would need a lock and would break
    // bit-identity across --jobs. Hierarchical aggregation
    // (forEachShardGroup) follows the same rule between epochs: each
    // group's partial slot is exclusively owned by the lane running
    // that group, hosts are read-shared never written, and the
    // barrier publishes the partials back to the calling thread,
    // which combines them in group order.
    sim::SimTime epoch_ = sim::MINUTE;
    sim::SimTime now_ = 0;
    /** Ring capacity for hosts added later; 0 = tracing off. */
    std::size_t traceBytesPerHost_ = 0;
    /** Sampling interval for hosts added later; 0 = metrics off. */
    sim::SimTime metricsInterval_ = 0;
    /** One entry per host; element i is exclusively owned by the
     *  executor lane running index i while an epoch is in flight. */
    std::vector<Shard> shards_;
    std::unique_ptr<sim::ShardedExecutor> executor_;
    RestartPolicy restart_;
    std::uint64_t restartedCount_ = 0;
    AuditFn audit_;
    std::vector<std::string> auditViolations_;
    /** First violation already dumped a trace excerpt to stderr. */
    bool auditDumped_ = false;
};

} // namespace tmo::host
