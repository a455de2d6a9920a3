/**
 * @file
 * Composable multi-tier offload chain (§5.2 tiering, TPP policy).
 *
 * A TierChain composes an ordered list of OffloadBackend tiers,
 * fastest first (e.g. zswap-warm → zswap-cold → SSD), and is the only
 * thing behind a cgroup's anon pages (MemCg::anonChain). It is policy,
 * not a backend: stores walk the chain downward from a hotness-chosen
 * start tier, and per-page state (Page::store / storedBytes) points at
 * the accepting tier, so loads and releases hit the right device with
 * no indirection. Controllers read the chain's aggregate status() and
 * utilization().
 *
 * Placement policies (the spec's `placement` key):
 *  - HOTNESS (default): the page's decay-aged heat counter picks the
 *    start tier — hot pages enter high (fast) tiers, cold pages enter
 *    low ones. Background maintenance (see
 *    MemoryManager::tierMaintain) demotes pages whose heat decayed
 *    below their tier and promotes pages stuck below their warmth,
 *    budgeted per Senpai tick so movement cost is bounded and charged
 *    through the cost model.
 *  - WORKINGSET ("zswap+ssd;placement=workingset"): working-set pages
 *    start at tier 0, cold pages at the last tier — the §5.2 two-tier
 *    hierarchy. The Host builds these chains with a zero movement
 *    budget, so no background events fire.
 *
 * Aggregate status is FAILED only when every tier is FAILED (or
 * offline): as long as one tier accepts pages the chain degrades to
 * the remaining tiers instead of blocking anon reclaim.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "sim/time.hpp"
#include "stats/histogram.hpp"
#include "tier/tier_spec.hpp"

namespace tmo::tier
{

/** Maintenance cadence (aligned with Senpai's 6 s tick). */
inline constexpr sim::SimTime MOVE_PERIOD = 6 * sim::SEC;

/** Pages examined per tier per maintenance pass. */
inline constexpr std::uint32_t MOVE_SCAN_BATCH = 64;

/**
 * A tier observed FAILED continuously for this long is evacuated:
 * maintenance drains its pages to surviving tiers within the move
 * budget (retry budgets get a flaky device this long to recover
 * first). Chain-level offline tiers evacuate immediately.
 */
inline constexpr sim::SimTime FAIL_GRACE_WINDOW = 30 * sim::SEC;

/** Tunables of one chain. */
struct TierChainConfig {
    TierPlacement placement = TierPlacement::HOTNESS;
    /**
     * Byte budget for background demotion/promotion per maintenance
     * tick; 0 disables movement entirely (working-set chains). The
     * budget counts uncompressed page bytes, so movement cost scales
     * with the configured page size.
     */
    std::uint64_t moveBudgetBytes = 8ull << 20;
    /**
     * After a tier comes back online its store admission ramps up
     * linearly over this window instead of instantly taking full
     * load (0 = instant readmission). Only admission is throttled;
     * status and loads are unaffected.
     */
    sim::SimTime readmitWindow = 20 * sim::SEC;
};

/**
 * An ordered list of offload tiers. The chain does not own its tier
 * backends (the Host does); it owns only policy, per-tier offline
 * flags, and movement counters.
 */
class TierChain
{
  public:
    /** Result of a fall-through store down the chain. */
    struct StoreOutcome {
        backend::StoreResult result;
        /** Accepting (or last attempted) tier; nullptr when every
         *  tier was offline. */
        backend::OffloadBackend *tier = nullptr;
        /** Index of that tier; -1 when none was attempted. */
        int tierIndex = -1;
    };

    /**
     * @param name Chain name for reports (canonical spec string).
     * @param tiers Backends fastest-first; at least one.
     * @param specs Per-tier specs (for reports); may be empty.
     */
    TierChain(std::string name,
              std::vector<backend::OffloadBackend *> tiers,
              TierChainConfig config, std::vector<TierSpec> specs = {});

    // --- name and aggregate views -------------------------------------

    const std::string &name() const { return name_; }

    /** FAILED only when all tiers are FAILED or offline; otherwise
     *  the worst non-failed impairment (DEGRADED propagates). */
    backend::BackendStatus status() const;

    /** Most-constrained tier: max utilization across tiers, so a
     *  nearly full terminal tier surfaces to Senpai's swap
     *  watermark even behind unbounded compressed tiers. */
    double utilization() const;

    // --- placement and stores -----------------------------------------

    /**
     * Try to store one page into tiers [start, size()), fastest
     * eligible first, skipping offline tiers. A store the tier
     * rejects (incompressible page, pool cap, full partition) falls
     * through to the next tier — the §5.2 fall-through, generalized.
     */
    StoreOutcome storeFrom(std::size_t start, std::uint64_t page_bytes,
                           double compressibility, sim::SimTime now);

    /** storeFrom() bounded to tiers [start, stop) — used by
     *  promotion so a page never "promotes" into its own tier. */
    StoreOutcome storeFrom(std::size_t start, std::size_t stop,
                           std::uint64_t page_bytes,
                           double compressibility, sim::SimTime now);

    /**
     * Entry tier for a page of the given decayed @p heat. With
     * WORKINGSET placement, @p workingset alone decides. Heat 0 maps
     * to the last tier, heat >= 7 to tier 0, linearly in between.
     */
    int placementIndex(unsigned heat, bool workingset) const;

    std::size_t size() const { return tiers_.size(); }
    backend::OffloadBackend *tier(std::size_t i) { return tiers_[i]; }
    const backend::OffloadBackend *tier(std::size_t i) const
    {
        return tiers_[i];
    }

    /** Index of @p be in the chain, -1 when absent. */
    int indexOf(const backend::OffloadBackend *be) const;

    /** Per-tier spec tokens ("zswap:256mb"); backend name when the
     *  chain was built without specs. */
    std::string tierToken(std::size_t i) const;

    const TierChainConfig &config() const { return config_; }

    // --- fault injection ----------------------------------------------

    /** Mark one tier offline (or back online) at @p now: placement
     *  and fall-through skip an offline tier and it reports FAILED
     *  into the aggregate status. Pages already stored there stay
     *  until faulted back or evacuated; going offline starts the
     *  evacuation drain at the next maintenance pass, and coming back
     *  online starts the gradual readmission ramp at @p now. */
    void setTierOffline(std::size_t i, bool offline, sim::SimTime now);

    bool tierOffline(std::size_t i) const { return offline_[i]; }

    // --- self-healing (fed by MemoryManager::tierMaintain) ------------

    /**
     * Re-evaluate per-tier health at @p now: an offline tier is
     * marked for evacuation immediately, a tier FAILED continuously
     * past FAIL_GRACE_WINDOW likewise; a tier that recovered clears its
     * evacuation mark. Called at the top of every maintenance pass.
     */
    void updateHealth(sim::SimTime now);

    /** True when tier @p i should be drained to the survivors. */
    bool tierEvacuating(std::size_t i) const
    {
        return health_[i].evacuating;
    }

    void noteEvacuate(std::uint64_t pages) { evacuatedPages_ += pages; }
    void noteLost(std::uint64_t pages) { lostPages_ += pages; }

    /** Pages drained off evacuating tiers so far. */
    std::uint64_t evacuatedPages() const { return evacuatedPages_; }
    /** Pages whose only copy died with its tier. */
    std::uint64_t lostPages() const { return lostPages_; }

    // --- movement accounting (fed by MemoryManager::tierMaintain) ----

    void
    noteDemote(std::uint64_t pages, double latency_us)
    {
        demotedPages_ += pages;
        demoteLatencyUs_.add(latency_us);
    }

    void
    notePromote(std::uint64_t pages, double latency_us)
    {
        promotedPages_ += pages;
        promoteLatencyUs_.add(latency_us);
    }

    std::uint64_t demotedPages() const { return demotedPages_; }
    std::uint64_t promotedPages() const { return promotedPages_; }

    /** Inter-tier move latency (device time per moved page, us). */
    const stats::Histogram &demoteLatencyUs() const
    {
        return demoteLatencyUs_;
    }
    const stats::Histogram &promoteLatencyUs() const
    {
        return promoteLatencyUs_;
    }

  private:
    /** "not set" marker for the health timestamps below. */
    static constexpr sim::SimTime NEVER = ~sim::SimTime{0};

    /** Per-tier recovery state. */
    struct TierHealth {
        /** First time the tier was observed FAILED (NEVER = healthy). */
        sim::SimTime failedSince = NEVER;
        /** Drain this tier's pages to the survivors. */
        bool evacuating = false;
        /** Readmission ramp start (NEVER = no ramp active). */
        sim::SimTime readmitStart = NEVER;
        /** Stores offered / admitted during the current ramp. */
        std::uint64_t admitSeen = 0;
        std::uint64_t admitTaken = 0;
    };

    /** Admission decision during a readmission ramp: deterministic
     *  counter-based thinning toward the elapsed-window fraction. */
    bool admitForStore(std::size_t i, sim::SimTime now);

    std::string name_;
    std::vector<backend::OffloadBackend *> tiers_;
    TierChainConfig config_;
    std::vector<TierSpec> specs_;
    std::vector<bool> offline_;
    std::vector<TierHealth> health_;
    std::uint64_t evacuatedPages_ = 0;
    std::uint64_t lostPages_ = 0;
    std::uint64_t demotedPages_ = 0;
    std::uint64_t promotedPages_ = 0;
    stats::Histogram demoteLatencyUs_{0.1, 1e7, 10};
    stats::Histogram promoteLatencyUs_{0.1, 1e7, 10};
};

} // namespace tmo::tier
