/**
 * @file
 * Pressure Stall Information (PSI).
 *
 * Reimplementation of the kernel mechanism the paper contributes
 * (upstreamed as kernel/sched/psi.c). PSI measures, per container and
 * machine-wide, the share of wall time in which lost work occurs due
 * to a shortage of CPU, memory, or IO:
 *
 *  - "some": at least one task in the domain is stalled on the
 *    resource (added latency to individual tasks);
 *  - "full": all non-idle tasks are stalled simultaneously (completely
 *    unproductive time for the domain).
 *
 * Tasks report state transitions (running / runnable / memstall /
 * iowait) through PsiGroup::taskChange(); the group accrues stall time
 * between transitions, keeps microsecond-resolution totals, and
 * maintains exponential running averages over 10 s / 1 m / 5 m windows,
 * updated every 2 s like the kernel.
 *
 * Differences from the kernel: accounting is per-domain rather than
 * per-CPU (the simulator has no per-CPU runqueues), so the kernel's
 * NR_MEMSTALL_RUNNING refinement (direct reclaim burning CPU counts as
 * productive for "full") is approximated by treating stalled tasks as
 * off-CPU.
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace tmo::obs
{
class TraceRing;
} // namespace tmo::obs

namespace tmo::psi
{

/** Resources PSI tracks. */
enum class Resource { CPU = 0, MEM = 1, IO = 2 };

/** Number of tracked resources. */
inline constexpr std::size_t NUM_RESOURCES = 3;

/**
 * Task state bits, combinable. A task waiting for swap-in from disk is
 * MEMSTALL | IOWAIT: it contributes to both memory and IO pressure,
 * exactly as in the kernel.
 */
enum TaskState : unsigned {
    /** Executing on a CPU. */
    TSK_ONCPU = 1u << 0,
    /** Wants a CPU but is waiting for one (CPU stall). */
    TSK_RUNNABLE = 1u << 1,
    /** Stalled on memory: direct reclaim, refault wait, swap-in wait. */
    TSK_MEMSTALL = 1u << 2,
    /** Waiting for block IO completion. */
    TSK_IOWAIT = 1u << 3,
};

/** Every psi::TaskState bit. */
inline constexpr unsigned TSK_ALL =
    TSK_ONCPU | TSK_RUNNABLE | TSK_MEMSTALL | TSK_IOWAIT;

/** Aggregated pressure readout for one resource/kind. */
struct Pressure {
    /** Running averages as fractions in [0, 1]. */
    double avg10 = 0.0;
    double avg60 = 0.0;
    double avg300 = 0.0;
    /** Absolute stall time total. */
    sim::SimTime total = 0;
};

/**
 * PSI accounting domain: one per cgroup plus one machine-wide.
 *
 * The owner must (a) route every task state transition in the domain
 * through taskChange() in nondecreasing time order and (b) call
 * updateAverages() periodically (every AVG_PERIOD) so the running
 * averages decay; totals are exact regardless.
 *
 * The group keeps the set of task states some task holds, and the time
 * spent in each such set. A 16-entry table maps a held set to the
 * kernel-style state mask (six some/full bits and non-idle), so a
 * state's total is the sum of the times of the held sets whose mask
 * has its bit. A transition is then one add of the elapsed time, one
 * add to the packed task counts, and a few bit operations that derive
 * the new held set, none of them a branch on which bits changed.
 */
class PsiGroup
{
  public:
    /** Averaging cadence used by the kernel (2 s). */
    static constexpr sim::SimTime AVG_PERIOD = 2 * sim::SEC;

    /** Most tasks one group counts in one task state. */
    static constexpr unsigned MAX_TASKS = 0x7fff;

    PsiGroup() = default;

    /**
     * Apply a task state transition at time @p now.
     *
     * @param clear State bits one task is leaving.
     * @param set State bits the task is entering.
     * @param now Current simulated time (nondecreasing across calls).
     * @throws std::logic_error naming the bit when @p clear or @p set
     *         holds a bit outside psi::TaskState, when @p clear names a
     *         state no task in the group holds, or when @p set would
     *         count more than MAX_TASKS tasks in one state; the group
     *         is then left as it was.
     */
    void
    taskChange(unsigned clear, unsigned set, sim::SimTime now)
    {
        const std::uint64_t counts =
            counts_ + LANES[set & TSK_ALL] - LANES[clear & TSK_ALL];
        if ((((clear | set) & ~TSK_ALL) | (clear & ~held_)) != 0 ||
            (counts & LANE_OVERFLOW) != 0) [[unlikely]]
            rejectChange(clear, set);
        accrue(now);
        counts_ = counts;
        const unsigned before = held_;
        held_ = heldStates(counts);
        if (trace_) [[unlikely]]
            recordStateChanges(before, now);
    }

    /**
     * Fold elapsed time into the running averages. Call every
     * AVG_PERIOD; cheap enough to call more often.
     */
    void updateAverages(sim::SimTime now);

    /** "some" pressure readout for a resource. */
    Pressure some(Resource r) const;

    /** "full" pressure readout for a resource. */
    Pressure full(Resource r) const;

    /** Absolute "some" stall total (includes time up to @p now). */
    sim::SimTime totalSome(Resource r, sim::SimTime now) const;

    /** Absolute "full" stall total (includes time up to @p now). */
    sim::SimTime totalFull(Resource r, sim::SimTime now) const;

    /** Current count of tasks with the given state bit. */
    unsigned taskCount(TaskState bit) const;

    /** Time with at least one non-idle task, up to last transition. */
    sim::SimTime nonIdleTime() const { return stateTimes()[NON_IDLE]; }

    /**
     * Attach a trace ring (nullptr detaches): every some/full state
     * transition is recorded as a PSI_STATE event with @p domain as
     * the owning cgroup id. Tracing off costs one pointer test per
     * taskChange().
     */
    void
    setTrace(obs::TraceRing *ring, std::uint16_t domain)
    {
        trace_ = ring;
        traceDomain_ = domain;
    }

  private:
    /** Index pair into the accounting arrays. */
    enum Kind { SOME = 0, FULL = 1, NUM_KINDS = 2 };

    /** State mask bit of resource @p ri's some/full state; also the
     *  PSI_STATE trace code. */
    static constexpr std::size_t
    stateBit(std::size_t ri, Kind kind)
    {
        return ri * NUM_KINDS + kind;
    }

    /** State mask bit for "some task is not idle". */
    static constexpr std::size_t NON_IDLE = NUM_RESOURCES * NUM_KINDS;

    /** Number of state mask bits. */
    static constexpr std::size_t NUM_STATES = NON_IDLE + 1;

    /** Number of held sets: one per combination of task state bits. */
    static constexpr std::size_t NUM_HELD = TSK_ALL + 1;

    /** The state mask of each held set. */
    static constexpr std::array<std::uint8_t, NUM_HELD> STATE_MASKS = [] {
        std::array<std::uint8_t, NUM_HELD> masks{};
        const unsigned stalls[NUM_RESOURCES] = {TSK_RUNNABLE, TSK_MEMSTALL,
                                                TSK_IOWAIT};
        for (unsigned held = 1; held < NUM_HELD; ++held) {
            unsigned mask = 1u << NON_IDLE;
            for (std::size_t ri = 0; ri < NUM_RESOURCES; ++ri) {
                if ((held & stalls[ri]) == 0)
                    continue;
                // Some task waits; "full" when none is productive.
                mask |= 1u << (ri * NUM_KINDS + SOME);
                if ((held & TSK_ONCPU) == 0)
                    mask |= 1u << (ri * NUM_KINDS + FULL);
            }
            masks[held] = static_cast<std::uint8_t>(mask);
        }
        return masks;
    }();

    /** Task counts are packed one per 16-bit lane, in task state bit
     *  order; LANES[bits] adds one in the lane of each bit. */
    static constexpr std::array<std::uint64_t, NUM_HELD> LANES = [] {
        std::array<std::uint64_t, NUM_HELD> lanes{};
        for (unsigned bits = 0; bits < NUM_HELD; ++bits)
            for (unsigned i = 0; i < 4; ++i)
                if ((bits >> i) & 1u)
                    lanes[bits] |= std::uint64_t{1} << (16 * i);
        return lanes;
    }();

    /** The top bit of every lane: set once a count passes MAX_TASKS. */
    static constexpr std::uint64_t LANE_OVERFLOW = 0x8000800080008000ull;

    /** The held set of packed counts, each at most MAX_TASKS. */
    static unsigned
    heldStates(std::uint64_t counts)
    {
        // Adding MAX_TASKS carries into a lane's top bit exactly when
        // the lane is nonzero, and never into the next lane. The
        // multiply moves the four top bits (15, 31, 47, 63) to bits
        // 60-63; its other products land below bit 60 without carries.
        const std::uint64_t nonzero =
            (counts + 0x7fff7fff7fff7fffull) & LANE_OVERFLOW;
        return static_cast<unsigned>((nonzero * 0x0000200040008001ull) >>
                                     60);
    }

    /** Whether some/full currently holds for a resource. */
    bool
    stateActive(Resource r, Kind kind) const
    {
        return (STATE_MASKS[held_] >>
                stateBit(static_cast<std::size_t>(r), kind)) & 1u;
    }

    /** Time accrued in each state mask bit, up to lastChange_. */
    std::array<sim::SimTime, NUM_STATES>
    stateTimes() const
    {
        return stateTimes(std::make_index_sequence<NUM_STATES>{});
    }

    template <std::size_t... Bits>
    std::array<sim::SimTime, NUM_STATES>
    stateTimes(std::index_sequence<Bits...>) const
    {
        return {heldTimeIn<Bits>(std::make_index_sequence<NUM_HELD>{})...};
    }

    /** The time of the held sets whose state mask has @p Bit. The
     *  table is a constant, so only those sets' times are added. */
    template <std::size_t Bit, std::size_t... Held>
    sim::SimTime
    heldTimeIn(std::index_sequence<Held...>) const
    {
        return ((((STATE_MASKS[Held] >> Bit) & 1u) != 0
                     ? heldTime_[Held]
                     : sim::SimTime{0}) +
                ...);
    }

    /** Accrue the time since lastChange_ to the current held set; a
     *  @p now at or before lastChange_ accrues nothing. */
    void
    accrue(sim::SimTime now)
    {
        // Aggregation domains shared by several reporters (ancestor
        // cgroups fed by multiple containers' tick replays) can observe
        // slightly out-of-order timestamps within one tick window; clamp
        // rather than let the unsigned delta wrap. The accounting error
        // is bounded by the overlap of the reporters' windows.
        const sim::SimTime later = now > lastChange_ ? now : lastChange_;
        heldTime_[held_] += later - lastChange_;
        lastChange_ = later;
    }

    /** Throw the named error for a change taskChange() refuses. */
    [[noreturn]] void rejectChange(unsigned clear, unsigned set) const;

    /** Record a PSI_STATE event for each some/full state whose bit
     *  differs between the masks of held set @p before and held_. */
    void recordStateChanges(unsigned before, sim::SimTime now);

    /** Time spent in each held set. */
    std::array<sim::SimTime, NUM_HELD> heldTime_{};

    /** Totals already folded into averages. */
    std::array<std::array<sim::SimTime, NUM_KINDS>, NUM_RESOURCES>
        lastFolded_{};

    /** Running averages per resource and kind. */
    std::array<std::array<double, NUM_KINDS>, NUM_RESOURCES> avg10_{};
    std::array<std::array<double, NUM_KINDS>, NUM_RESOURCES> avg60_{};
    std::array<std::array<double, NUM_KINDS>, NUM_RESOURCES> avg300_{};

    /** Task counts per state bit, packed (see LANES). */
    std::uint64_t counts_ = 0;

    /** Task state bits with a nonzero count. */
    unsigned held_ = 0;

    sim::SimTime lastChange_ = 0;
    sim::SimTime lastAvgUpdate_ = 0;

    obs::TraceRing *trace_ = nullptr;
    std::uint16_t traceDomain_ = 0;
};

/**
 * Userspace PSI trigger (§3.2.4 use case: oomd-style watchers).
 * Fires a callback when stall time within a sliding window exceeds a
 * threshold. Evaluated by PsiTriggerSet::poll().
 */
struct PsiTrigger {
    Resource resource = Resource::MEM;
    bool fullKind = false;
    /** Stall time threshold within the window. */
    sim::SimTime threshold = 0;
    /** Window length. */
    sim::SimTime window = sim::SEC;
    /** Invoked with the observed stall time when the trigger fires. */
    std::function<void(sim::SimTime stall)> callback;
};

/**
 * A set of triggers attached to one PsiGroup. poll() should be called
 * periodically (e.g. every AVG_PERIOD); each trigger fires at most
 * once per window. A trigger's first window opens when it is added,
 * as the kernel's does when the trigger is created.
 */
class PsiTriggerSet
{
  public:
    explicit PsiTriggerSet(const PsiGroup &group)
        : group_(group)
    {}

    /** Register a trigger whose first window opens at @p now;
     *  returns its index. */
    std::size_t add(PsiTrigger trigger, sim::SimTime now);

    /** Evaluate all triggers at time @p now. */
    void poll(sim::SimTime now);

    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry {
        PsiTrigger trigger;
        sim::SimTime windowStart = 0;
        sim::SimTime startTotal = 0;
        bool fired = false;
    };

    const PsiGroup &group_;
    std::vector<Entry> entries_;
};

} // namespace tmo::psi
