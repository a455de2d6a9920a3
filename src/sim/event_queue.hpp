/**
 * @file
 * Discrete-event queue.
 *
 * The control plane of the simulator (Senpai ticks, PSI averaging,
 * workload ticks, device completions) is scheduled through this queue.
 * Events with equal timestamps fire in insertion order, which keeps
 * runs deterministic.
 *
 * Layout: a binary min-heap of 24-byte POD keys {when, seq, slot}
 * orders the events; the callbacks live in a slot table the keys
 * point into, and freed slots are recycled. An EventId names a slot
 * plus that slot's generation, so a stale id (the event fired or was
 * cancelled, and the slot now holds another event) is recognised and
 * ignored. Cancellation is lazy: it frees the slot and its callback at
 * once, and the orphaned key is dropped when it reaches the heap top.
 * Once the heap and the table have grown to a run's peak, scheduling
 * and running an event allocate nothing beyond what its callback
 * needs: std::function stores a callable of up to two pointers inline.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace tmo::sim
{

/** Callback type invoked when an event fires. */
using EventFn = std::function<void()>;

/**
 * Opaque handle used to cancel a scheduled event: the slot index in
 * the low 32 bits and the slot's generation, never 0, in the high 32.
 */
using EventId = std::uint64_t;

/** Sentinel EventId meaning "no event"; never returned by schedule(). */
inline constexpr EventId INVALID_EVENT = 0;

/**
 * Priority queue of timed callbacks with stable ordering and lazy
 * cancellation.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule a callback at an absolute simulated time.
     *
     * @param when Absolute firing time; must be >= the time of the last
     *        popped event (scheduling in the past is a logic error).
     * @param fn Callback to invoke.
     * @return Handle that can be passed to cancel().
     */
    EventId schedule(SimTime when, EventFn fn);

    /**
     * Cancel a scheduled event and destroy its callback. Ids that are
     * unknown, already fired or already cancelled are ignored, even
     * when their slot now holds a newer event.
     */
    void cancel(EventId id);

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled) events. */
    std::size_t size() const { return live_; }

    /** Events run so far; cancelled events are not counted. */
    std::uint64_t dispatched() const { return dispatched_; }

    /** Firing time of the earliest live event; queue must not be empty. */
    SimTime nextTime();

    /**
     * Pop and run the earliest live event. Its callback is moved out of
     * the slot, and the slot freed, before it runs: the callback may
     * schedule (reusing that slot) or cancel, its own id included.
     *
     * @return The time of the event that ran.
     */
    SimTime runNext();

  private:
    /** Heap entry; orders by (when, seq). */
    struct Key {
        SimTime when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Slot {
        EventFn fn;
        /** seq of the event held, or FREE_SEQ when the slot is free. */
        std::uint64_t seq;
        /** Bumped on every release; never 0. */
        std::uint32_t gen;
    };

    static constexpr std::uint64_t FREE_SEQ = ~std::uint64_t{0};

    /** Min-heap order: the later (when, seq) sinks. */
    static bool
    later(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    /** A key is live while its slot still holds its event. */
    bool
    liveKey(const Key &key) const
    {
        return slots_[key.slot].seq == key.seq;
    }

    /** Drop cancelled keys from the head of the heap. */
    void skipDead();

    /** Mark @p slot free, bump its generation, recycle it. The caller
     *  has moved the callback out. */
    void release(std::uint32_t slot);

    std::vector<Key> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;
    std::uint64_t dispatched_ = 0;
};

} // namespace tmo::sim
