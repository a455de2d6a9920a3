/**
 * @file
 * Typed, time-scheduled fault plans.
 *
 * TMO's production story (§4) is about surviving bad days: swap-space
 * exhaustion, SSD wear-out and latency spikes, IO-pressure incidents,
 * controller restarts, capacity loss. A FaultPlan is the deterministic
 * script of such a day — a sorted list of typed events, each with an
 * injection time and one numeric argument — parsed from a simple
 * line-based spec (`t=<sec> kind=<event> arg=<v>`) or sampled from a
 * seeded RNG for chaos runs. The plan itself is inert data; a
 * fault::FaultInjector delivers it into one host's event queue.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace tmo::fault
{

/** The injectable fault vocabulary (each maps to a §4 mechanism). */
enum class FaultKind {
    /** Multiply SSD device latency by arg (firmware stall / internal
     *  GC; exercises the IO-pressure guard, §3.3). */
    SSD_LATENCY,
    /** Consume arg (fraction) of the SSD's rated endurance at once
     *  (wear-out; exercises write regulation, §4.5 / Fig. 14). */
    SSD_WEAR,
    /** Fail arg (fraction, [0,1]) of SSD writes with IO errors. */
    SSD_WRITE_ERROR,
    /** Take the swap device offline (arg ignored). */
    SSD_OFFLINE,
    /** Bring the swap device back and clear latency/write-error
     *  impairments (arg ignored). */
    SSD_ONLINE,
    /** Shrink the zswap pool cap to arg MiB (0 lifts the cap). */
    ZSWAP_CAP,
    /** Add arg microseconds of allocator-compaction stall to every
     *  zswap store/load (0 clears). */
    ZSWAP_STALL,
    /** Shrink the swap partition to arg (fraction) of its current
     *  size — slots in use survive, so arg below utilization means
     *  exhaustion (§4 swap-space exhaustion handling). */
    SWAP_EXHAUST,
    /** Stall the host controller for arg seconds (stop, then
     *  resume). */
    CONTROLLER_STALL,
    /** Crash the host controller; it restarts after arg seconds. */
    CONTROLLER_CRASH,
    /** Remove arg MiB of host DRAM (ballooning / bank offlining);
     *  kswapd recovers the deficit. */
    RAM_SHRINK,
    /** Take tier arg (index) of every tier chain on the host offline:
     *  placement and fall-through skip it, its status reads FAILED
     *  into the chain aggregate, pages already stored there stay. */
    TIER_OFFLINE,
    /** Bring tier arg (index) of every tier chain back online. */
    TIER_ONLINE,
    /** Crash the whole host: the shard throws out of its event loop
     *  and is quarantined by the fleet (arg ignored). With a
     *  RestartPolicy the fleet rebuilds the host from its recipe at a
     *  later epoch boundary; without one the host stays frozen. */
    HOST_CRASH,
};

/** Number of fault kinds (for counters indexed by kind). */
inline constexpr std::size_t NUM_FAULT_KINDS = 14;

/** Spec name of a kind ("ssd-latency", "swap-exhaust", ...). */
const char *faultKindName(FaultKind kind);

/** Parse a spec name; nullopt when unknown. */
std::optional<FaultKind> faultKindFromName(const std::string &name);

/** One scheduled fault. */
struct FaultEvent {
    /** Absolute injection time. */
    sim::SimTime at = 0;
    FaultKind kind = FaultKind::SSD_LATENCY;
    /** Kind-specific argument (see FaultKind docs). */
    double arg = 0.0;

    bool operator==(const FaultEvent &) const = default;
};

/** A deterministic schedule of faults for one host. */
struct FaultPlan {
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }
    std::size_t size() const { return events.size(); }

    /**
     * Parse the line-based spec from a stream. Each non-empty,
     * non-comment (#) line is `t=<sec> kind=<event> [arg=<v>]`, in any
     * token order. Events are sorted by time (stable). Numbers must be
     * finite, t in [0, 1e9] seconds and arg in [-1e9, 1e9], so each
     * converts to SimTime or bytes without overflow.
     *
     * @throws std::invalid_argument naming the offending line and
     *         token for any malformed input.
     */
    static FaultPlan parse(std::istream &in);

    /** parse() over an in-memory spec. */
    static FaultPlan parseString(const std::string &text);

    /**
     * parse() over a file.
     * @throws std::invalid_argument when the file cannot be read.
     */
    static FaultPlan fromFile(const std::string &path);

    /**
     * Sample a random plan for a run of @p duration: a handful of
     * events with kinds and arguments drawn from ranges that degrade
     * but never instantly kill a host. Deterministic per seed.
     */
    static FaultPlan random(std::uint64_t seed, sim::SimTime duration);

    /** Render back to the line-based spec, with numbers that parse()
     *  reads back exactly: parse(toString()) equals a parsed plan. */
    std::string toString() const;
};

} // namespace tmo::fault
