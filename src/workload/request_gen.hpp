/**
 * @file
 * Open-loop request generation and queueing.
 *
 * The paper's load tests (§4.2-§4.4) judge offloading by what it does
 * to application performance, and tail latency is the operative
 * metric for user-facing services. This header supplies the two
 * request-level pieces AppModel composes:
 *
 *  - TrafficSpec: a deterministic offered-load curve over simulated
 *    time (flat, diurnal, load spikes) parsed from a CLI string such
 *    as "diurnal:rps=2000,amp=0.6,period-min=60". Arrivals are
 *    open-loop Poisson at the instantaneous rate: slow responses do
 *    NOT slow the client, which is what makes queueing delay — and
 *    therefore reclaim-induced tail latency — visible at all.
 *
 *  - RequestServer: a bank of worker threads with a bounded admission
 *    queue. Each request occupies the earliest-free worker; a request
 *    that would wait longer than the queue limit is shed (dropped),
 *    modelling load-shedding frontends.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace tmo::workload
{

/** Deterministic offered-load curve for one app's request stream. */
struct TrafficSpec {
    enum class Kind {
        /** No request stream: AppModel keeps its legacy closed-form
         *  RPS model. */
        NONE,
        /** Constant rate. */
        FLAT,
        /** Sinusoidal day/night swing around the base rate. */
        DIURNAL,
    };

    Kind kind = Kind::NONE;
    /** Mean offered load (requests/s); must be > 0 when enabled. */
    double baseRps = 0.0;
    /** Diurnal swing as a fraction of base: rate spans
     *  [base*(1-amp), base*(1+amp)]. */
    double amplitude = 0.5;
    /** Diurnal period (a "day"; shortened in experiments). */
    sim::SimTime period = sim::DAY;
    /** Phase shift: the curve starts this far into its period. */
    sim::SimTime phase = 0;

    /** Multiplier applied during the spike window; 0 = no spike.
     *  Layerable on FLAT and DIURNAL alike. */
    double spikeMult = 0.0;
    sim::SimTime spikeAt = 0;
    sim::SimTime spikeDuration = 0;

    /** Critical-working-set pages one request touches (fan-out);
     *  0 = AppProfile::touchesPerRequest. */
    double fanout = 0.0;
    /** Admission queue-wait limit; longer waits shed the request. */
    sim::SimTime queueLimit = 500 * sim::MSEC;

    bool enabled() const { return kind != Kind::NONE; }

    /** Instantaneous offered rate (requests/s) at @p now. */
    double rateAt(sim::SimTime now) const;

    /**
     * Parse a spec string:
     *
     *   flat:rps=R[,common...]
     *   diurnal:rps=R[,amp=F][,period-min=M][,phase-min=M][,common...]
     *   common: spike-mult=F,spike-at-min=M,spike-dur-min=M,
     *           fanout=F, queue-ms=M
     *
     * Throws std::invalid_argument with a named error on malformed
     * input (unknown kind/key, missing rps, out-of-range value). The
     * minutes keys are at most 1e6, queue-ms at most 1e9 and fanout
     * at most 1e6, so each converts to SimTime or a touch count
     * without overflow; period-min, spike-dur-min and queue-ms must
     * also come to at least one nanosecond.
     */
    static TrafficSpec parse(const std::string &text);

    /**
     * The spec in parse()'s grammar, with exact numbers, so that
     * parse(toString()) equals a parsed spec: "flat:" or "diurnal:",
     * rps, then every other key whose value differs from its default
     * ("spike:" sugar prints as flat with spike- keys). A disabled
     * spec prints as the empty string, which parse() rejects.
     */
    std::string toString() const;

    bool operator==(const TrafficSpec &) const = default;
};

/** parse() wrapper for CLI validation: false + error message instead
 *  of a throw. */
bool isValidTrafficSpec(const std::string &text, std::string *error);

/** Outcome of offering one request to a RequestServer. */
struct RequestOutcome {
    /** False when the queue wait exceeded the limit (request shed). */
    bool admitted = false;
    /** Completion - arrival (queue wait + service); 0 when shed. */
    sim::SimTime latency = 0;
};

/**
 * Earliest-free-worker queueing over a fixed thread pool. Workers
 * persist across ticks, so a backlog built during a surge drains into
 * the following ticks exactly as a real runqueue would.
 */
class RequestServer
{
  public:
    /**
     * @param workers Worker threads serving requests (>= 1).
     * @param queue_limit Maximum tolerated queue wait before a
     *        request is shed.
     */
    RequestServer(unsigned workers, sim::SimTime queue_limit);

    /**
     * Offer a request arriving at @p arrival needing @p service
     * busy-time. Must be called with non-decreasing arrival times.
     */
    RequestOutcome offer(sim::SimTime arrival, sim::SimTime service);

    /** Queue wait the next arrival at @p now would experience. */
    sim::SimTime backlog(sim::SimTime now) const;

    /** Forget all in-flight work (app restart). */
    void reset();

  private:
    std::vector<sim::SimTime> freeAt_;
    sim::SimTime queueLimit_;
};

} // namespace tmo::workload
