/**
 * @file
 * Test helper: the per-event history a trace ring holds, as a
 * stats::TimeSeries. Controllers keep counters and their current
 * values; a test that needs a controller's per-tick history attaches
 * its own ring and reads the series back from it.
 */

#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "obs/trace.hpp"
#include "stats/timeseries.hpp"

namespace tmo::test
{

/** A ring of 4096 events: every tick of a controller over a test
 *  run of a few simulated hours. Declare it before the controller
 *  that records into it, which holds a pointer to it. */
inline obs::TraceRing
testRing()
{
    return obs::TraceRing(4096 * sizeof(obs::TraceEvent));
}

/** Argument @p arg of every @p type event in @p ring, stamped with
 *  the event's time, oldest first. A ring that overwrote events
 *  fails the calling test: its series would be incomplete. */
inline stats::TimeSeries
traceSeries(const obs::TraceRing &ring, obs::TraceEventType type,
            std::size_t arg)
{
    EXPECT_EQ(ring.dropped(), 0u) << "test trace ring too small";
    stats::TimeSeries series;
    for (const auto &event : ring.snapshot())
        if (event.type == type)
            series.record(event.time, event.args[arg]);
    return series;
}

/** The pressure Senpai observed at each tick (SENPAI_TICK a0). */
inline stats::TimeSeries
senpaiPressure(const obs::TraceRing &ring)
{
    return traceSeries(ring, obs::TraceEventType::SENPAI_TICK, 0);
}

/** The bytes Senpai requested at each tick (SENPAI_TICK a7). */
inline stats::TimeSeries
senpaiSteps(const obs::TraceRing &ring)
{
    return traceSeries(ring, obs::TraceEventType::SENPAI_TICK, 7);
}

} // namespace tmo::test
