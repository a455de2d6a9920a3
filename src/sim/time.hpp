/**
 * @file
 * Simulated time primitives.
 *
 * All simulation time is kept as unsigned 64-bit nanoseconds. Helper
 * constants and conversion functions keep call sites readable
 * (e.g. 6 * sim::SEC, sim::toSeconds(now)).
 */

#pragma once

#include <cmath>
#include <cstdint>

namespace tmo::sim
{

/** Simulated time in nanoseconds since simulation start. */
using SimTime = std::uint64_t;

/** Signed time delta in nanoseconds. */
using SimDuration = std::int64_t;

/** One microsecond in SimTime units. */
inline constexpr SimTime USEC = 1000ull;
/** One millisecond in SimTime units. */
inline constexpr SimTime MSEC = 1000ull * USEC;
/** One second in SimTime units. */
inline constexpr SimTime SEC = 1000ull * MSEC;
/** One minute in SimTime units. */
inline constexpr SimTime MINUTE = 60ull * SEC;
/** One hour in SimTime units. */
inline constexpr SimTime HOUR = 60ull * MINUTE;
/** One day in SimTime units. */
inline constexpr SimTime DAY = 24ull * HOUR;

/** Convert a SimTime to (fractional) seconds. */
inline constexpr double
toSeconds(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(SEC);
}

/** Convert a SimTime to (fractional) microseconds. */
inline constexpr double
toUsec(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(USEC);
}

/** Convert (fractional) seconds to SimTime, saturating at zero. */
inline constexpr SimTime
fromSeconds(double s)
{
    if (s <= 0.0)
        return 0;
    return static_cast<SimTime>(s * static_cast<double>(SEC));
}

/**
 * The number of @p unit-long intervals in @p t, as the double v from
 * which static_cast<SimTime>(v * unit) (the spec parsers' conversion)
 * gives back exactly @p t: t / unit, stepped by ulps when that lands
 * a nanosecond off. Spec printers use it so that a time a parser
 * produced prints as a number that parses back to it.
 */
inline double
exactUnits(SimTime t, SimTime unit)
{
    const double scale = static_cast<double>(unit);
    const auto back = [scale](double v) {
        return static_cast<SimTime>(v * scale);
    };
    double v = static_cast<double>(t) / scale;
    while (back(v) < t)
        v = std::nextafter(v, HUGE_VAL);
    while (v > 0.0 && back(v) > t)
        v = std::nextafter(v, 0.0);
    return v;
}

/** Convert (fractional) microseconds to SimTime, saturating at zero. */
inline constexpr SimTime
fromUsec(double us)
{
    if (us <= 0.0)
        return 0;
    return static_cast<SimTime>(us * static_cast<double>(USEC));
}

} // namespace tmo::sim
