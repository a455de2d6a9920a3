#include "workload/request_gen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/table.hpp"

namespace tmo::workload
{

namespace
{

constexpr double PI = 3.14159265358979323846;

/** Upper bound of every minutes key (about 1.9 years): converted to
 *  SimTime nanoseconds, and summed with a run's clock, it stays far
 *  below 2^64. */
constexpr double MAX_MINUTES = 1e6;
/** Upper bound of queue-ms (about 11.6 days), for the same reason. */
constexpr double MAX_QUEUE_MS = 1e9;
/** Upper bound of fanout: page touches per request. */
constexpr double MAX_FANOUT = 1e6;

[[noreturn]] void
fail(const std::string &text, const std::string &what)
{
    throw std::invalid_argument("bad traffic spec \"" + text +
                                "\": " + what);
}

double
parseNumber(const std::string &text, const std::string &key,
            const std::string &value)
{
    try {
        std::size_t used = 0;
        const double parsed = std::stod(value, &used);
        if (used != value.size() || !std::isfinite(parsed))
            fail(text, "malformed value for " + key);
        return parsed;
    } catch (const std::invalid_argument &) {
        fail(text, "malformed value for " + key);
    } catch (const std::out_of_range &) {
        fail(text, "out-of-range value for " + key);
    }
}

sim::SimTime
minutesToSim(double minutes)
{
    return static_cast<sim::SimTime>(minutes *
                                     static_cast<double>(sim::MINUTE));
}

/** A positive length that must not truncate to zero nanoseconds. */
sim::SimTime
positiveLength(const std::string &text, const std::string &key,
               sim::SimTime length)
{
    if (length == 0)
        fail(text, key + " must come to at least one nanosecond");
    return length;
}

} // namespace

double
TrafficSpec::rateAt(sim::SimTime now) const
{
    if (!enabled())
        return 0.0;
    double rate = baseRps;
    if (kind == Kind::DIURNAL && period > 0) {
        const double angle =
            2.0 * PI *
            static_cast<double>((now + phase) % period) /
            static_cast<double>(period);
        rate *= 1.0 + amplitude * std::sin(angle);
    }
    if (spikeMult > 0.0 && now >= spikeAt &&
        now < spikeAt + spikeDuration)
        rate *= spikeMult;
    return std::max(0.0, rate);
}

double
TrafficSpec::peakTouchesPerSec() const
{
    double peak = baseRps;
    if (kind == Kind::DIURNAL)
        peak *= 1.0 + amplitude;
    if (spikeMult > 0.0)
        peak *= spikeMult;
    // A request costs at least its arrival, however few pages it
    // touches.
    return peak * (fanout > 0.0 ? std::max(1.0, fanout) : PROFILE_FANOUT);
}

TrafficSpec
TrafficSpec::parse(const std::string &text)
{
    TrafficSpec spec;
    const std::size_t colon = text.find(':');
    const std::string kind = text.substr(0, colon);
    // "spike:" is sugar for a flat curve with a required spike window
    // (mult/at-min/dur-min instead of the spike- prefixed keys).
    bool spike_sugar = false;
    if (kind == "flat") {
        spec.kind = Kind::FLAT;
    } else if (kind == "diurnal") {
        spec.kind = Kind::DIURNAL;
    } else if (kind == "spike") {
        spec.kind = Kind::FLAT;
        spike_sugar = true;
    } else {
        fail(text, "unknown kind \"" + kind +
                       "\" (want flat|diurnal|spike)");
    }

    std::string rest =
        colon == std::string::npos ? "" : text.substr(colon + 1);
    bool have_rps = false;
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string item = rest.substr(0, comma);
        rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 == item.size())
            fail(text, "expected key=value, got \"" + item + "\"");
        const std::string key = item.substr(0, eq);
        const double value = parseNumber(text, key, item.substr(eq + 1));
        if (key == "rps") {
            // Upper bound keeps worst-case per-tick arrival loops
            // (rate * spike-mult) within a sane event budget.
            if (value <= 0.0 || value > 1e6)
                fail(text, "rps must be in (0, 1e6]");
            spec.baseRps = value;
            have_rps = true;
        } else if (key == "amp" && spec.kind == Kind::DIURNAL) {
            if (value < 0.0 || value > 1.0)
                fail(text, "amp must be in [0, 1]");
            spec.amplitude = value;
        } else if (key == "period-min" &&
                   spec.kind == Kind::DIURNAL) {
            if (value <= 0.0 || value > MAX_MINUTES)
                fail(text, "period-min must be in (0, 1e6]");
            spec.period = positiveLength(text, key, minutesToSim(value));
        } else if (key == "phase-min" && spec.kind == Kind::DIURNAL) {
            if (value < 0.0 || value > MAX_MINUTES)
                fail(text, "phase-min must be in [0, 1e6]");
            spec.phase = minutesToSim(value);
        } else if (key == (spike_sugar ? "mult" : "spike-mult")) {
            if (value < 1.0 || value > 1000.0)
                fail(text, key + " must be in [1, 1000]");
            spec.spikeMult = value;
        } else if (key == (spike_sugar ? "at-min" : "spike-at-min")) {
            if (value < 0.0 || value > MAX_MINUTES)
                fail(text, key + " must be in [0, 1e6]");
            spec.spikeAt = minutesToSim(value);
        } else if (key == (spike_sugar ? "dur-min" : "spike-dur-min")) {
            if (value <= 0.0 || value > MAX_MINUTES)
                fail(text, key + " must be in (0, 1e6]");
            spec.spikeDuration =
                positiveLength(text, key, minutesToSim(value));
        } else if (key == "fanout") {
            if (value < 0.0 || value > MAX_FANOUT)
                fail(text, "fanout must be in [0, 1e6]");
            spec.fanout = value;
        } else if (key == "queue-ms") {
            if (value <= 0.0 || value > MAX_QUEUE_MS)
                fail(text, "queue-ms must be in (0, 1e9]");
            spec.queueLimit = positiveLength(
                text, key,
                static_cast<sim::SimTime>(
                    value * static_cast<double>(sim::MSEC)));
        } else {
            fail(text, "unknown key \"" + key + "\"");
        }
    }
    if (!have_rps)
        fail(text, "missing required key rps");
    if (spike_sugar && spec.spikeMult <= 0.0)
        fail(text, "spike needs mult=F (and at-min/dur-min)");
    if (spec.spikeMult > 0.0 && spec.spikeDuration == 0)
        fail(text, "spike window needs a positive duration");
    // Each key is bounded, but their product is the cost of a run.
    if (spec.peakTouchesPerSec() > MAX_PEAK_TOUCHES_PER_SEC)
        fail(text, "peak offered touches per second, rps x (1 + amp) x "
                   "spike-mult x max(1, fanout) = " +
                       stats::fmtExact(spec.peakTouchesPerSec()) +
                       ", must be at most " +
                       stats::fmtExact(MAX_PEAK_TOUCHES_PER_SEC));
    return spec;
}

std::string
TrafficSpec::toString() const
{
    if (!enabled())
        return "";
    const TrafficSpec defaults;
    std::string out = kind == Kind::DIURNAL ? "diurnal:" : "flat:";
    out += "rps=" + stats::fmtExact(baseRps);
    const auto number = [&out](const char *key, double value) {
        out += std::string(",") + key + "=" + stats::fmtExact(value);
    };
    const auto length = [&number](const char *key, sim::SimTime t,
                                  sim::SimTime unit) {
        number(key, sim::exactUnits(t, unit));
    };
    if (kind == Kind::DIURNAL) {
        if (amplitude != defaults.amplitude)
            number("amp", amplitude);
        if (period != defaults.period)
            length("period-min", period, sim::MINUTE);
        if (phase != defaults.phase)
            length("phase-min", phase, sim::MINUTE);
    }
    if (spikeMult != defaults.spikeMult)
        number("spike-mult", spikeMult);
    if (spikeAt != defaults.spikeAt)
        length("spike-at-min", spikeAt, sim::MINUTE);
    if (spikeDuration != defaults.spikeDuration)
        length("spike-dur-min", spikeDuration, sim::MINUTE);
    if (fanout != defaults.fanout)
        number("fanout", fanout);
    if (queueLimit != defaults.queueLimit)
        length("queue-ms", queueLimit, sim::MSEC);
    return out;
}

bool
isValidTrafficSpec(const std::string &text, std::string *error)
{
    try {
        TrafficSpec::parse(text);
        return true;
    } catch (const std::invalid_argument &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

RequestServer::RequestServer(unsigned workers, sim::SimTime queue_limit)
    : freeAt_(std::max(1u, workers), 0), queueLimit_(queue_limit)
{
}

sim::SimTime
RequestServer::backlog(sim::SimTime now) const
{
    const sim::SimTime soonest =
        *std::min_element(freeAt_.begin(), freeAt_.end());
    return soonest > now ? soonest - now : 0;
}

RequestOutcome
RequestServer::offer(sim::SimTime arrival, sim::SimTime service)
{
    auto soonest = std::min_element(freeAt_.begin(), freeAt_.end());
    const sim::SimTime start = std::max(arrival, *soonest);
    if (start - arrival > queueLimit_)
        return {};
    *soonest = start + service;
    return {true, *soonest - arrival};
}

void
RequestServer::reset()
{
    std::fill(freeAt_.begin(), freeAt_.end(), 0);
}

} // namespace tmo::workload
