#include "host/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/rng.hpp"
#include "stats/table.hpp"

namespace tmo::host
{

namespace
{

struct KindName {
    FaultKind kind;
    const char *name;
};

constexpr KindName KIND_NAMES[] = {
    {FaultKind::SSD_LATENCY, "ssd-latency"},
    {FaultKind::SSD_WEAR, "ssd-wear"},
    {FaultKind::SSD_WRITE_ERROR, "ssd-write-error"},
    {FaultKind::SSD_OFFLINE, "ssd-offline"},
    {FaultKind::SSD_ONLINE, "ssd-online"},
    {FaultKind::ZSWAP_CAP, "zswap-cap"},
    {FaultKind::ZSWAP_STALL, "zswap-stall"},
    {FaultKind::SWAP_EXHAUST, "swap-exhaust"},
    {FaultKind::CONTROLLER_STALL, "controller-stall"},
    {FaultKind::CONTROLLER_CRASH, "controller-crash"},
    {FaultKind::RAM_SHRINK, "ram-shrink"},
    {FaultKind::TIER_OFFLINE, "tier-offline"},
    {FaultKind::TIER_ONLINE, "tier-online"},
    {FaultKind::HOST_CRASH, "host-crash"},
};

static_assert(sizeof(KIND_NAMES) / sizeof(KIND_NAMES[0]) ==
              NUM_FAULT_KINDS);

/** Upper bound of t (about 31.7 years) and of |arg| in any of its
 *  units (seconds, MiB, microseconds, a tier index): each converts to
 *  SimTime or bytes far below 2^64. */
constexpr double MAX_NUMBER = 1e9;

[[noreturn]] void
parseError(std::size_t line, const std::string &what)
{
    throw std::invalid_argument("fault plan line " +
                                std::to_string(line) + ": " + what);
}

double
parseNumber(std::size_t line, const std::string &token,
            const std::string &text)
{
    double value = 0.0;
    std::size_t used = 0;
    // The trailing-junk check must live OUTSIDE this try: parseError
    // throws invalid_argument itself and would be swallowed by the
    // stod catch below.
    try {
        value = std::stod(text, &used);
    } catch (const std::invalid_argument &) {
        parseError(line, "bad number in " + token + "=" + text);
    } catch (const std::out_of_range &) {
        parseError(line, "number out of range in " + token + "=" + text);
    }
    if (used != text.size())
        parseError(line, "trailing junk in " + token + "=" + text);
    if (!std::isfinite(value))
        parseError(line, token + " must be finite, got " + token + "=" +
                             text);
    return value;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    for (const auto &entry : KIND_NAMES)
        if (entry.kind == kind)
            return entry.name;
    return "?";
}

std::optional<FaultKind>
faultKindFromName(const std::string &name)
{
    for (const auto &entry : KIND_NAMES)
        if (name == entry.name)
            return entry.kind;
    return std::nullopt;
}

FaultPlan
FaultPlan::parse(std::istream &in)
{
    FaultPlan plan;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments.
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);

        std::istringstream tokens(line);
        std::string token;
        bool have_time = false, have_kind = false;
        FaultEvent event;
        while (tokens >> token) {
            const auto eq = token.find('=');
            if (eq == std::string::npos)
                parseError(line_no,
                           "expected key=value, got '" + token + "'");
            const std::string key = token.substr(0, eq);
            const std::string value = token.substr(eq + 1);
            if (key == "t") {
                const double sec = parseNumber(line_no, key, value);
                if (sec < 0.0)
                    parseError(line_no, "t must be >= 0");
                if (sec > MAX_NUMBER)
                    parseError(line_no, "t must be <= 1e9 seconds, got t=" +
                                            value);
                event.at = sim::fromSeconds(sec);
                have_time = true;
            } else if (key == "kind") {
                const auto kind = faultKindFromName(value);
                if (!kind)
                    parseError(line_no,
                               "unknown fault kind '" + value + "'");
                event.kind = *kind;
                have_kind = true;
            } else if (key == "arg") {
                event.arg = parseNumber(line_no, key, value);
                if (std::fabs(event.arg) > MAX_NUMBER)
                    parseError(line_no, "arg must be in [-1e9, 1e9], "
                                        "got arg=" + value);
            } else {
                parseError(line_no, "unknown key '" + key + "'");
            }
        }
        if (!have_time && !have_kind && line.find_first_not_of(" \t\r") ==
                                            std::string::npos)
            continue; // blank / comment-only line
        if (!have_time)
            parseError(line_no, "missing t=<sec>");
        if (!have_kind)
            parseError(line_no, "missing kind=<event>");
        plan.events.push_back(event);
    }
    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    return plan;
}

FaultPlan
FaultPlan::parseString(const std::string &text)
{
    std::istringstream in(text);
    return parse(in);
}

FaultPlan
FaultPlan::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::invalid_argument("cannot read fault plan file: " +
                                    path);
    return parse(in);
}

FaultPlan
FaultPlan::random(std::uint64_t seed, sim::SimTime duration)
{
    sim::Rng rng(seed ^ 0xfa017a11ull);
    FaultPlan plan;
    const std::size_t count = 3 + rng.uniformInt(5); // 3..7 events
    for (std::size_t i = 0; i < count; ++i) {
        FaultEvent event;
        // Faults land in the middle 80% of the run so degradation and
        // (partial) recovery are both observable.
        event.at = static_cast<sim::SimTime>(
            rng.uniform(0.1, 0.9) * static_cast<double>(duration));
        // Random plans draw from the original 11 kinds only: tier
        // faults are meaningless for hosts without chains, and the
        // fixed draw keeps seeded chaos plans reproducible across
        // vocabulary growth.
        switch (rng.uniformInt(11)) {
          case 0:
            event.kind = FaultKind::SSD_LATENCY;
            event.arg = rng.uniform(2.0, 20.0);
            break;
          case 1:
            event.kind = FaultKind::SSD_WEAR;
            event.arg = rng.uniform(0.3, 1.2);
            break;
          case 2:
            event.kind = FaultKind::SSD_WRITE_ERROR;
            event.arg = rng.uniform(0.05, 0.5);
            break;
          case 3: {
            // Offline episodes come with a scheduled recovery.
            event.kind = FaultKind::SSD_OFFLINE;
            plan.events.push_back(event);
            event.kind = FaultKind::SSD_ONLINE;
            event.at += static_cast<sim::SimTime>(
                rng.uniform(0.05, 0.3) * static_cast<double>(duration));
            break;
          }
          case 4:
            event.kind = FaultKind::SSD_ONLINE;
            break;
          case 5:
            event.kind = FaultKind::ZSWAP_CAP;
            event.arg = rng.uniform(16.0, 128.0); // MiB
            break;
          case 6:
            event.kind = FaultKind::ZSWAP_STALL;
            event.arg = rng.uniform(100.0, 5000.0); // us
            break;
          case 7:
            event.kind = FaultKind::SWAP_EXHAUST;
            event.arg = rng.uniform(0.0, 0.5);
            break;
          case 8:
            event.kind = FaultKind::CONTROLLER_STALL;
            event.arg = rng.uniform(5.0, 60.0); // seconds
            break;
          case 9:
            event.kind = FaultKind::CONTROLLER_CRASH;
            event.arg = rng.uniform(5.0, 60.0); // seconds
            break;
          default:
            event.kind = FaultKind::RAM_SHRINK;
            event.arg = rng.uniform(32.0, 256.0); // MiB
            break;
        }
        plan.events.push_back(event);
    }
    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    return plan;
}

std::string
FaultPlan::toString() const
{
    // Exact numbers: parse() reads back the same times and arguments.
    std::ostringstream out;
    for (const auto &event : events) {
        out << "t=" << stats::fmtExact(sim::exactUnits(event.at, sim::SEC))
            << " kind=" << faultKindName(event.kind)
            << " arg=" << stats::fmtExact(event.arg) << "\n";
    }
    return out.str();
}

} // namespace tmo::host
