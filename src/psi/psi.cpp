#include "psi/psi.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace tmo::psi
{

namespace
{

/**
 * Invariant violation in the stall-state accounting. The kernel's PSI
 * would WARN and corrupt silently; here a broken caller must fail
 * loudly in release builds too — an assert() vanishes under NDEBUG
 * and would let pressure numbers drift wrong for the rest of the run.
 */
[[noreturn]] void
invariantViolation(const std::string &what)
{
    throw std::logic_error("psi: " + what);
}

/** Bit position for a TaskState bit (bit must have exactly one set). */
std::size_t
bitIndex(unsigned bit)
{
    switch (bit) {
      case TSK_ONCPU:
        return 0;
      case TSK_RUNNABLE:
        return 1;
      case TSK_MEMSTALL:
        return 2;
      case TSK_IOWAIT:
        return 3;
      default:
        invariantViolation("invalid task state bit " +
                           std::to_string(bit));
    }
}

/** EWMA factor for folding one AVG_PERIOD into a window of length w. */
double
avgAlpha(sim::SimTime window)
{
    const double period = sim::toSeconds(PsiGroup::AVG_PERIOD);
    const double w = sim::toSeconds(window);
    return 1.0 - std::exp(-period / w);
}

const double ALPHA10 = avgAlpha(10 * sim::SEC);
const double ALPHA60 = avgAlpha(60 * sim::SEC);
const double ALPHA300 = avgAlpha(300 * sim::SEC);

} // namespace

void
PsiGroup::rejectChange(unsigned clear, unsigned set) const
{
    const auto lowest = [](unsigned bits) {
        return std::to_string(1u << std::countr_zero(bits));
    };
    const unsigned invalid = (clear | set) & ~TSK_ALL;
    if (invalid != 0)
        invariantViolation("invalid task state bit " + lowest(invalid));
    const unsigned unheld = clear & ~held_;
    if (unheld != 0)
        invariantViolation("clearing task state bit " + lowest(unheld) +
                           " with zero tasks in that state");
    const std::uint64_t overflow =
        (counts_ + LANES[set] - LANES[clear]) & LANE_OVERFLOW;
    invariantViolation("more than " + std::to_string(MAX_TASKS) +
                       " tasks in task state bit " +
                       lowest(1u << (std::countr_zero(overflow) / 16)));
}

void
PsiGroup::recordStateChanges(unsigned before, sim::SimTime now)
{
    // Bit order is resource-major, some before full: the order the
    // states are recorded in.
    const unsigned mask = STATE_MASKS[held_];
    const unsigned changed = STATE_MASKS[before] ^ mask;
    const auto totals = stateTimes();
    for (std::size_t bit = 0; bit < NON_IDLE; ++bit) {
        if (((changed >> bit) & 1u) == 0)
            continue;
        trace_->record(now, obs::TraceEventType::PSI_STATE,
                       static_cast<std::uint8_t>(bit), traceDomain_,
                       {static_cast<double>((mask >> bit) & 1u),
                        static_cast<double>(totals[bit])});
    }
}

void
PsiGroup::updateAverages(sim::SimTime now)
{
    accrue(now);
    const sim::SimTime elapsed = now - lastAvgUpdate_;
    if (elapsed < AVG_PERIOD)
        return;

    const double span = static_cast<double>(elapsed);
    const auto totals = stateTimes();
    for (std::size_t ri = 0; ri < NUM_RESOURCES; ++ri) {
        for (std::size_t k = 0; k < NUM_KINDS; ++k) {
            const sim::SimTime total =
                totals[stateBit(ri, static_cast<Kind>(k))];
            const sim::SimTime delta = total - lastFolded_[ri][k];
            const double pressure = static_cast<double>(delta) / span;
            avg10_[ri][k] += ALPHA10 * (pressure - avg10_[ri][k]);
            avg60_[ri][k] += ALPHA60 * (pressure - avg60_[ri][k]);
            avg300_[ri][k] += ALPHA300 * (pressure - avg300_[ri][k]);
            lastFolded_[ri][k] = total;
        }
    }
    lastAvgUpdate_ = now;
}

Pressure
PsiGroup::some(Resource r) const
{
    const auto ri = static_cast<std::size_t>(r);
    return Pressure{avg10_[ri][SOME], avg60_[ri][SOME], avg300_[ri][SOME],
                    stateTimes()[stateBit(ri, SOME)]};
}

Pressure
PsiGroup::full(Resource r) const
{
    const auto ri = static_cast<std::size_t>(r);
    return Pressure{avg10_[ri][FULL], avg60_[ri][FULL], avg300_[ri][FULL],
                    stateTimes()[stateBit(ri, FULL)]};
}

sim::SimTime
PsiGroup::totalSome(Resource r, sim::SimTime now) const
{
    const auto ri = static_cast<std::size_t>(r);
    sim::SimTime total = stateTimes()[stateBit(ri, SOME)];
    if (now > lastChange_ && stateActive(r, SOME))
        total += now - lastChange_;
    return total;
}

sim::SimTime
PsiGroup::totalFull(Resource r, sim::SimTime now) const
{
    const auto ri = static_cast<std::size_t>(r);
    sim::SimTime total = stateTimes()[stateBit(ri, FULL)];
    if (now > lastChange_ && stateActive(r, FULL))
        total += now - lastChange_;
    return total;
}

unsigned
PsiGroup::taskCount(TaskState bit) const
{
    return static_cast<unsigned>(counts_ >> (16 * bitIndex(bit))) & 0xffffu;
}

std::size_t
PsiTriggerSet::add(PsiTrigger trigger, sim::SimTime now)
{
    Entry entry;
    entry.windowStart = now;
    entry.startTotal = trigger.fullKind
                           ? group_.totalFull(trigger.resource, now)
                           : group_.totalSome(trigger.resource, now);
    entry.trigger = std::move(trigger);
    entries_.push_back(std::move(entry));
    return entries_.size() - 1;
}

void
PsiTriggerSet::poll(sim::SimTime now)
{
    for (auto &entry : entries_) {
        const auto &t = entry.trigger;
        const sim::SimTime total =
            t.fullKind ? group_.totalFull(t.resource, now)
                       : group_.totalSome(t.resource, now);
        if (now - entry.windowStart >= t.window) {
            // Slide to a new window.
            entry.windowStart = now;
            entry.startTotal = total;
            entry.fired = false;
            continue;
        }
        const sim::SimTime stall = total - entry.startTotal;
        if (!entry.fired && stall >= t.threshold) {
            entry.fired = true;
            if (t.callback)
                t.callback(stall);
        }
    }
}

} // namespace tmo::psi
