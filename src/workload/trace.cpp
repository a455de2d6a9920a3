#include "workload/trace.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "psi/psi.hpp"

namespace tmo::workload
{

TraceWorkload::TraceWorkload(sim::Simulation &simulation,
                             mem::MemoryManager &mm, cgroup::Cgroup &cg,
                             std::vector<TraceRecord> records,
                             std::uint64_t address_space_pages,
                             double anon_fraction, sim::SimTime tick)
    : sim_(simulation), mm_(mm), cg_(&cg), records_(std::move(records)),
      addressSpacePages_(address_space_pages),
      anonFraction_(anon_fraction), tickLen_(tick),
      mapping_(address_space_pages, mem::NO_PAGE),
      task_(cg, cg.name() + "/trace"), timeline_(1)
{
    timeline_[0].task = &task_;
    assert(tickLen_ > 0);
    if (!std::is_sorted(records_.begin(), records_.end(),
                        [](const TraceRecord &a, const TraceRecord &b) {
                            return a.time < b.time;
                        })) {
        throw std::invalid_argument(
            "TraceWorkload: records must be sorted by time");
    }
    for (const auto &record : records_) {
        if (record.page >= addressSpacePages_)
            throw std::out_of_range(
                "TraceWorkload: page beyond the address space");
    }
}

void
TraceWorkload::start()
{
    sim_.after(tickLen_, [this] { tick(); });
}

std::uint64_t
TraceWorkload::allocatedBytes() const
{
    std::uint64_t touched = 0;
    for (const auto idx : mapping_)
        touched += idx != mem::NO_PAGE;
    return touched * mm_.pageBytes();
}

void
TraceWorkload::tick()
{
    const sim::SimTime start = sim_.now();
    const sim::SimTime end = start + tickLen_;

    sim::SimTime mem_stall = 0, io_stall = 0;
    while (cursor_ < records_.size() &&
           records_[cursor_].time < start) {
        const auto &record = records_[cursor_++];
        ++stats_.accesses;

        mem::PageIdx &slot = mapping_[record.page];
        mem::AccessResult result;
        if (slot == mem::NO_PAGE) {
            // First touch: allocate. The low addresses are anonymous,
            // the high ones file-backed (created non-resident so the
            // first read faults through the filesystem).
            const bool anon =
                static_cast<double>(record.page) <
                anonFraction_ * static_cast<double>(addressSpacePages_);
            slot = mm_.newPage(*cg_, anon, anon, start, &result);
            if (!anon)
                result = mm_.access(slot, start);
        } else {
            result = mm_.access(slot, start);
        }
        if (record.write)
            mm_.pages()[slot].flags |= mem::PG_DIRTY;

        stats_.faults += result.faulted;
        stats_.refaults += result.refault;
        stats_.memStall += result.memStall;
        stats_.ioStall += result.ioStall;
        mem_stall += result.memStall;
        io_stall += result.ioStall;
    }

    // Feed the tick's stalls to PSI through the worker task.
    const sim::SimTime both = std::min(mem_stall, io_stall);
    auto &segments = timeline_[0].segments;
    segments.clear();
    sim::SimTime at = start;
    auto push = [&](sim::SimTime duration, unsigned state) {
        if (duration == 0)
            return;
        duration = std::min(duration, end - at);
        segments.push_back({at, duration, state});
        at += duration;
    };
    push(both, psi::TSK_MEMSTALL | psi::TSK_IOWAIT);
    push(mem_stall - both, psi::TSK_MEMSTALL);
    push(io_stall - both, psi::TSK_IOWAIT);
    sched::replayTimelines(timeline_, end, transitions_);

    if (!finished())
        sim_.after(tickLen_, [this] { tick(); });
}

std::vector<TraceRecord>
synthesizeTrace(const TraceSynthesisConfig &config, std::uint64_t seed)
{
    // An empty address space has no page to scan, and a working set
    // larger than it puts the shifted phase below page 0.
    if (config.pages == 0)
        throw std::invalid_argument("synthesizeTrace: pages must be > 0");
    if (!(config.workingSetFraction > 0.0 &&
          config.workingSetFraction <= 1.0))
        throw std::invalid_argument(
            "synthesizeTrace: workingSetFraction must be in (0, 1]");
    sim::Rng rng(seed);
    const auto ws_pages = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               config.workingSetFraction *
               static_cast<double>(config.pages)));
    sim::ZipfSampler zipf(ws_pages, config.zipf);

    std::vector<TraceRecord> records;
    const auto total = static_cast<std::uint64_t>(
        config.accessesPerSec * sim::toSeconds(config.duration));
    records.reserve(total);
    for (std::uint64_t i = 0; i < total; ++i) {
        TraceRecord record;
        record.time = static_cast<sim::SimTime>(
            static_cast<double>(i) / static_cast<double>(total) *
            static_cast<double>(config.duration));
        const bool second_phase =
            config.phaseShift && record.time > config.duration / 2;
        // The shifted working set occupies a disjoint region.
        const std::uint64_t ws_base =
            second_phase ? config.pages - ws_pages : 0;
        if (rng.chance(config.scanFraction)) {
            record.page = rng.uniformInt(config.pages);
        } else {
            record.page = ws_base + zipf.sample(rng);
        }
        record.write = rng.chance(config.writeFraction);
        records.push_back(record);
    }
    return records;
}

} // namespace tmo::workload
