#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tmo::sim
{

EventId
EventQueue::schedule(SimTime when, EventFn fn)
{
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{nullptr, FREE_SEQ, 1});
    }
    const std::uint64_t seq = nextSeq_++;
    Slot &s = slots_[slot];
    s.fn = std::move(fn);
    s.seq = seq;
    heap_.push_back(Key{when, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++live_;
    return (EventId{s.gen} << 32) | slot;
}

void
EventQueue::release(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.seq = FREE_SEQ;
    if (++s.gen == 0)
        s.gen = 1;
    freeSlots_.push_back(slot);
    --live_;
}

void
EventQueue::cancel(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id);
    if (slot >= slots_.size() || slots_[slot].seq == FREE_SEQ ||
        slots_[slot].gen != static_cast<std::uint32_t>(id >> 32))
        return;
    // The callback dies after the slot is consistent again: its
    // destructor may reach back into this queue. Its heap key stays
    // until it surfaces, and skipDead() drops it then.
    const EventFn doomed = std::exchange(slots_[slot].fn, nullptr);
    release(slot);
}

void
EventQueue::skipDead()
{
    while (!heap_.empty() && !liveKey(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        heap_.pop_back();
    }
}

SimTime
EventQueue::nextTime()
{
    skipDead();
    if (heap_.empty())
        throw std::logic_error("EventQueue::nextTime on empty queue");
    return heap_.front().when;
}

SimTime
EventQueue::runNext()
{
    skipDead();
    if (heap_.empty())
        throw std::logic_error("EventQueue::runNext on empty queue");
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Key key = heap_.back();
    heap_.pop_back();
    // Move the callback out before running: it may schedule, which can
    // reuse this slot or grow the table under it.
    const EventFn fn = std::exchange(slots_[key.slot].fn, nullptr);
    release(key.slot);
    ++dispatched_;
    fn();
    return key.when;
}

} // namespace tmo::sim
