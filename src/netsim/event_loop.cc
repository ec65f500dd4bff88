#include "netsim/event_loop.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "netsim/port.h"

namespace gq::sim {

std::uint32_t EventLoop::claim_slot() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].state = SlotState::kLive;
  ++live_;
  return slot;
}

std::uint32_t EventLoop::push_key(util::TimePoint at) {
  if (at < now_) at = now_;
  const std::uint32_t slot = claim_slot();
  heap_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return slot;
}

void EventLoop::Lane::push(const Key& key) {
  if (size == ring.size()) {
    std::vector<Key> grown(std::max<std::size_t>(16, 2 * ring.size()));
    for (std::size_t i = 0; i < size; ++i)
      grown[i] = ring[(head + i) & (ring.size() - 1)];
    ring.swap(grown);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = key;
  ++size;
}

EventLoop::Lane* EventLoop::lane_for(util::Duration latency) {
  // A negative delay would be clamped to now, breaking the one-delay
  // invariant that keeps a lane sorted.
  if (latency.usec < 0) return nullptr;
  Lane* free = nullptr;
  for (Lane& lane : lanes_) {
    if (lane.delay == latency) return &lane;
    if (free == nullptr && lane.empty()) free = &lane;
  }
  if (free != nullptr) free->delay = latency;
  return free;
}

EventId EventLoop::schedule_at(util::TimePoint at, std::function<void()> fn) {
  const std::uint32_t slot = push_key(at);
  Slot& s = slots_[slot];
  s.payload.port = nullptr;
  s.payload.fn = std::move(fn);
  return make_id(s.generation, slot);
}

EventId EventLoop::fill_frame(std::uint32_t slot, Port* port, Frame frame) {
  Slot& s = slots_[slot];
  s.payload.port = port;
  s.payload.frame = std::move(frame);
  return make_id(s.generation, slot);
}

EventId EventLoop::schedule_frame_at(util::TimePoint at, Port* port,
                                     Frame frame) {
  return fill_frame(push_key(at), port, std::move(frame));
}

EventId EventLoop::schedule_hop(util::Duration latency, Port* port,
                                Frame frame) {
  Lane* lane = lane_for(latency);
  if (lane == nullptr)
    return schedule_frame_at(now_ + latency, port, std::move(frame));
  const std::uint32_t slot = claim_slot();
  lane->push(Key{now_ + latency, next_seq_++, slot});
  return fill_frame(slot, port, std::move(frame));
}

void EventLoop::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return;
  // A stale generation means the event already ran (or the id was never
  // issued): both are the documented no-op.
  if (slots_[slot].generation != generation_of(id)) return;
  if (slots_[slot].state != SlotState::kLive) return;
  // Tombstone in place; the key is purged when it pops, so the slot
  // table never grows past the high-water mark of in-flight events.
  slots_[slot].state = SlotState::kCancelled;
  --live_;
}

EventLoop::Payload EventLoop::retire_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  Payload out;
  out.port = s.payload.port;
  if (out.port != nullptr) {
    out.frame = std::move(s.payload.frame);
  } else {
    out.fn = std::exchange(s.payload.fn, nullptr);
  }
  ++s.generation;
  s.state = SlotState::kFree;
  free_slots_.push_back(slot);
  return out;
}

bool EventLoop::step(util::TimePoint deadline) {
  for (;;) {
    // The earliest key is the heap top or the head of one lane.
    const Key* next = heap_.empty() ? nullptr : &heap_.front();
    Lane* from = nullptr;
    for (Lane& lane : lanes_) {
      if (lane.empty()) continue;
      if (next == nullptr || Later{}(*next, lane.front())) {
        next = &lane.front();
        from = &lane;
      }
    }
    if (next == nullptr || next->at > deadline) return false;
    Key key = *next;
    if (from != nullptr) {
      from->pop();
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    const bool cancelled = slots_[key.slot].state == SlotState::kCancelled;
    Payload payload = retire_slot(key.slot);
    if (cancelled) continue;
    // The virtual clock is monotone: schedule_at clamps past timestamps
    // to now, so no key can sit behind the clock. Assert in debug builds
    // and clamp defensively in release (NDEBUG) builds — time travelling
    // backwards would silently corrupt every latency measurement and
    // retransmission timer downstream.
    assert(key.at >= now_ && "EventLoop clock must be monotone");
    if (key.at < now_) key.at = now_;
    --live_;
    now_ = key.at;
    ++executed_;
    if (payload.port != nullptr) {
      payload.port->deliver(std::move(payload.frame));
    } else {
      payload.fn();
    }
    return true;
  }
}

void EventLoop::run_until(util::TimePoint deadline) {
  while (step(deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
}

void EventLoop::drop_pending() {
  // Destroying a pending closure can re-enter cancel() (an object owned
  // by one closure cancelling its own timers in its destructor), so take
  // the keys out and retire every slot before any payload dies: a
  // re-entrant cancel then sees a stale generation and no-ops.
  std::vector<Key> keys;
  keys.swap(heap_);
  for (Lane& lane : lanes_) {
    for (; !lane.empty(); lane.pop()) keys.push_back(lane.front());
  }
  std::vector<Payload> doomed;
  doomed.reserve(keys.size());
  for (const Key& key : keys) doomed.push_back(retire_slot(key.slot));
  live_ = 0;
  doomed.clear();
}

void EventLoop::run_all() {
  while (step(util::TimePoint{INT64_MAX})) {
  }
}

ScopedTimers::~ScopedTimers() {
  // Ids of timers that already ran are stale, and cancel ignores them.
  for (const auto& [at, id] : armed_) loop_.cancel(id);
}

EventId ScopedTimers::schedule_in(util::Duration delay,
                                  std::function<void()> fn) {
  // A timer due strictly before now has run; one due now may not have.
  while (!armed_.empty() && armed_.front().first < loop_.now())
    armed_.pop_front();
  const util::TimePoint at = loop_.now() + delay;
  const EventId id = loop_.schedule_at(at, std::move(fn));
  armed_.emplace_back(at, id);
  return id;
}

}  // namespace gq::sim
