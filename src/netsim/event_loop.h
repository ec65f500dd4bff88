// Deterministic discrete-event scheduler. Each execution domain — a
// whole farm, or one subfarm shard under sim::LockstepCoordinator —
// runs off one EventLoop with a virtual microsecond clock, so an
// experiment with a 30-minute trigger window completes in milliseconds
// of wall time and replays identically given the same seed.
//
// Every event is a 24-byte key {at, seq, slot}, run in (at, seq) order;
// the payload stays put in a generation-tagged slot. A slot holds one of
// two arms: a frame delivery (Port* + Frame), which is what almost every
// event is — one per link hop — or a std::function for timers and
// everything else. A hop therefore allocates nothing beyond the frame's
// own buffer, and no key move ever moves a closure.
//
// Keys wait in one of two places. A link hop scheduled one link latency
// from now (schedule_hop) is appended to the FIFO lane kept for that
// latency: `now` and `seq` only grow, so a lane whose keys share one
// delay is already sorted by (at, seq) and its head is its earliest key.
// Everything else — timers, closures, fault-jittered or reordered
// frames, deliveries at an absolute time — goes on a binary min-heap.
// step() runs the earliest of the heap top and the lane heads, so the
// execution order is the one a single heap would give; a hop in a lane
// costs a ring append and a pop instead of two sifts through a heap
// that, in a farm, holds hundreds of armed timers. Lanes are few
// (kLanes) and re-keyed only while empty; a latency that finds none
// free falls back to the heap.
//
// Threading contract: an EventLoop is single-threaded. Under sharded
// execution exactly one worker thread runs a given loop during an
// epoch, and the coordinator may schedule cross-shard deliveries onto
// it only at epoch barriers while every worker is quiescent (the
// barrier's mutex hand-off orders those accesses).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "util/time.h"

namespace gq::sim {

class Port;

/// One Ethernet frame on the wire.
struct Frame {
  std::vector<std::uint8_t> bytes;
};

/// Handle for cancelling a scheduled event. Encodes (generation, slot):
/// slots are recycled, generations make stale handles harmless.
using EventId = std::uint64_t;

class EventLoop {
 public:
  /// Hop lanes per loop. A farm's links use a handful of latencies; each
  /// lane costs step() one comparison per event.
  static constexpr std::size_t kLanes = 4;

  EventLoop() = default;
  /// Drops every pending event first (see drop_pending), so a payload
  /// whose destructor re-enters cancel() still finds the slot table.
  ~EventLoop() { drop_pending(); }
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulated time.
  [[nodiscard]] util::TimePoint now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (clamped to now).
  EventId schedule_at(util::TimePoint at, std::function<void()> fn);

  /// Schedule `fn` to run `delay` from now.
  EventId schedule_in(util::Duration delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule the arrival of `frame` at `port` at absolute time `at`
  /// (clamped to now); the port's receive side runs then. Ordered with
  /// closures by the same (at, FIFO) rule. Port uses it for a hop whose
  /// delay fault injection changed and for bridged arrivals.
  EventId schedule_frame_at(util::TimePoint at, Port* port, Frame frame);

  /// Schedule the arrival of `frame` at `port` one link `latency` from
  /// now: schedule_frame_at(now() + latency, ...) in effect, ordered the
  /// same way, but kept in the FIFO lane for that latency when one is
  /// free (see the file comment). Port uses it for every hop whose delay
  /// is its link's configured latency.
  EventId schedule_hop(util::Duration latency, Port* port, Frame frame);

  /// Cancel a pending event; cancelling an already-run or unknown id is a
  /// harmless no-op (and is not recorded, so `pending()` stays exact).
  /// The payload itself is destroyed when its key pops, as if it had run.
  void cancel(EventId id);

  /// Run events until the queue empties or the clock would pass
  /// `deadline`; the clock ends at `deadline`.
  void run_until(util::TimePoint deadline);

  /// Run for `d` of simulated time from now.
  void run_for(util::Duration d) { run_until(now_ + d); }

  /// Drain every pending event regardless of time (tests only; malware
  /// behaviours self-rescheduling forever would never let this return).
  void run_all();

  /// Destroy every pending event without running it. Owners of the loop
  /// call this before tearing down the devices the closures reference: a
  /// pending closure can hold the last reference to an object (e.g. a
  /// TCP retransmit timer owning its connection) whose destructor touches
  /// a device, so those closures must die while the devices still exist.
  void drop_pending();

  /// Number of events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending (scheduled, not yet run or
  /// cancelled).
  [[nodiscard]] std::size_t pending() const { return live_; }

 private:
  /// What the heap sifts: 24 bytes, ordered by (at, seq).
  struct Key {
    util::TimePoint at;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps.
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// An event's payload. A non-null `port` selects the frame-delivery
  /// arm (`frame` goes to `port`); otherwise `fn` runs.
  struct Payload {
    Port* port = nullptr;
    Frame frame;
    std::function<void()> fn;
  };

  // Slot state for the scheduled-event bookkeeping: schedule, cancel and
  // pop each pay O(1) array accesses (see BM_EventLoopScheduleCancel).
  enum class SlotState : std::uint8_t { kFree, kLive, kCancelled };
  struct Slot {
    // Generations start at 1 so EventId 0 is never issued: callers use 0
    // as a "no event" sentinel and cancel(0) must stay a no-op.
    std::uint32_t generation = 1;
    SlotState state = SlotState::kFree;
    Payload payload;  // Empty unless the slot is live or cancelled.
  };

  static constexpr std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static constexpr std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static constexpr EventId make_id(std::uint32_t generation,
                                   std::uint32_t slot) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  /// A FIFO of keys that all had one delay when scheduled, so appends
  /// keep it sorted by (at, seq). A power-of-two ring that doubles when
  /// full; it never shrinks, so a lane in steady use allocates nothing.
  struct Lane {
    util::Duration delay{};
    std::vector<Key> ring;
    std::size_t head = 0;
    std::size_t size = 0;

    [[nodiscard]] bool empty() const { return size == 0; }
    [[nodiscard]] const Key& front() const { return ring[head]; }
    void pop() {
      head = (head + 1) & (ring.size() - 1);
      --size;
    }
    void push(const Key& key);
  };

  /// Claim a free slot and mark it live; the caller keys and fills it.
  std::uint32_t claim_slot();
  /// Claim a slot and push its key on the heap.
  std::uint32_t push_key(util::TimePoint at);
  /// The lane that takes a hop of `latency` now: the lane already keyed
  /// to it, else an empty lane re-keyed to it, else none (heap).
  Lane* lane_for(util::Duration latency);
  /// Put a frame delivery in a claimed slot and return its id.
  EventId fill_frame(std::uint32_t slot, Port* port, Frame frame);
  bool step(util::TimePoint deadline);
  /// Move a slot's payload out and return the slot to the free list,
  /// bumping the generation so any still-held EventId for it goes stale.
  /// The payload runs or dies only after this: running may schedule
  /// (growing slots_), dying may re-enter cancel().
  Payload retire_slot(std::uint32_t slot);

  util::TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;  // Scheduled and not yet run or cancelled.
  // Min-heap of keys managed with push_heap/pop_heap.
  std::vector<Key> heap_;
  // Hop lanes, one per link latency in use (see the file comment).
  std::array<Lane, kLanes> lanes_;
  // Grows to the high-water mark of events in flight at once; retired
  // slots are recycled through free_slots_.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

/// Timers that must not outlive their owner. An owner whose timer
/// closures capture `this` schedules them here rather than on the loop:
/// destroying the group cancels every one that has not fired. A timer
/// still fires after the state it was armed for is gone (the closure
/// checks that state), so the events a run executes do not depend on
/// the group. Ids are kept in scheduling order and dropped from the
/// front once their time has passed; with one fixed delay per owner
/// that is firing order, so the group holds only timers in flight.
class ScopedTimers {
 public:
  explicit ScopedTimers(EventLoop& loop) : loop_(loop) {}
  ~ScopedTimers();
  ScopedTimers(const ScopedTimers&) = delete;
  ScopedTimers& operator=(const ScopedTimers&) = delete;

  /// EventLoop::schedule_in, cancelled if still pending when the group
  /// dies.
  EventId schedule_in(util::Duration delay, std::function<void()> fn);

 private:
  EventLoop& loop_;
  std::deque<std::pair<util::TimePoint, EventId>> armed_;
};

}  // namespace gq::sim
