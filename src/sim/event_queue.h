// Pending-event set for the discrete-event simulator.
//
// Events fire in (time, sequence) order so that two events scheduled for the
// same instant run in scheduling order — this makes simulations fully
// deterministic.
//
// Implementation: a slab of event slots (free-list reuse, no per-event heap
// allocation beyond what the callback itself captures) indexed by a 4-ary
// min-heap. Heap entries carry their (time, sequence) key inline, so sift
// comparisons read contiguous heap memory instead of chasing slab cache
// lines. Every slot carries its heap position, so
// cancellation is a true O(log n) heap removal — cancelled events leave the
// queue immediately instead of piling up as dead entries until popped, which
// keeps memory bounded by the number of *live* events even under workloads
// that cancel millions of periodic timers (address-beacon reschedules).
//
// Handles are (slot index, generation) pairs: generations are globally
// unique per scheduled event, so a stale handle can never cancel an
// unrelated event that happens to reuse its slot. Handles weigh two words
// and involve no shared_ptr/atomics; they must not be used after the
// EventQueue that issued them is destroyed (in this codebase the Simulator —
// and thus its queue — always outlives the components holding handles).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/time.h"

namespace omni::sim {

/// The one event representation. libstdc++ stores a closure whose captures
/// total at most 16 trivially copyable bytes (`this` plus an id or two)
/// inside the std::function itself, so scheduling one allocates nothing;
/// hot recurring events keep to that. A larger or non-trivially-copyable
/// capture heap-allocates its body once per schedule.
using EventFn = std::function<void()>;

/// Logical owner of scheduled work. Node-local events (radio fires, queue
/// drains, per-device timers) carry their node id; work that touches shared
/// subsystems (mesh, mobility, scenario instructions) carries kGlobalOwner
/// and is executed serially at epoch barriers by the parallel engine.
using OwnerId = std::uint32_t;
inline constexpr OwnerId kGlobalOwner = 0xffffffffu;

class EventQueue;

/// Handle to a scheduled event, usable to cancel it. Default-constructed
/// handles are inert. Copying shares the same underlying event.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from running if it has not run yet.
  void cancel();

  /// True if this handle refers to an event that has neither run nor been
  /// cancelled yet.
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint64_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Add an event firing at `at`; later insertions at the same time fire
  /// later. Returns a handle usable for cancellation. `owner` rides along
  /// and is reported by pop() so the simulator can restore the event's
  /// execution context (per-owner RNG stream, shard clock).
  EventHandle schedule(TimePoint at, EventFn fn, OwnerId owner = kGlobalOwner);

  /// Add an event firing at the current instant `now` (a zero-delay wakeup).
  /// Same ordering contract as schedule(now, fn), but the event lands in a
  /// FIFO instead of the heap: the bulk of a large simulation's events are
  /// same-instant queue wakeups, and appending to a ring costs O(1) with no
  /// sifting. Correct only when `now` never decreases between calls (true
  /// for a simulator clock): every pending heap event at time `now` was
  /// scheduled earlier — before the clock reached `now` — so draining the
  /// heap's `now` entries before the FIFO preserves global (time, sequence)
  /// order.
  EventHandle schedule_now(TimePoint now, EventFn fn,
                           OwnerId owner = kGlobalOwner);

  bool empty() const { return heap_.empty() && fifo_live_ == 0; }
  std::size_t size() const { return heap_.size() + fifo_live_; }

  /// True if a zero-delay event is pending. It fires at the current instant:
  /// after heap events already due at that instant, before anything later.
  bool has_immediate() const { return fifo_live_ > 0; }

  /// High-water mark of pending (live) events over the queue's lifetime.
  std::size_t peak_size() const { return peak_live_; }

  /// Slots currently held by the slab (capacity bound; tests assert this
  /// stays near the live high-water mark rather than growing with the
  /// schedule/cancel churn count).
  std::size_t slab_capacity() const { return slots_.size(); }

  /// Bytes one slab slot occupies, the closure's inline buffer included —
  /// the bench reports it as bytes/event alongside any heap bytes a
  /// capturing closure adds on top.
  static constexpr std::size_t slot_footprint() { return sizeof(Slot); }

  /// Earliest pending *heap* event time; TimePoint::max() if the heap is
  /// empty. Zero-delay events are not represented here — they are due at the
  /// caller's current instant whenever has_immediate() is true.
  TimePoint next_time() const {
    return heap_.empty() ? TimePoint::max() : heap_[0].at;
  }

  /// Pop and return the earliest pending event; the caller runs it. Must not
  /// be called when empty(). `now` is the caller's clock: heap events due at
  /// or before `now` fire ahead of queued zero-delay events (they carry
  /// smaller sequence numbers — see schedule_now).
  struct Popped {
    TimePoint at;
    OwnerId owner;
    EventFn fn;
  };
  Popped pop(TimePoint now);

  /// Visit every live pending event as f(at, generation, owner, immediate):
  /// heap entries in storage order, then live zero-delay FIFO entries in
  /// fire order. Generations totally order same-owner events under
  /// (at, generation) — snapshot capture sorts on that key and then discards
  /// the (engine-internal, thread-count-dependent) generation values.
  template <typename Fn>
  void for_each_pending(Fn&& f) const {
    for (const HeapEntry& e : heap_) {
      f(e.at, e.generation, slots_[e.slot].owner, /*immediate=*/false);
    }
    for (std::size_t i = fifo_head_; i < fifo_.size(); ++i) {
      const FifoEntry& e = fifo_[i];
      if (!slot_live(e.slot, e.generation)) continue;  // cancelled
      f(slots_[e.slot].at, e.generation, slots_[e.slot].owner,
        /*immediate=*/true);
    }
  }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kArity = 4;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  /// heap_index marker for slots queued in the zero-delay FIFO.
  static constexpr std::uint32_t kInFifo = 0xfffffffeu;
  /// Slab sizes below this never trigger compaction (churn on tiny slabs is
  /// cheap; compaction would just thrash).
  static constexpr std::size_t kCompactMin = 64;

  struct Slot {
    TimePoint at;
    std::uint64_t generation = 0;  ///< 0 = free; doubles as the fire sequence
    EventFn fn;
    OwnerId owner = kGlobalOwner;
    std::uint32_t heap_index = kNone;  ///< kNone while free
    std::uint32_t next_free = kNone;
  };

  /// One heap element: the slot's ordering key, duplicated here so sifts
  /// never touch the slab.
  struct HeapEntry {
    TimePoint at;
    std::uint64_t generation;
    std::uint32_t slot;
  };

  /// Heap order: (at, generation) ascending — generation is assigned in
  /// schedule order, preserving deterministic same-instant FIFO.
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.generation < b.generation;
  }

  void place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    slots_[e.slot].heap_index = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void remove_heap_at(std::size_t i);
  Popped pop_heap();
  Popped pop_fifo(TimePoint now);

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t idx);
  void maybe_compact();

  bool slot_live(std::uint32_t slot, std::uint64_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation;
  }
  void cancel_slot(std::uint32_t slot, std::uint64_t generation);

  /// One zero-delay FIFO entry: the slot plus its generation, so entries
  /// whose event was cancelled (slot freed or reused) are skipped on pop.
  struct FifoEntry {
    std::uint64_t generation;
    std::uint32_t slot;
  };

  std::vector<Slot> slots_;       // slab; free slots linked via next_free
  std::vector<HeapEntry> heap_;  // 4-ary min-heap of live events
  std::vector<FifoEntry> fifo_;  // zero-delay events, fire order; ring-style
  std::size_t fifo_head_ = 0;    // first unpopped fifo_ entry
  std::size_t fifo_live_ = 0;    // non-cancelled events in fifo_
  std::uint32_t free_head_ = kNone;
  std::size_t free_count_ = 0;
  std::uint64_t next_generation_ = 1;  // 0 is the "free slot" marker
  std::size_t peak_live_ = 0;
};

}  // namespace omni::sim
