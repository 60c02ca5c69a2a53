#include "sim/event_queue.h"

#include <algorithm>

#include "common/assert.h"
#include "common/result.h"

namespace omni::sim {

void EventHandle::cancel() {
  if (queue_ == nullptr) return;
  queue_->cancel_slot(slot_, generation_);
}

bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->slot_live(slot_, generation_);
}

// --- Heap maintenance --------------------------------------------------------

void EventQueue::sift_up(std::size_t i) {
  HeapEntry moving = heap_[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, moving);
}

void EventQueue::sift_down(std::size_t i) {
  HeapEntry moving = heap_[i];
  for (;;) {
    std::size_t first = i * kArity + 1;
    if (first >= heap_.size()) break;
    std::size_t best = first;
    std::size_t last = std::min(first + kArity, heap_.size());
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moving)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, moving);
}

void EventQueue::remove_heap_at(std::size_t i) {
  HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (i >= heap_.size()) return;  // removed the tail element
  place(i, moved);
  sift_up(i);
  sift_down(slots_[moved.slot].heap_index);
}

// --- Slab --------------------------------------------------------------------

std::uint32_t EventQueue::alloc_slot() {
  if (free_head_ != kNone) {
    std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    slots_[idx].next_free = kNone;
    --free_count_;
    return idx;
  }
  OMNI_ASSERTF(slots_.size() < kNone, "event slab exhausted (%zu slots live)",
               slots_.size() - free_count_);
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::free_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.generation = 0;
  s.fn = nullptr;  // release captured state eagerly
  s.heap_index = kNone;
  s.next_free = free_head_;
  free_head_ = idx;
  ++free_count_;
  maybe_compact();
}

void EventQueue::maybe_compact() {
  // Compact when more than half the slab is dead weight. Slots cannot move
  // (outstanding handles address them by index), so compaction trims the
  // free tail of the slab and rebuilds the free list; it runs only when the
  // trailing slot is free, which keeps the trigger O(1) on the hot path.
  if (slots_.size() < kCompactMin || free_count_ * 2 <= slots_.size()) return;
  if (slots_.empty() || slots_.back().generation != 0) return;
  while (!slots_.empty() && slots_.back().generation == 0) {
    slots_.pop_back();
    --free_count_;
  }
  free_head_ = kNone;
  for (std::size_t i = slots_.size(); i-- > 0;) {
    if (slots_[i].generation == 0) {
      slots_[i].next_free = free_head_;
      free_head_ = static_cast<std::uint32_t>(i);
    }
  }
  if (slots_.capacity() > 2 * slots_.size() + kCompactMin) {
    slots_.shrink_to_fit();
    heap_.shrink_to_fit();
  }
}

// --- Public API --------------------------------------------------------------

EventHandle EventQueue::schedule(TimePoint at, EventFn fn, OwnerId owner) {
  std::uint32_t idx = alloc_slot();
  Slot& s = slots_[idx];
  s.at = at;
  s.generation = next_generation_++;
  s.fn = std::move(fn);
  s.owner = owner;
  heap_.push_back(HeapEntry{at, s.generation, idx});
  s.heap_index = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
  if (heap_.size() > peak_live_) peak_live_ = heap_.size();
  return EventHandle{this, idx, s.generation};
}

EventHandle EventQueue::schedule_now(TimePoint now, EventFn fn,
                                     OwnerId owner) {
  std::uint32_t idx = alloc_slot();
  Slot& s = slots_[idx];
  s.at = now;
  s.generation = next_generation_++;
  s.fn = std::move(fn);
  s.owner = owner;
  s.heap_index = kInFifo;
  fifo_.push_back(FifoEntry{s.generation, idx});
  ++fifo_live_;
  if (size() > peak_live_) peak_live_ = size();
  return EventHandle{this, idx, s.generation};
}

EventQueue::Popped EventQueue::pop(TimePoint now) {
  OMNI_ASSERT(!empty());
  // Heap events due at `now` were scheduled before the clock reached `now`,
  // i.e. before every queued zero-delay event: they go first.
  if (!heap_.empty() && (fifo_live_ == 0 || heap_[0].at <= now)) {
    return pop_heap();
  }
  return pop_fifo(now);
}

EventQueue::Popped EventQueue::pop_heap() {
  std::uint32_t idx = heap_[0].slot;
  Popped out{slots_[idx].at, slots_[idx].owner, std::move(slots_[idx].fn)};
  remove_heap_at(0);
  free_slot(idx);
  return out;
}

EventQueue::Popped EventQueue::pop_fifo(TimePoint now) {
  for (;;) {
    FifoEntry e = fifo_[fifo_head_++];
    if (fifo_head_ == fifo_.size()) {
      fifo_.clear();
      fifo_head_ = 0;
    } else if (fifo_head_ >= kCompactMin && fifo_head_ * 2 >= fifo_.size()) {
      // Keep the ring's footprint proportional to the live backlog even when
      // a steady producer prevents it from ever fully draining.
      fifo_.erase(fifo_.begin(),
                  fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
      fifo_head_ = 0;
    }
    if (!slot_live(e.slot, e.generation)) continue;  // cancelled, then freed
    Popped out{now, slots_[e.slot].owner, std::move(slots_[e.slot].fn)};
    free_slot(e.slot);
    --fifo_live_;
    return out;
  }
}

void EventQueue::cancel_slot(std::uint32_t slot, std::uint64_t generation) {
  if (!slot_live(slot, generation)) return;
  if (slots_[slot].heap_index == kInFifo) {
    // The fifo_ entry stays behind; pop_fifo skips it via the generation
    // check once the slot is freed (or reused) here.
    --fifo_live_;
  } else {
    remove_heap_at(slots_[slot].heap_index);
  }
  free_slot(slot);
}

}  // namespace omni::sim
