// Simulation-integrated queues for the Communication Technology API.
//
// Under simulation, producers and consumers are both driven by the event
// loop, so "concurrent access" (paper §3.2) is modelled by waking the
// consumer at the same virtual instant as the push. Every queue is pinned to
// an owner. When the producing event already executes under that owner, the
// consumer is invoked directly (guarded against recursion) — same virtual
// instant, no event overhead, and the owner's events are serial so nothing
// can interleave. Pushes from any other context defer the wakeup to a fresh
// event under the owner.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/time.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace omni {

template <typename T>
class SimQueue {
 public:
  /// The consumer is pinned to `owner`: wakeups are scheduled under it
  /// regardless of the producing context, so the parallel engine always
  /// drains this queue on the owner's shard (or, for kGlobalOwner, in the
  /// barrier-serialized global phase).
  SimQueue(sim::Simulator& sim, sim::OwnerId owner)
      : sim_(&sim), owner_(owner) {}
  SimQueue(const SimQueue&) = delete;
  SimQueue& operator=(const SimQueue&) = delete;

  void push(T item) {
    if (count_ < items_.size()) {
      items_[count_] = std::move(item);
    } else {
      items_.push_back(std::move(item));
    }
    ++count_;
    wake();
  }

  std::optional<T> try_pop() {
    if (count_ == 0) return std::nullopt;
    T out = std::move(items_.front());
    items_.erase(items_.begin());
    --count_;
    return out;
  }

  /// Swap out the entire backlog: it is exchanged with `out` and the
  /// number of live items — a prefix of `out` — is returned. The queue
  /// takes `out`'s old storage in exchange; a caller that clear()s `out`
  /// after handling the batch releases every item and keeps both vectors'
  /// capacity, so steady-state draining allocates no vector storage.
  std::size_t drain_into(std::vector<T>& out) {
    std::swap(items_, out);
    std::size_t live = count_;
    count_ = 0;
    return live;
  }

  /// Register the consumer's wakeup. After every push, the consumer runs in
  /// its own event (coalesced: one wakeup per batch of same-instant pushes).
  void set_consumer(std::function<void()> fn) {
    consumer_ = std::move(fn);
    if (count_ > 0) wake();
  }

  void clear_consumer() { consumer_ = nullptr; }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

 private:
  void wake() {
    if (!consumer_) return;
    // Already inside this queue's consumer: its drain loop picks the new
    // item up; if it returns without doing so, the tail check below re-arms.
    if (draining_) return;
    if (wake_pending_) return;
    // Same-owner fast path: the producing event already runs under this
    // queue's owner (never taken for global-pinned queues — their producers,
    // e.g. the mesh delivery sweep, must not re-enter shared subsystems).
    // Whether a push takes this path depends only on event ownership, never
    // on the thread count, so event sequences stay bit-identical.
    if (owner_ != sim::kGlobalOwner && sim_->current_owner() == owner_) {
      draining_ = true;
      consumer_();
      draining_ = false;
      if (count_ > 0) deferred_wake();  // consumer returned with a backlog
      return;
    }
    deferred_wake();
  }

  /// The wakeup is not kept as a handle: a push from another owner's event
  /// posts it through the mailbox, where it cannot be cancelled. It holds a
  /// liveness token instead, so a wake that outlives its queue (a node torn
  /// down before the barrier merges the post) does nothing.
  void deferred_wake() {
    wake_pending_ = true;
    sim_->after_on(owner_, Duration::zero(),
                   [this, alive = std::weak_ptr<bool>(alive_)] {
                     if (alive.expired()) return;
                     wake_pending_ = false;
                     if (consumer_) consumer_();
                   });
  }

  sim::Simulator* sim_;
  /// Liveness token for deferred wakes that outlive the queue.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  // Vector, not deque: consumers batch-drain, so FIFO pop-front is rare
  // (short send queues only) while push/drain are hot. The live backlog is
  // items_[0, count_); later elements, if any, are what a drain_into()
  // caller left in the vector it exchanged, and push() overwrites them.
  std::vector<T> items_;
  std::size_t count_ = 0;
  std::function<void()> consumer_;
  sim::OwnerId owner_;
  bool wake_pending_ = false;
  bool draining_ = false;
};

}  // namespace omni
