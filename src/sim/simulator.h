// The discrete-event simulator: a virtual clock plus a sharded event engine.
//
// Everything in the library that needs time — radio models, the Omni manager,
// applications — takes a Simulator& and schedules callbacks on it. Virtual
// time only advances between events, so a full multi-minute experiment runs
// in milliseconds of wall time and is reproducible given a seed.
//
// Parallel execution model (conservative, deterministic):
//
// Every event carries an OwnerId — a node id for node-local work (radio
// fires, queue drains, per-device timers) or kGlobalOwner for work touching
// shared subsystems (mesh, mobility, scenario instructions). Node owners are
// sharded across `threads` worker shards (shard = owner % threads), each with
// its own EventQueue; global events live in a separate queue executed
// serially by the driving thread.
//
// The run loop alternates two phases:
//   * Global phase: while the earliest pending work is global, pop and run
//     one global event at a time — exactly the classic sequential loop.
//   * Window phase: when the earliest pending work is shard-local at time T,
//     open a window [T, W) with W = min(T + lookahead, next global event,
//     deadline⁺) and let every shard execute its own events inside the
//     window concurrently.
//
// Lookahead is sound because every sharded medium has a strictly positive
// minimum cross-node latency (BLE: one advertising event): an event executing
// at t can only affect another owner at ≥ t + min_latency ≥ W, so shards
// never need each other's state inside a window. Cross-owner schedules made
// during a window go into per-shard-pair mailboxes as (time, src_owner, seq)
// records, clamped to ≥ W, and are merged into the destination queues at the
// window barrier in canonical (time, src_owner, seq) order. Merge order —
// and therefore event sequence numbers, RNG consumption, and every simulated
// outcome — depends only on simulated times and owner ids, never on thread
// scheduling, so results are bit-identical for any thread count (threads=1
// runs the same windowed loop with the single shard executed inline).
//
// Each owner also draws from its own RNG stream (seeded from the simulation
// seed and the owner id), so random sequences are independent of how owners'
// events interleave across shards. A stream is an 8-byte counter (see
// common/rng.h), held inline in one flat vector indexed by owner.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "sim/event_queue.h"

namespace omni::obs {
class Omniscope;
}

namespace omni::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1, unsigned threads = 1);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Number of shards node-owned events are distributed over (1 = all events
  /// execute on the driving thread).
  unsigned threads() const { return static_cast<unsigned>(nshards_); }

  /// Conservative lookahead: the smallest cross-owner latency any sharded
  /// medium can produce (Testbed sets this from BleMedium::min_latency()).
  /// Parallel windows span [t, t + lookahead).
  void set_lookahead(Duration lookahead);

  /// Current virtual time. Inside a node-owned event this is the exact event
  /// time on the owning shard's clock; elsewhere it is the global clock.
  TimePoint now() const;

  /// Deterministic random stream of the current execution context: each
  /// owner draws from its own stream, the global context from the stream
  /// keyed by kGlobalOwner.
  Rng& rng();

  /// Register `owner` so it has an RNG stream and a mailbox sequence
  /// counter. Must be called outside parallel windows (setup, or global
  /// events); World::add_node does this for every full-stack node.
  void ensure_owner(OwnerId owner);

  /// Pin every future event of `owner` to shard `hint % threads()`. World
  /// passes the node's home-region index at admission, so nodes that share a
  /// spatial region share a shard and their interactions stay shard-local.
  /// Owners never placed keep the legacy `owner % threads()` mapping.
  ///
  /// Must run outside parallel windows and before the owner's first event is
  /// scheduled: re-homing an owner with pending events would split its FIFO
  /// across queues. Placement cannot change simulated results — cross-owner
  /// schedules go through the canonically ordered mailbox merge whenever the
  /// owners differ (same shard or not), and every owner draws from its own
  /// RNG stream — so this is a pure locality/balance knob.
  void place_owner(OwnerId owner, std::uint64_t hint);

  /// Schedule `fn` to run `delay` from now under the *current* owner (the
  /// global owner outside events). Zero (or negative) delays run after
  /// currently queued same-time events, never re-entrantly; they take the
  /// queue's O(1) zero-delay path instead of the heap.
  EventHandle after(Duration delay, EventFn fn) {
    return after_on(current_owner(), delay, std::move(fn));
  }

  /// Schedule `fn` at an absolute virtual time (clamped to now) under the
  /// current owner.
  EventHandle at(TimePoint when, EventFn fn) {
    return after_on(current_owner(), when - now(), std::move(fn));
  }

  /// Schedule `fn` under a specific owner. From the owner's own events (or
  /// from any context when no parallel window is executing) this is a plain
  /// schedule and returns a cancellable handle. From a *different* owner's
  /// events during a window it becomes a mailbox post: the firing time is
  /// clamped to the window end, the event is merged at the barrier in
  /// canonical (time, src_owner, seq) order, and the returned handle is
  /// inert (cross-owner posts cannot be cancelled).
  ///
  /// Because such a handle cannot be cancelled, a closure posted across
  /// owners must not dereference a component that can be destroyed before
  /// it runs. Capture a `std::weak_ptr` liveness token beside `this` and
  /// return when it has expired (SimQueue's deferred wake does this).
  /// Same-owner timers may capture plain `this` when their component
  /// cancels the handle on stop() or in its destructor.
  EventHandle after_on(OwnerId owner, Duration delay, EventFn fn);

  /// Schedule barrier-serialized work: after_on(kGlobalOwner, ...). Use for
  /// anything touching shared state (mesh, world mutation, multi-node scans).
  EventHandle after_global(Duration delay, EventFn fn) {
    return after_on(kGlobalOwner, delay, std::move(fn));
  }

  /// after_on with an absolute firing time (clamped to now). Barrier hooks
  /// use this to schedule work computed from recorded event times.
  EventHandle at_on(OwnerId owner, TimePoint when, EventFn fn) {
    return after_on(owner, when - now(), std::move(fn));
  }

  /// Register a hook that runs on the driving thread at every window
  /// barrier, after cross-owner mailboxes have been merged. No window is
  /// executing when it runs, so the hook may schedule onto any owner (media
  /// use this to flush deliveries recorded during the window into batched
  /// events). The hook's owner must outlive every run of this simulator.
  void add_barrier_hook(std::function<void()> hook) {
    barrier_hooks_.push_back(std::move(hook));
  }

  /// Index of the shard the calling thread is executing a window for, or
  /// threads() when no window is executing in this context (setup, global
  /// events, barrier hooks). Media use this to pick a per-shard scratch lane.
  std::size_t current_shard_index() const {
    const ExecCtx& c = tls_ctx_;
    if (c.sim == this && c.shard != nullptr) {
      return static_cast<std::size_t>(c.shard - shards_.data());
    }
    return nshards_;
  }

  /// Everything an instrumentation site needs about the calling context —
  /// execution lane, event owner, and virtual time — resolved with a single
  /// thread-local read. Equivalent to {current_shard_index(),
  /// current_owner(), now()} but ~3x cheaper, which matters on per-frame
  /// hot paths (obs::Omniscope::mark and friends).
  struct ObsCtx {
    std::size_t lane;
    OwnerId owner;
    TimePoint now;
  };
  ObsCtx obs_ctx() const {
    const ExecCtx& c = tls_ctx_;
    if (c.sim == this) {
      if (c.shard != nullptr) {
        return ObsCtx{static_cast<std::size_t>(c.shard - shards_.data()),
                      c.owner, c.shard->now};
      }
      return ObsCtx{nshards_, c.owner, now_};
    }
    return ObsCtx{nshards_, kGlobalOwner, now_};
  }

  /// Run events until all queues empty or `deadline` is reached. The clock
  /// finishes exactly at min(deadline, last event time >= deadline). Events
  /// scheduled exactly at `deadline` run. Returns the number of events
  /// executed.
  std::uint64_t run_until(TimePoint deadline);

  /// Run until every event queue is empty.
  std::uint64_t run();

  /// Run for a span of virtual time from the current instant.
  std::uint64_t run_for(Duration d) { return run_until(now_ + d); }

  /// Request that the current run stops. From a global event the loop stops
  /// before the next event (classic behavior); from a node-owned event the
  /// stop takes effect at the enclosing window barrier.
  void stop() { stop_requested_.store(true, std::memory_order_relaxed); }

  bool idle() const;
  /// High-water mark of simultaneously pending events, summed per queue.
  std::size_t peak_pending_events() const;
  std::uint64_t executed_events() const { return executed_; }

  /// Parallel-engine telemetry: windows opened, events run in the serial
  /// global phase, and cross-owner mailbox posts merged at barriers. The
  /// ratio of global events and posts to total events bounds the achievable
  /// parallel speedup (Amdahl); the bench reports all three.
  std::uint64_t windows_run() const { return windows_; }
  std::uint64_t global_events_run() const { return global_events_; }
  std::uint64_t mailbox_posts() const { return mailbox_posts_; }
  /// Subset of mailbox_posts() whose source and destination shards differ —
  /// the traffic that actually crosses a shard boundary. With region-based
  /// placement this measures cross-region coupling; unlike mailbox_posts()
  /// (placement-independent by construction) it depends on the owner→shard
  /// map, so it is telemetry, never an input to simulated behavior.
  std::uint64_t cross_shard_mailbox_posts() const {
    return cross_shard_posts_;
  }

  /// Owner of the currently executing event (kGlobalOwner outside events).
  OwnerId current_owner() const;

  // --- Snapshot introspection (sim/snapshot.h; quiescent contexts only) -----

  /// The simulation seed every owner stream derives from.
  std::uint64_t seed() const { return seed_; }

  /// One live pending event. `generation` is the owning queue's internal
  /// sequence — thread-count-dependent in value, but (at, generation) gives
  /// the exact fire order among one owner's events, which is what snapshot
  /// capture canonicalizes on.
  struct PendingEvent {
    TimePoint at;
    std::uint64_t generation;
    OwnerId owner;
    bool immediate;  ///< queued on a zero-delay FIFO, not the heap
  };

  /// Append every live pending event across the global queue and all shards.
  /// Must run outside parallel windows (setup, global events, barrier
  /// hooks); snapshot capture points are global events, where shard FIFOs
  /// are provably drained and all mailboxes merged.
  void snapshot_pending(std::vector<PendingEvent>& out) const;

  /// Draws taken from each registered owner's RNG stream, ascending by
  /// owner, the global stream last as kGlobalOwner. A stream is a pure
  /// function of (seed, owner) and its draw count, so the count pins its
  /// position exactly.
  void snapshot_rng_draws(
      std::vector<std::pair<OwnerId, std::uint64_t>>& out) const;

  /// Per-owner mailbox post counters (index = owner id). Part of the
  /// deterministic state: they order cross-owner posts in the canonical
  /// mailbox merge.
  const std::vector<std::uint64_t>& owner_seqs() const { return owner_seq_; }

  /// Observability scope attached to this simulator, or nullptr (the
  /// default). The simulator never calls into the scope — the pointer only
  /// gives instrumented components a place to publish records without a
  /// sim -> obs dependency. Set by obs::Omniscope::attach().
  void set_scope(obs::Omniscope* scope) { scope_ = scope; }
  obs::Omniscope* scope() const { return scope_; }

  /// True when the calling context may touch mutable state belonging to
  /// `owner`: either no parallel window is executing (setup / global phase),
  /// or the current event is owned by `owner` itself. World uses this to
  /// police its per-node caches.
  bool owns_context(OwnerId owner) const;

 private:
  /// A cross-owner schedule captured during a window, merged at the barrier.
  struct Post {
    TimePoint at;
    OwnerId src;
    std::uint64_t seq;
    OwnerId dst;
    EventFn fn;
  };

  struct alignas(64) Shard {
    EventQueue q;
    TimePoint now = TimePoint::origin();  ///< last executed event time
    std::uint64_t executed = 0;           ///< events run in the open window
    /// Outgoing posts, one mailbox per destination shard; back() = global.
    std::vector<std::vector<Post>> out;
  };

  /// Which simulator/owner/shard the calling thread is executing for.
  struct ExecCtx {
    const Simulator* sim = nullptr;
    OwnerId owner = kGlobalOwner;
    Shard* shard = nullptr;
  };
  static thread_local ExecCtx tls_ctx_;

  static std::uint64_t derive_owner_seed(std::uint64_t seed, OwnerId owner);

  std::uint64_t run_loop(TimePoint deadline, bool advance_clock);
  void run_shard_window(Shard& sh, TimePoint window_end);
  std::uint64_t run_windows(TimePoint window_end);
  void merge_mailboxes();
  void ensure_workers();
  void worker_main(std::size_t shard_index);

  std::size_t shard_index_for(OwnerId owner) const {
    return owner < owner_shard_.size()
               ? owner_shard_[owner]
               : static_cast<std::size_t>(owner % nshards_);
  }
  Shard& shard_for(OwnerId owner) { return shards_[shard_index_for(owner)]; }

  const std::uint64_t seed_;
  const std::size_t nshards_;
  obs::Omniscope* scope_ = nullptr;
  TimePoint now_ = TimePoint::origin();
  Duration lookahead_ = Duration::millis(10);
  EventQueue global_q_;
  std::vector<Shard> shards_;
  Rng global_rng_;  ///< kGlobalOwner's stream
  /// Per-owner streams, indexed by owner, 8 bytes each. Sparse owner ids (a
  /// few devices among 100k crowd nodes) leave holes that ensure_owner never
  /// seeded; owner_registered_ tells them apart. Seeds derive purely from
  /// (seed_, owner), so registration order can't change any stream.
  std::vector<Rng> owner_rngs_;
  std::vector<bool> owner_registered_;
  std::vector<std::uint64_t> owner_seq_;  ///< per-owner mailbox post counters
  std::vector<std::uint32_t> owner_shard_;  ///< place_owner pins; see above
  std::vector<Post> merge_scratch_;
  std::vector<std::function<void()>> barrier_hooks_;
  std::uint64_t executed_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t global_events_ = 0;
  std::uint64_t mailbox_posts_ = 0;
  std::uint64_t cross_shard_posts_ = 0;

  // Worker pool (lazily started on the first multi-shard window). Workers
  // sleep on epoch_; the driver publishes window_end_, arms running_workers_,
  // then bumps epoch_. Each worker runs its shard's window and decrements
  // running_workers_; the driver waits for it to hit zero (the barrier).
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> running_workers_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> stop_requested_{false};
  TimePoint window_end_ = TimePoint::origin();  ///< valid inside a window
};

}  // namespace omni::sim
