#include "sim/simulator.h"

#include <algorithm>

#include "common/assert.h"
#include "common/hash.h"
#include "common/result.h"

namespace omni::sim {
namespace {

// Window rendezvous are microseconds apart in hot simulations: both sides of
// the barrier spin briefly before falling back to a futex wait, so the
// common case costs nanoseconds instead of a kernel round trip, while idle
// phases (no shard work pending) still sleep.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Spinning only helps when every shard (plus the driver) has a core to spin
// on; on an oversubscribed machine a spinning worker preempts the thread it
// is waiting for, so go straight to the futex there.
inline int barrier_spin_limit(std::size_t nshards) {
  unsigned hw = std::thread::hardware_concurrency();
  return (hw != 0 && nshards <= hw) ? (1 << 14) : 0;
}

}  // namespace

thread_local Simulator::ExecCtx Simulator::tls_ctx_;

Simulator::Simulator(std::uint64_t seed, unsigned threads)
    : seed_(seed),
      nshards_(std::max(1u, std::min(threads, 64u))),
      shards_(nshards_),
      global_rng_(derive_owner_seed(seed, kGlobalOwner)) {
  for (Shard& sh : shards_) sh.out.resize(nshards_ + 1);
}

Simulator::~Simulator() {
  if (!workers_.empty()) {
    shutdown_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (std::thread& w : workers_) w.join();
  }
}

void Simulator::set_lookahead(Duration lookahead) {
  OMNI_CHECK_MSG(lookahead > Duration::zero(),
                 "lookahead must be strictly positive");
  lookahead_ = lookahead;
}

TimePoint Simulator::now() const {
  const ExecCtx& c = tls_ctx_;
  if (c.sim == this && c.shard != nullptr) return c.shard->now;
  return now_;
}

Rng& Simulator::rng() {
  const ExecCtx& c = tls_ctx_;
  if (c.sim == this && c.owner != kGlobalOwner) {
    OMNI_CHECK_MSG(c.owner < owner_registered_.size() &&
                       owner_registered_[c.owner],
                   "event owner has no RNG stream (missing ensure_owner)");
    return owner_rngs_[c.owner];
  }
  return global_rng_;
}

std::uint64_t Simulator::derive_owner_seed(std::uint64_t seed, OwnerId owner) {
  // splitmix64 finalizer of seed + (owner + 1)·γ: statistically independent
  // streams without consuming draws from any other stream (seeding a child
  // from a parent stream's draw would make stream seeds depend on the
  // parent's draw position).
  return splitmix64(seed + static_cast<std::uint64_t>(owner) * Rng::kGamma);
}

void Simulator::ensure_owner(OwnerId owner) {
  if (owner == kGlobalOwner) return;
  const ExecCtx& c = tls_ctx_;
  OMNI_CHECK_MSG(c.sim != this || c.shard == nullptr,
                 "ensure_owner must run outside parallel windows");
  // Holes stay unregistered: with sparse owner ids (city worlds where a
  // handful of devices live among tens of thousands of crowd nodes) a hole
  // costs its 8-byte slot and one bit. Seeds are a pure function of
  // (seed_, owner), so registration order can't perturb any stream.
  if (owner_rngs_.size() <= owner) {
    owner_rngs_.resize(owner + 1, Rng(0));
    owner_registered_.resize(owner + 1, false);
    owner_seq_.resize(owner + 1, 0);
  }
  if (!owner_registered_[owner]) {
    owner_rngs_[owner] = Rng(derive_owner_seed(seed_, owner));
    owner_registered_[owner] = true;
  }
}

void Simulator::place_owner(OwnerId owner, std::uint64_t hint) {
  if (owner == kGlobalOwner) return;
  const ExecCtx& c = tls_ctx_;
  OMNI_CHECK_MSG(c.sim != this || c.shard == nullptr,
                 "place_owner must run outside parallel windows");
  if (owner_shard_.size() <= owner) {
    std::size_t first = owner_shard_.size();
    owner_shard_.resize(static_cast<std::size_t>(owner) + 1);
    for (std::size_t i = first; i < owner_shard_.size(); ++i) {
      owner_shard_[i] = static_cast<std::uint32_t>(i % nshards_);
    }
  }
  owner_shard_[owner] = static_cast<std::uint32_t>(hint % nshards_);
}

OwnerId Simulator::current_owner() const {
  const ExecCtx& c = tls_ctx_;
  return c.sim == this ? c.owner : kGlobalOwner;
}

bool Simulator::owns_context(OwnerId owner) const {
  const ExecCtx& c = tls_ctx_;
  if (c.sim != this || c.shard == nullptr) return true;
  return c.owner == owner;
}

EventHandle Simulator::after_on(OwnerId owner, Duration delay, EventFn fn) {
  ExecCtx& c = tls_ctx_;
  if (c.sim != this || c.shard == nullptr) {
    // Setup code or a global event: every queue is quiescent, insert
    // directly. Times are anchored at the global clock.
    if (owner == kGlobalOwner) {
      if (delay <= Duration::zero()) {
        return global_q_.schedule_now(now_, std::move(fn), owner);
      }
      return global_q_.schedule(now_ + delay, std::move(fn), owner);
    }
    ensure_owner(owner);
    // Into a shard queue: always via the heap. The shard's zero-delay FIFO
    // is reserved for the shard's own events (its clock may lag now_, and
    // FIFO entries must never predate heap entries).
    TimePoint at = delay <= Duration::zero() ? now_ : now_ + delay;
    return shard_for(owner).q.schedule(at, std::move(fn), owner);
  }
  // Inside a shard window.
  Shard& sh = *c.shard;
  if (owner == c.owner) {
    if (delay <= Duration::zero()) {
      return sh.q.schedule_now(sh.now, std::move(fn), owner);
    }
    return sh.q.schedule(sh.now + delay, std::move(fn), owner);
  }
  // Cross-owner: mailbox post, merged at the window barrier in canonical
  // (time, src_owner, seq) order. Clamped to the window end — sound because
  // sharded media guarantee cross-owner latency >= lookahead >= W - t.
  TimePoint at = delay <= Duration::zero() ? sh.now : sh.now + delay;
  if (at < window_end_) at = window_end_;
  std::size_t dst_box = owner == kGlobalOwner ? nshards_ : shard_index_for(owner);
  OMNI_ASSERTF(c.owner < owner_seq_.size(),
               "posting owner %u not registered",
               static_cast<unsigned>(c.owner));
  sh.out[dst_box].push_back(
      Post{at, c.owner, ++owner_seq_[c.owner], owner, std::move(fn)});
  return EventHandle{};
}

bool Simulator::idle() const {
  if (!global_q_.empty()) return false;
  for (const Shard& sh : shards_) {
    if (!sh.q.empty()) return false;
  }
  return true;
}

std::size_t Simulator::peak_pending_events() const {
  std::size_t n = global_q_.peak_size();
  for (const Shard& sh : shards_) n += sh.q.peak_size();
  return n;
}

void Simulator::snapshot_pending(std::vector<PendingEvent>& out) const {
  const ExecCtx& c = tls_ctx_;
  OMNI_CHECK_MSG(c.sim != this || c.shard == nullptr,
                 "snapshot_pending must run outside parallel windows");
  auto visit = [&out](TimePoint at, std::uint64_t generation, OwnerId owner,
                      bool immediate) {
    out.push_back(PendingEvent{at, generation, owner, immediate});
  };
  global_q_.for_each_pending(visit);
  for (const Shard& sh : shards_) sh.q.for_each_pending(visit);
}

void Simulator::snapshot_rng_draws(
    std::vector<std::pair<OwnerId, std::uint64_t>>& out) const {
  auto draws = [this](const Rng& r, OwnerId o) {
    return r.draws_since(derive_owner_seed(seed_, o));
  };
  for (OwnerId o = 0; o < owner_rngs_.size(); ++o) {
    if (owner_registered_[o]) out.emplace_back(o, draws(owner_rngs_[o], o));
  }
  out.emplace_back(kGlobalOwner, draws(global_rng_, kGlobalOwner));
}

void Simulator::run_shard_window(Shard& sh, TimePoint window_end) {
  ExecCtx& c = tls_ctx_;
  c.sim = this;
  c.shard = &sh;
  for (;;) {
    if (!sh.q.has_immediate()) {
      if (sh.q.empty()) break;
      if (sh.q.next_time() >= window_end) break;
    }
    auto popped = sh.q.pop(sh.now);
    if (popped.at > sh.now) sh.now = popped.at;
    c.owner = popped.owner;
    popped.fn();
    ++sh.executed;
  }
  c = ExecCtx{};
}

void Simulator::ensure_workers() {
  if (!workers_.empty() || nshards_ == 1) return;
  workers_.reserve(nshards_ - 1);
  for (std::size_t i = 1; i < nshards_; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

void Simulator::worker_main(std::size_t shard_index) {
  const int spin_limit = barrier_spin_limit(nshards_);
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t e = epoch_.load(std::memory_order_acquire);
    for (int spins = 0; e == seen;
         e = epoch_.load(std::memory_order_acquire)) {
      if (++spins >= spin_limit) {
        epoch_.wait(seen, std::memory_order_acquire);
        spins = 0;
      } else {
        cpu_relax();
      }
    }
    seen = e;
    if (shutdown_.load(std::memory_order_relaxed)) return;
    run_shard_window(shards_[shard_index], window_end_);
    if (running_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      running_workers_.notify_all();
    }
  }
}

std::uint64_t Simulator::run_windows(TimePoint window_end) {
  window_end_ = window_end;
  if (nshards_ == 1) {
    run_shard_window(shards_[0], window_end);
  } else {
    ensure_workers();
    running_workers_.store(static_cast<std::uint32_t>(nshards_ - 1),
                           std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    run_shard_window(shards_[0], window_end);
    const int spin_limit = barrier_spin_limit(nshards_);
    int spins = 0;
    for (;;) {
      std::uint32_t left = running_workers_.load(std::memory_order_acquire);
      if (left == 0) break;
      if (++spins >= spin_limit) {
        running_workers_.wait(left, std::memory_order_acquire);
        spins = 0;
      } else {
        cpu_relax();
      }
    }
  }
  std::uint64_t total = 0;
  for (Shard& sh : shards_) {
    total += sh.executed;
    sh.executed = 0;
  }
  executed_ += total;
  return total;
}

void Simulator::merge_mailboxes() {
  for (std::size_t dst = 0; dst <= nshards_; ++dst) {
    merge_scratch_.clear();
    for (std::size_t si = 0; si < nshards_; ++si) {
      std::vector<Post>& box = shards_[si].out[dst];
      if (dst != nshards_ && dst != si) cross_shard_posts_ += box.size();
      merge_scratch_.insert(merge_scratch_.end(),
                            std::make_move_iterator(box.begin()),
                            std::make_move_iterator(box.end()));
      box.clear();
    }
    if (merge_scratch_.empty()) continue;
    // Canonical order: (time, src_owner, seq) is a total order independent
    // of thread interleaving — seq counts posts per source owner, and each
    // owner's events execute in a deterministic sequence on its shard.
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const Post& a, const Post& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    EventQueue& q = dst == nshards_ ? global_q_ : shards_[dst].q;
    mailbox_posts_ += merge_scratch_.size();
    for (Post& p : merge_scratch_) {
      OMNI_ASSERTF(p.dst == kGlobalOwner ||
                       (p.dst < owner_registered_.size() &&
                        owner_registered_[p.dst]),
                   "mailbox post to unregistered owner %u",
                   static_cast<unsigned>(p.dst));
      q.schedule(p.at, std::move(p.fn), p.dst);
    }
  }
  merge_scratch_.clear();
}

std::uint64_t Simulator::run_loop(TimePoint deadline, bool advance_clock) {
  stop_requested_.store(false, std::memory_order_relaxed);
  ExecCtx& c = tls_ctx_;
  std::uint64_t ran = 0;
  for (;;) {
    if (stop_requested_.load(std::memory_order_relaxed)) break;
    TimePoint next_g = global_q_.empty()
                           ? TimePoint::max()
                           : (global_q_.has_immediate() ? now_
                                                        : global_q_.next_time());
    TimePoint next_s = TimePoint::max();
    for (Shard& sh : shards_) {
      // Shard queues hold no immediates between windows (the zero-delay FIFO
      // is only fed — and fully drained — inside the shard's own window).
      if (!sh.q.empty()) next_s = std::min(next_s, sh.q.next_time());
    }
    TimePoint next = std::min(next_g, next_s);
    if (next == TimePoint::max()) break;
    if (next > deadline) break;
    if (next_g <= next_s) {
      // Global phase: serialized, one event at a time (zero-delay chains and
      // freshly scheduled earlier-than-shard work are picked up naturally on
      // the next iteration).
      auto popped = global_q_.pop(now_);
      if (popped.at > now_) now_ = popped.at;
      c = ExecCtx{this, kGlobalOwner, nullptr};
      popped.fn();
      c = ExecCtx{};
      ++ran;
      ++executed_;
      ++global_events_;
      continue;
    }
    // Window phase: shards execute [T, W) concurrently.
    const TimePoint t = next_s;
    if (t > now_) now_ = t;
    TimePoint w = t + lookahead_;
    if (next_g < w) w = next_g;
    if (deadline != TimePoint::max() && deadline + Duration::micros(1) < w) {
      // Events exactly at the deadline run (run_until contract), later ones
      // don't — the window end is exclusive.
      w = deadline + Duration::micros(1);
    }
    ran += run_windows(w);
    ++windows_;
    merge_mailboxes();
    for (auto& hook : barrier_hooks_) hook();
  }
  if (advance_clock && now_ < deadline &&
      !stop_requested_.load(std::memory_order_relaxed)) {
    now_ = deadline;
  }
  return ran;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  return run_loop(deadline, /*advance_clock=*/true);
}

std::uint64_t Simulator::run() {
  return run_loop(TimePoint::max(), /*advance_clock=*/false);
}

}  // namespace omni::sim
