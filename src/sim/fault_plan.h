// Deterministic fault injection for the simulated radio media.
//
// A FaultPlan is a declarative schedule of adverse conditions — per-link
// packet loss/corruption, delivery-latency spikes, radio blackout and flap
// windows, node crash+restart churn, and geometric partitions — that the
// media (BleMedium, MeshNetwork, NanSystem) consult on every delivery and
// that Testbed turns into barrier-serialized global power events.
//
// Determinism contract (parallel engine):
//  - Passive faults (loss, corruption, latency, partitions) are pure
//    functions of (plan seed, src, dst, virtual time, per-sender salt)
//    computed with a stateless splitmix64-style mix. They consume no
//    simulator RNG, so an armed-but-empty plan leaves every existing RNG
//    stream — and therefore the golden traces — untouched, and fault draws
//    are independent of shard interleaving: bit-identical at any --threads.
//  - Active faults (blackouts, flaps, crash/restart) are actuated as
//    global-owner events (Testbed::schedule_faults), which the engine
//    already serializes between conservative windows.
//  - Latency spikes only ever ADD delay, so the engine's lookahead bound
//    (min BLE latency) stays sound.
//
// Queries are const and lock-free; injection counters are relaxed atomics
// (sums are order-independent, so totals are deterministic too).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "sim/world.h"

namespace omni::sim {

/// Which radio medium a fault entry applies to.
enum class FaultRadio : std::uint8_t { kAll = 0, kBle, kWifi, kNan };

class FaultPlan {
 public:
  /// Wildcard node filter: matches every node.
  static constexpr NodeId kAnyNode = kInvalidNode;

  /// Probabilistic degradation of frames from `src` to `dst` (directional;
  /// add the mirrored entry for a symmetric fault).
  struct LinkFault {
    TimePoint start;
    TimePoint end = TimePoint::max();
    FaultRadio radio = FaultRadio::kAll;
    NodeId src = kAnyNode;
    NodeId dst = kAnyNode;
    double loss = 0.0;     ///< P(frame silently dropped)
    double corrupt = 0.0;  ///< P(frame delivered with flipped bytes)
    /// Added to the medium's own delivery latency for every matching frame.
    /// Broadcast media apply it per frame, so only src-filtered (dst ==
    /// kAnyNode) entries can delay BLE/NAN; unicast honors dst filters too.
    Duration extra_latency = Duration::zero();
  };

  /// A radio outage window, actuated by Testbed as real power toggles.
  struct Blackout {
    NodeId node = kInvalidNode;
    FaultRadio radio = FaultRadio::kAll;
    TimePoint start;
    TimePoint end;
    /// Zero: one solid outage over [start, end). Positive: the radio flaps —
    /// off for the first `off_fraction` of every `period`, then back on.
    Duration period = Duration::zero();
    double off_fraction = 1.0;
  };

  /// Whole-node crash (every radio powers off) with optional restart.
  struct Crash {
    NodeId node = kInvalidNode;
    TimePoint at;
    /// origin() (the default) means the node never comes back.
    TimePoint restart;
    /// Model the reboot assigning fresh link-layer addresses (BLE private
    /// address rotation): peers must re-learn the node, same omni address.
    bool rotate_addresses = true;
  };

  /// Geometric partition: while active, nodes on opposite sides of the line
  /// a*x + b*y = c cannot hear each other on any medium.
  struct Partition {
    TimePoint start;
    TimePoint end = TimePoint::max();
    double a = 1.0;
    double b = 0.0;
    double c = 0.0;
  };

  /// Aggregate injection counts (what the plan actually did to traffic).
  struct Stats {
    std::uint64_t drops = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t delays = 0;
    std::uint64_t partition_drops = 0;
  };

  explicit FaultPlan(std::uint64_t seed = 0x0f4a17) : seed_(seed) {}

  void set_seed(std::uint64_t seed) { seed_ = seed; }
  std::uint64_t seed() const { return seed_; }

  void add_link_fault(const LinkFault& f) { link_faults_.push_back(f); }
  void add_blackout(const Blackout& b) { blackouts_.push_back(b); }
  void add_crash(const Crash& c) { crashes_.push_back(c); }
  void add_partition(const Partition& p) { partitions_.push_back(p); }

  bool empty() const {
    return link_faults_.empty() && blackouts_.empty() && crashes_.empty() &&
           partitions_.empty();
  }

  /// Active entries, consumed by Testbed::schedule_faults.
  const std::vector<Blackout>& blackouts() const { return blackouts_; }
  const std::vector<Crash>& crashes() const { return crashes_; }

  /// Passive entries (read by Testbed::export_options for trace annotation).
  const std::vector<LinkFault>& link_faults() const { return link_faults_; }
  const std::vector<Partition>& partitions() const { return partitions_; }

  // --- Delivery-time queries (const, callable concurrently from shards) ---

  /// Should this frame be silently dropped? `salt` must be unique per
  /// (sender, frame) — media keep per-sender monotonic counters.
  bool dropped(NodeId src, NodeId dst, FaultRadio radio, TimePoint at,
               std::uint64_t salt) const;

  /// Should this frame arrive with flipped bytes?
  bool corrupted(NodeId src, NodeId dst, FaultRadio radio, TimePoint at,
                 std::uint64_t salt) const;

  /// Total extra delivery latency for a matching frame (sums every matching
  /// spike entry). Pass dst = kAnyNode on broadcast media.
  Duration extra_latency(NodeId src, NodeId dst, FaultRadio radio,
                         TimePoint at) const;

  /// True if positions `a` and `b` are separated by an active partition.
  bool partitioned(Vec2 a, Vec2 b, TimePoint at) const;

  /// True when some partition window covers `at`. Media evaluate this once
  /// per fan-out and gate the per-candidate partitioned() geometry behind
  /// it, so a partition-free plan (loss/latency-only faults) costs no
  /// line-side tests — and no position() interpolations — per candidate.
  bool partition_active(TimePoint at) const;

  /// Deterministically flip bytes in `frame` (decoders must reject it).
  static void corrupt_in_place(Bytes& frame, std::uint64_t salt);

  // --- Injection accounting (relaxed atomics; order-independent sums) ---

  void note_drop() const { drops_.fetch_add(1, std::memory_order_relaxed); }
  void note_corruption() const {
    corruptions_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_delay() const { delays_.fetch_add(1, std::memory_order_relaxed); }
  void note_partition_drop() const {
    partition_drops_.fetch_add(1, std::memory_order_relaxed);
  }
  Stats stats() const {
    return Stats{drops_.load(std::memory_order_relaxed),
                 corruptions_.load(std::memory_order_relaxed),
                 delays_.load(std::memory_order_relaxed),
                 partition_drops_.load(std::memory_order_relaxed)};
  }

 private:
  /// Uniform [0,1) draw for one (stream, link, instant, frame) tuple.
  double draw(std::uint64_t stream, NodeId src, NodeId dst, TimePoint at,
              std::uint64_t salt) const;
  static bool matches(const LinkFault& f, NodeId src, NodeId dst,
                      FaultRadio radio, TimePoint at);

  std::uint64_t seed_;
  std::vector<LinkFault> link_faults_;
  std::vector<Blackout> blackouts_;
  std::vector<Crash> crashes_;
  std::vector<Partition> partitions_;

  mutable std::atomic<std::uint64_t> drops_{0};
  mutable std::atomic<std::uint64_t> corruptions_{0};
  mutable std::atomic<std::uint64_t> delays_{0};
  mutable std::atomic<std::uint64_t> partition_drops_{0};
};

}  // namespace omni::sim
