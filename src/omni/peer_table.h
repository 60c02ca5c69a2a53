// The Omni Manager's peer mapping (paper §3.3).
//
// Maps each neighbor's omni_address to the technologies it is reachable on,
// with the concrete low-level address per technology, when it was last heard
// there, and the mapping's provenance: mappings learned through integrated
// low-level neighbor discovery (BLE address beacons) or proven by a direct
// exchange are "fresh"; mappings learned only through application-level
// multicast require re-validation before data transfer.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/result.h"
#include "common/time.h"
#include "common/types.h"
#include "omni/comm_tech.h"

namespace omni {

struct PeerTechInfo {
  LowLevelAddress address;
  TimePoint last_seen;
  bool requires_refresh = false;
};

/// Fixed-capacity map from Technology to PeerTechInfo, API-compatible with
/// the std::map it replaces for the operations the code uses. The receive
/// hot path touches a peer's mapping on every packet; with only four
/// technologies, a presence-bitmask over an inline array beats a red-black
/// tree and keeps the whole mapping on two cache lines.
class TechMap {
 public:
  using value_type = std::pair<Technology, PeerTechInfo>;

  template <bool Const>
  class Iter {
   public:
    using Map = std::conditional_t<Const, const TechMap, TechMap>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;

    Ref operator*() const { return map_->slots_[i_]; }
    auto* operator->() const { return &map_->slots_[i_]; }
    Iter& operator++() {
      ++i_;
      skip();
      return *this;
    }
    bool operator==(const Iter&) const = default;

   private:
    friend class TechMap;
    Iter(Map* map, std::size_t i) : map_(map), i_(i) { skip(); }
    void skip() {
      while (i_ < kSlots && !(map_->mask_ & (1u << i_))) ++i_;
    }

    Map* map_;
    std::size_t i_;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  TechMap() {
    for (std::size_t i = 0; i < kSlots; ++i) {
      slots_[i].first = static_cast<Technology>(i);
    }
  }

  // Iteration visits technologies in enum (energy-rank) order, matching the
  // ordered map this replaces — peers_on/expire/report output is unchanged.
  iterator begin() { return {this, 0}; }
  iterator end() { return {this, kSlots}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, kSlots}; }

  iterator find(Technology t) {
    return has(t) ? iterator{this, idx(t)} : end();
  }
  const_iterator find(Technology t) const {
    return has(t) ? const_iterator{this, idx(t)} : end();
  }

  PeerTechInfo& at(Technology t) {
    OMNI_ASSERTF(has(t), "TechMap::at on absent technology %u",
                 static_cast<unsigned>(t));
    return slots_[idx(t)].second;
  }
  const PeerTechInfo& at(Technology t) const {
    OMNI_ASSERTF(has(t), "TechMap::at on absent technology %u",
                 static_cast<unsigned>(t));
    return slots_[idx(t)].second;
  }

  /// Insert if absent (std::map semantics: no overwrite of an existing
  /// entry). Returns the entry and whether it was inserted.
  std::pair<iterator, bool> emplace(Technology t, PeerTechInfo info) {
    if (has(t)) return {iterator{this, idx(t)}, false};
    mask_ |= static_cast<std::uint8_t>(1u << idx(t));
    slots_[idx(t)].second = std::move(info);
    return {iterator{this, idx(t)}, true};
  }

  iterator erase(iterator it) {
    mask_ &= static_cast<std::uint8_t>(~(1u << it.i_));
    slots_[it.i_].second = PeerTechInfo{};
    return ++it;
  }

  bool empty() const { return mask_ == 0; }
  std::size_t size() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kSlots; ++i) n += (mask_ >> i) & 1u;
    return n;
  }

 private:
  static constexpr std::size_t kSlots = kAllTechnologies.size();
  static std::size_t idx(Technology t) { return static_cast<std::size_t>(t); }
  bool has(Technology t) const { return (mask_ >> idx(t)) & 1u; }

  std::array<value_type, kSlots> slots_{};
  std::uint8_t mask_ = 0;
};

struct PeerEntry {
  OmniAddress address;
  TechMap techs;
  TimePoint last_seen;
  /// Observed beacon inter-arrival (EWMA-ish: jumps up, smooths down; zero
  /// until the second sighting). Under adaptive discovery a sparse-region
  /// peer may advertise every several seconds; the expiry sweep scales its
  /// staleness horizon by this hint so long-interval peers aren't falsely
  /// expired.
  Duration interval_hint;

  bool reachable_on(Technology tech) const {
    return techs.find(tech) != techs.end();
  }
};

/// One technology mapping carried by a sighting (see PeerTable::observe_all).
struct Sighting {
  Technology tech;
  LowLevelAddress low;
  bool requires_refresh = false;
};

/// Flat open-addressing peer table.
///
/// Layout: a power-of-two bucket array of {key, dense index} pairs probed
/// linearly (the keys sit contiguously, so a probe sequence is a streamed
/// cache-line scan, not a pointer chase), over a dense entry array holding
/// the flat PeerEntry records (the four-slot TechMap is inline, so one entry
/// spans two cache lines). Compared to the unordered_map it replaces:
///
///   * observe/observe_all — every beacon reception lands here — touch one
///     bucket run plus one dense entry, with zero allocation in steady state
///     (growth is geometric and amortized);
///   * the scan-shaped queries (peers_on, find_by_low_level, expire, the
///     disengagement check) walk the dense array linearly instead of
///     chasing one heap node per peer.
///
/// Determinism: the dense array is in insertion order (deterministic under
/// the PR 2 engine contract) and every multi-peer accessor sorts or
/// min-selects by omni address, so observable output is independent of hash
/// layout. Deletion uses bucket backshift + dense swap-pop, both
/// order-insensitive for the sorted accessors.
///
/// Pointers returned by find() are invalidated by observe/expire — callers
/// must not hold them across mutations (same contract as ContextRegistry).
class PeerTable {
 public:
  /// Record that `peer` was heard on `tech` at `low`. Freshness only ever
  /// upgrades (a multicast sighting does not mark a ND-derived mapping
  /// stale again, matching the paper: every message refreshes the mapping).
  void observe(OmniAddress peer, Technology tech, LowLevelAddress low,
               TimePoint now, bool requires_refresh);

  /// Record several technology mappings from one sighting of `peer` (an
  /// address beacon names every technology the peer is reachable on) with a
  /// single table probe. Unset addresses are skipped.
  void observe_all(OmniAddress peer, std::span<const Sighting> sightings,
                   TimePoint now);

  /// Mark a mapping validated (e.g., after a successful data exchange).
  void mark_fresh(OmniAddress peer, Technology tech);

  const PeerEntry* find(OmniAddress peer) const;

  /// Reverse lookup: which peer owns this low-level address on `tech`?
  std::optional<OmniAddress> find_by_low_level(
      Technology tech, const LowLevelAddress& low) const;

  std::vector<OmniAddress> peers() const;
  /// Peers whose mapping on `tech` is younger than `ttl`.
  std::vector<OmniAddress> peers_on(Technology tech, TimePoint now,
                                    Duration ttl) const;

  /// True if `peer` was heard recently on any technology with a strictly
  /// lower energy rank than `tech` (drives disengagement, paper §3.3).
  bool reachable_on_lower_energy(OmniAddress peer, Technology tech,
                                 TimePoint now, Duration ttl) const;

  /// Drop per-technology mappings older than `ttl`, and peers with no
  /// mapping left. With `hint_ttl_scale` > 0, a peer whose observed beacon
  /// interval (interval_hint) is long gets a proportionally longer horizon —
  /// max(ttl, hint * scale) — so adaptive long-interval beaconers survive
  /// the sweep. The manager passes ttl/floor (= the fixed baseline's tally
  /// of missed-beacon tries, 20 at the defaults), preserving the paper's
  /// loss tolerance rather than its wall-clock horizon; 0 (the default)
  /// keeps the exact plain-ttl semantics. Returns the number of peers
  /// removed.
  std::size_t expire(TimePoint now, Duration ttl, double hint_ttl_scale = 0.0);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Monotonic count of peers ever inserted (never decremented by expiry).
  /// The discovery scheduler diffs this across maintenance ticks to detect
  /// genuinely-new neighbors without scanning the table.
  std::uint64_t inserts() const { return inserts_; }

 private:
  /// One probe slot. key == 0 means empty: the zero omni address is
  /// reserved-invalid (observe rejects it), so no sentinel bit is needed.
  struct Bucket {
    std::uint64_t key = 0;
    std::uint32_t idx = 0;
  };

  std::size_t home(std::uint64_t key) const;
  const PeerEntry* lookup(std::uint64_t key) const;
  PeerEntry* lookup(std::uint64_t key) {
    return const_cast<PeerEntry*>(std::as_const(*this).lookup(key));
  }
  /// The entry for `peer`, inserted (with buckets grown as needed) if absent.
  PeerEntry& get_or_insert(OmniAddress peer);
  void grow();
  /// Remove entries_[idx]: backshift-delete its bucket, swap-pop the dense
  /// array, and re-point the moved entry's bucket.
  void erase_entry(std::uint32_t idx);

  std::vector<Bucket> buckets_;   // power-of-two capacity, linear probing
  std::vector<PeerEntry> entries_;  // dense, insertion-ordered
  std::uint64_t inserts_ = 0;     // see inserts()
};

}  // namespace omni
