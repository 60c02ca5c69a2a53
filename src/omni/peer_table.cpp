#include "omni/peer_table.h"

#include <algorithm>

#include "common/hash.h"

namespace omni {

namespace {

constexpr std::size_t kMinBuckets = 16;

// Ceiling on the learned inter-arrival hint: twice the adaptive policy's
// default interval ceiling. Without it, one sighting after a long absence
// (peer out of range, radio blackout) would teach an enormous "interval" and
// make the entry near-immortal in expire().
constexpr Duration kMaxIntervalHint = Duration::seconds(16);

// Fold one observed sighting gap into the entry's inter-arrival hint. Jumps
// up immediately (a peer that backed off should get the longer horizon right
// away) and smooths down (one fast duplicate — e.g. a probe response between
// beacons — shouldn't collapse the horizon).
void update_interval_hint(PeerEntry& entry, TimePoint now) {
  const Duration gap = now - entry.last_seen;
  if (gap <= Duration::zero()) return;
  Duration hint = entry.interval_hint;
  if (hint.is_zero() || gap >= hint) {
    hint = gap;
  } else {
    hint = (hint + gap) / 2;
  }
  entry.interval_hint = std::min(hint, kMaxIntervalHint);
}

void record(PeerEntry& entry, Technology tech, LowLevelAddress low,
            TimePoint now, bool requires_refresh) {
  auto it = entry.techs.find(tech);
  if (it == entry.techs.end()) {
    entry.techs.emplace(tech,
                        PeerTechInfo{std::move(low), now, requires_refresh});
    return;
  }
  it->second.address = std::move(low);
  it->second.last_seen = now;
  // Freshness only upgrades.
  if (!requires_refresh) it->second.requires_refresh = false;
}

}  // namespace

std::size_t PeerTable::home(std::uint64_t key) const {
  return splitmix64(key) & (buckets_.size() - 1);
}

const PeerEntry* PeerTable::lookup(std::uint64_t key) const {
  // key 0 is the empty-bucket sentinel (the invalid omni address).
  if (key == 0 || buckets_.empty()) return nullptr;
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Bucket& b = buckets_[i];
    if (b.key == key) return &entries_[b.idx];
    if (b.key == 0) return nullptr;
  }
}

void PeerTable::grow() {
  const std::size_t cap =
      buckets_.empty() ? kMinBuckets : buckets_.size() * 2;
  buckets_.assign(cap, Bucket{});
  const std::size_t mask = cap - 1;
  for (std::uint32_t idx = 0; idx < entries_.size(); ++idx) {
    std::size_t i = home(entries_[idx].address.value);
    while (buckets_[i].key != 0) i = (i + 1) & mask;
    buckets_[i] = Bucket{entries_[idx].address.value, idx};
  }
}

PeerEntry& PeerTable::get_or_insert(OmniAddress peer) {
  // Grow at 3/4 load so probe runs stay short. Growing up front keeps the
  // insert below free of a mid-probe rehash.
  if ((entries_.size() + 1) * 4 > buckets_.size() * 3) grow();
  const std::size_t mask = buckets_.size() - 1;
  std::size_t i = home(peer.value);
  while (buckets_[i].key != 0) {
    if (buckets_[i].key == peer.value) return entries_[buckets_[i].idx];
    i = (i + 1) & mask;
  }
  buckets_[i] = Bucket{peer.value, static_cast<std::uint32_t>(entries_.size())};
  ++inserts_;
  PeerEntry& entry = entries_.emplace_back();
  entry.address = peer;
  return entry;
}

void PeerTable::erase_entry(std::uint32_t idx) {
  const std::size_t mask = buckets_.size() - 1;
  // Find the victim's bucket.
  std::size_t i = home(entries_[idx].address.value);
  while (buckets_[i].key != entries_[idx].address.value) i = (i + 1) & mask;
  // Backshift deletion: pull forward any probe-chain successor whose home
  // slot lies outside the cyclic gap, so linear probing never needs
  // tombstones.
  std::size_t gap = i;
  for (std::size_t j = (gap + 1) & mask; buckets_[j].key != 0;
       j = (j + 1) & mask) {
    const std::size_t h = home(buckets_[j].key);
    const bool in_gap_chain =
        gap <= j ? (h > gap && h <= j) : (h > gap || h <= j);
    if (in_gap_chain) continue;  // j still reachable from its home via gap+1..
    buckets_[gap] = buckets_[j];
    gap = j;
  }
  buckets_[gap] = Bucket{};
  // Dense swap-pop; re-point the moved entry's bucket at its new index.
  const std::uint32_t last = static_cast<std::uint32_t>(entries_.size() - 1);
  if (idx != last) {
    entries_[idx] = std::move(entries_[last]);
    std::size_t m = home(entries_[idx].address.value);
    while (buckets_[m].key != entries_[idx].address.value) m = (m + 1) & mask;
    buckets_[m].idx = idx;
  }
  entries_.pop_back();
}

void PeerTable::observe(OmniAddress peer, Technology tech, LowLevelAddress low,
                        TimePoint now, bool requires_refresh) {
  if (!peer.is_valid() || is_unset(low)) return;
  const std::uint64_t before = inserts_;
  PeerEntry& entry = get_or_insert(peer);
  if (inserts_ == before) update_interval_hint(entry, now);
  entry.last_seen = now;
  record(entry, tech, std::move(low), now, requires_refresh);
}

void PeerTable::observe_all(OmniAddress peer,
                            std::span<const Sighting> sightings,
                            TimePoint now) {
  if (!peer.is_valid()) return;
  PeerEntry* entry = nullptr;
  for (const Sighting& s : sightings) {
    if (is_unset(s.low)) continue;
    if (entry == nullptr) {
      const std::uint64_t before = inserts_;
      entry = &get_or_insert(peer);
      if (inserts_ == before) update_interval_hint(*entry, now);
      entry->last_seen = now;
    }
    record(*entry, s.tech, s.low, now, s.requires_refresh);
  }
}

void PeerTable::mark_fresh(OmniAddress peer, Technology tech) {
  PeerEntry* entry = lookup(peer.value);
  if (entry == nullptr) return;
  auto tit = entry->techs.find(tech);
  if (tit != entry->techs.end()) tit->second.requires_refresh = false;
}

const PeerEntry* PeerTable::find(OmniAddress peer) const {
  if (!peer.is_valid()) return nullptr;
  return lookup(peer.value);
}

std::optional<OmniAddress> PeerTable::find_by_low_level(
    Technology tech, const LowLevelAddress& low) const {
  // Lowest matching address wins, mirroring the ordered-map era when the
  // first hit in ascending key order was returned.
  std::optional<OmniAddress> best;
  for (const PeerEntry& entry : entries_) {
    auto it = entry.techs.find(tech);
    if (it != entry.techs.end() && it->second.address == low &&
        (!best || entry.address < *best)) {
      best = entry.address;
    }
  }
  return best;
}

std::vector<OmniAddress> PeerTable::peers() const {
  std::vector<OmniAddress> out;
  out.reserve(entries_.size());
  for (const PeerEntry& entry : entries_) out.push_back(entry.address);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<OmniAddress> PeerTable::peers_on(Technology tech, TimePoint now,
                                             Duration ttl) const {
  std::vector<OmniAddress> out;
  for (const PeerEntry& entry : entries_) {
    auto it = entry.techs.find(tech);
    if (it != entry.techs.end() && now - it->second.last_seen <= ttl) {
      out.push_back(entry.address);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool PeerTable::reachable_on_lower_energy(OmniAddress peer, Technology tech,
                                          TimePoint now, Duration ttl) const {
  const PeerEntry* entry = find(peer);
  if (entry == nullptr) return false;
  for (const auto& [t, info] : entry->techs) {
    if (static_cast<int>(t) < static_cast<int>(tech) &&
        now - info.last_seen <= ttl) {
      return true;
    }
  }
  return false;
}

std::size_t PeerTable::expire(TimePoint now, Duration ttl,
                              double hint_ttl_scale) {
  std::size_t removed = 0;
  for (std::uint32_t i = 0; i < entries_.size();) {
    // When asked, scale the horizon by the observed beacon interval: a peer
    // heard every 8 s must not be dropped by a ttl tuned for 500 ms
    // beaconers. The manager passes ttl/floor (the fixed baseline's count of
    // missed-beacon tries) only under the adaptive discovery policy, so a
    // backed-off peer gets the same loss budget as a floor-rate one and
    // fixed-cadence deployments keep the exact plain-ttl sweep.
    const Duration eff =
        hint_ttl_scale > 0.0
            ? std::max(ttl, entries_[i].interval_hint * hint_ttl_scale)
            : ttl;
    TechMap& techs = entries_[i].techs;
    for (auto tit = techs.begin(); tit != techs.end();) {
      if (now - tit->second.last_seen > eff) {
        tit = techs.erase(tit);
      } else {
        ++tit;
      }
    }
    if (techs.empty()) {
      erase_entry(i);  // swap-pop: re-examine the entry now at i
      ++removed;
    } else {
      ++i;
    }
  }
  return removed;
}

}  // namespace omni
