#include "sim/world.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/hash.h"

namespace omni::sim {

double Vec2::norm() const { return std::sqrt(x * x + y * y); }

std::int64_t World::cell_coord(double v) const {
  return static_cast<std::int64_t>(std::floor(v / cell_m_));
}

std::int64_t World::region_coord(std::int64_t cell) const {
  if (region_cells_ == 0) return 0;  // degenerate: one unbounded region
  std::int64_t k = static_cast<std::int64_t>(region_cells_);
  // Floor division for negative cell coordinates.
  return cell >= 0 ? cell / k : -((-cell + k - 1) / k);
}

std::uint32_t World::region_index_at(std::int64_t rx, std::int64_t ry) {
  std::uint64_t key = pack_key(rx, ry);
  auto it = region_index_.find(key);
  if (it != region_index_.end()) return it->second;
  std::uint32_t index = static_cast<std::uint32_t>(regions_.size());
  regions_.emplace_back();
  regions_.back().rx = rx;
  regions_.back().ry = ry;
  region_index_.emplace(key, index);
  return index;
}

std::uint64_t World::tile_key(Vec2 p) const {
  return pack_key(region_coord(cell_coord(p.x)), region_coord(cell_coord(p.y)));
}

const World::Region* World::find_region(std::int64_t rx,
                                        std::int64_t ry) const {
  auto it = region_index_.find(pack_key(rx, ry));
  return it == region_index_.end() ? nullptr : &regions_[it->second];
}

// --- Region-local cell table -------------------------------------------------

std::uint32_t World::cell_head(const Region& r, std::uint64_t key) {
  if (r.cells.empty()) return kNil;
  std::size_t mask = r.cells.size() - 1;
  for (std::size_t i = splitmix64_finalize(key) & mask;; i = (i + 1) & mask) {
    const Region::CellSlot& s = r.cells[i];
    if (s.head == kNil) return kNil;
    if (s.head != kTomb && s.key == key) return s.head;
  }
}

std::uint32_t World::link_alloc(Region& r, NodeId id, std::uint32_t next) {
  if (r.free_link != kNil) {
    std::uint32_t li = r.free_link;
    r.free_link = r.links[li].next;
    r.links[li] = Region::Link{id, next};
    return li;
  }
  r.links.push_back(Region::Link{id, next});
  return static_cast<std::uint32_t>(r.links.size() - 1);
}

void World::cell_grow(Region& r) {
  // Rehash at the larger of 8 slots and 2x the live count; dropping
  // tombstones alone is often enough after heavy churn.
  std::size_t cap = 8;
  while (cap < static_cast<std::size_t>(r.cell_used) * 2) cap <<= 1;
  std::vector<Region::CellSlot> old = std::move(r.cells);
  r.cells.assign(cap, Region::CellSlot{});
  r.cell_tombs = 0;
  std::size_t mask = cap - 1;
  for (const Region::CellSlot& s : old) {
    if (s.head == kNil || s.head == kTomb) continue;
    std::size_t i = splitmix64_finalize(s.key) & mask;
    while (r.cells[i].head != kNil) i = (i + 1) & mask;
    r.cells[i] = s;
  }
}

void World::cell_insert(Region& r, std::uint64_t key, NodeId id) {
  if (r.cells.empty() ||
      (static_cast<std::size_t>(r.cell_used + r.cell_tombs) + 1) * 4 >
          r.cells.size() * 3) {
    cell_grow(r);
  }
  std::size_t mask = r.cells.size() - 1;
  std::size_t tomb = SIZE_MAX;
  std::size_t i = splitmix64_finalize(key) & mask;
  for (;; i = (i + 1) & mask) {
    Region::CellSlot& s = r.cells[i];
    if (s.head == kNil) break;
    if (s.head == kTomb) {
      if (tomb == SIZE_MAX) tomb = i;
    } else if (s.key == key) {
      s.head = link_alloc(r, id, s.head);
      return;
    }
  }
  if (tomb != SIZE_MAX) {
    i = tomb;
    --r.cell_tombs;
  }
  Region::CellSlot& s = r.cells[i];
  s.key = key;
  s.head = link_alloc(r, id, kNil);
  ++r.cell_used;
}

void World::cell_remove(Region& r, std::uint64_t key, NodeId id) {
  std::size_t mask = r.cells.size() - 1;
  for (std::size_t i = splitmix64_finalize(key) & mask;; i = (i + 1) & mask) {
    Region::CellSlot& s = r.cells[i];
    OMNI_ASSERTF(s.head != kNil, "grid cell missing on unbucket (node %u)",
                 static_cast<unsigned>(id));
    if (s.head == kTomb || s.key != key) continue;
    std::uint32_t* p = &s.head;
    while (*p != kNil && r.links[*p].id != id) p = &r.links[*p].next;
    OMNI_ASSERTF(*p != kNil, "node %u missing from its grid cell",
                 static_cast<unsigned>(id));
    std::uint32_t li = *p;
    *p = r.links[li].next;
    r.links[li].next = r.free_link;
    r.free_link = li;
    if (s.head == kNil) {
      s.head = kTomb;
      --r.cell_used;
      ++r.cell_tombs;
    }
    return;
  }
}

// --- Admission ---------------------------------------------------------------

NodeId World::admit(std::string_view name, Vec2 position, bool full_stack) {
  OMNI_CHECK_MSG(sim_.owns_context(kGlobalOwner),
                 "world mutation must be barrier-serialized (global events)");
  NodeId id = static_cast<NodeId>(to_.size());
  name_arena_.append(name);
  name_off_.push_back(static_cast<std::uint32_t>(name_arena_.size()));
  to_.push_back(position);
  motion_of_.push_back(kNil);
  if (full_stack) {
    cache_index_.push_back(static_cast<std::uint32_t>(caches_.size()));
    caches_.emplace_back();
  } else {
    cache_index_.push_back(kNil);
  }
  bucket(id);
  ++topo_epoch_;
  ++structural_epoch_;
  if (full_stack) {
    // Full-stack nodes own events: RNG stream, mailbox lane, and a shard
    // pinned to the home tile so neighborhood traffic stays shard-local.
    sim_.ensure_owner(id);
    sim_.place_owner(id, region_of(id));
  }
  return id;
}

NodeId World::add_node(std::string_view name, Vec2 position) {
  return admit(name, position, /*full_stack=*/true);
}

NodeId World::add_crowd_node(std::string_view name, Vec2 position) {
  return admit(name, position, /*full_stack=*/false);
}

std::string_view World::name(NodeId id) const {
  OMNI_CHECK_MSG(id < to_.size(), "unknown node id");
  return std::string_view(name_arena_).substr(
      name_off_[id], name_off_[id + 1] - name_off_[id]);
}

std::uint32_t World::region_of(NodeId id) const {
  OMNI_ASSERTF(id < to_.size(), "unknown node id %u",
               static_cast<unsigned>(id));
  auto it = region_index_.find(tile_key(to_[id]));
  OMNI_ASSERTF(it != region_index_.end(),
               "home tile of node %u missing (its endpoint is always listed)",
               static_cast<unsigned>(id));
  return it->second;
}

// --- Motion ------------------------------------------------------------------

World::Segment World::segment(NodeId id) const {
  const std::uint32_t mi = motion_of_[id];
  if (mi == kNil) return Segment{to_[id], to_[id], TimePoint{}, TimePoint{}};
  const Motion& m = motions_[mi];
  return Segment{m.from, to_[id], m.depart, m.arrive};
}

void World::set_segment(NodeId id, const Segment& seg) {
  to_[id] = seg.to;
  std::uint32_t& mi = motion_of_[id];
  if (seg.from == seg.to && seg.depart == seg.arrive) {
    if (mi != kNil) {
      free_motions_.push_back(mi);
      mi = kNil;
    }
    return;
  }
  if (mi == kNil) {
    if (free_motions_.empty()) {
      mi = static_cast<std::uint32_t>(motions_.size());
      motions_.emplace_back();
    } else {
      mi = free_motions_.back();
      free_motions_.pop_back();
    }
  }
  motions_[mi] = Motion{seg.from, seg.depart, seg.arrive};
}

void World::resegment(NodeId id, const Segment& seg) {
  unbucket(id);
  if (tile_key(to_[id]) != tile_key(seg.to)) ++migrations_;
  set_segment(id, seg);
  if (seg.arrive > moving_until_) moving_until_ = seg.arrive;
  bucket(id);
  ++topo_epoch_;
}

Vec2 World::position(NodeId id) const {
  OMNI_ASSERTF(id < to_.size(), "unknown node id %u",
               static_cast<unsigned>(id));
  Vec2 to = to_[id];
  const std::uint32_t mi = motion_of_[id];
  if (mi == kNil) return to;
  const Motion& m = motions_[mi];
  if (m.arrive == m.depart) return to;
  TimePoint now = sim_.now();
  if (now >= m.arrive) return to;
  double total = (m.arrive - m.depart).as_seconds();
  double done = (now - m.depart).as_seconds();
  double f = total > 0 ? done / total : 1.0;
  return m.from + (to - m.from) * f;
}

void World::set_position(NodeId id, Vec2 position) {
  OMNI_CHECK_MSG(sim_.owns_context(kGlobalOwner),
                 "world mutation must be barrier-serialized (global events)");
  OMNI_CHECK_MSG(id < to_.size(), "unknown node id");
  resegment(id, Segment{position, position, sim_.now(), sim_.now()});
}

void World::move_to(NodeId id, Vec2 target, double speed_mps) {
  OMNI_CHECK_MSG(sim_.owns_context(kGlobalOwner),
                 "world mutation must be barrier-serialized (global events)");
  OMNI_CHECK_MSG(speed_mps > 0, "move_to requires positive speed");
  OMNI_CHECK_MSG(id < to_.size(), "unknown node id");
  Vec2 start = position(id);
  double dist = Vec2::distance(start, target);
  resegment(id, Segment{start, target, sim_.now(),
                        sim_.now() + Duration::seconds(dist / speed_mps)});
}

double World::distance(NodeId a, NodeId b) const {
  return Vec2::distance(position(a), position(b));
}

// --- Grid maintenance --------------------------------------------------------

void World::bucket(NodeId id) {
  const Segment seg = segment(id);
  std::int64_t cx0 = cell_coord(std::min(seg.from.x, seg.to.x));
  std::int64_t cx1 = cell_coord(std::max(seg.from.x, seg.to.x));
  std::int64_t cy0 = cell_coord(std::min(seg.from.y, seg.to.y));
  std::int64_t cy1 = cell_coord(std::max(seg.from.y, seg.to.y));
  for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      Region& r = regions_[region_index_at(region_coord(cx), region_coord(cy))];
      cell_insert(r, pack_key(cx, cy), id);
      ++r.epoch;
    }
  }
}

void World::unbucket(NodeId id) {
  // The listed cell set is a pure function of the current segment, so it is
  // recomputed instead of stored per node; every mutator unbuckets before
  // touching the segment.
  const Segment seg = segment(id);
  std::int64_t cx0 = cell_coord(std::min(seg.from.x, seg.to.x));
  std::int64_t cx1 = cell_coord(std::max(seg.from.x, seg.to.x));
  std::int64_t cy0 = cell_coord(std::min(seg.from.y, seg.to.y));
  std::int64_t cy1 = cell_coord(std::max(seg.from.y, seg.to.y));
  for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      auto it = region_index_.find(pack_key(region_coord(cx), region_coord(cy)));
      OMNI_CHECK_MSG(it != region_index_.end(), "listed region missing");
      Region& r = regions_[it->second];
      cell_remove(r, pack_key(cx, cy), id);
      ++r.epoch;
    }
  }
}

void World::repartition() {
  regions_.clear();
  region_index_.clear();
  for (NodeId id = 0; id < to_.size(); ++id) bucket(id);
  ++topo_epoch_;
  ++structural_epoch_;
}

void World::set_grid_cell_size(double meters) {
  OMNI_CHECK_MSG(sim_.owns_context(kGlobalOwner),
                 "world mutation must be barrier-serialized (global events)");
  OMNI_CHECK_MSG(meters > 0, "grid cell size must be positive");
  if (meters == cell_m_) return;
  cell_m_ = meters;
  repartition();
}

void World::set_region_cells(std::uint32_t cells) {
  OMNI_CHECK_MSG(sim_.owns_context(kGlobalOwner),
                 "world mutation must be barrier-serialized (global events)");
  if (cells == region_cells_) return;
  region_cells_ = cells;
  repartition();
}

// --- Queries -----------------------------------------------------------------

void World::nodes_in_disc(Vec2 center, double range,
                          std::vector<NodeId>& out) const {
  out.clear();
  if (range < 0) return;
  // Squared-distance filter: one multiply per candidate instead of a sqrt.
  double range_sq = range * range;
  auto within = [&](NodeId id) {
    Vec2 d = position(id) - center;
    return d.x * d.x + d.y * d.y <= range_sq;
  };
  std::int64_t cx0 = cell_coord(center.x - range);
  std::int64_t cx1 = cell_coord(center.x + range);
  std::int64_t cy0 = cell_coord(center.y - range);
  std::int64_t cy1 = cell_coord(center.y + range);
  // Very large query discs degenerate to a full scan: cheaper than probing
  // more cells than there are nodes.
  std::uint64_t cells = static_cast<std::uint64_t>(cx1 - cx0 + 1) *
                        static_cast<std::uint64_t>(cy1 - cy0 + 1);
  if (cells >= to_.size()) {
    for (NodeId id = 0; id < to_.size(); ++id) {
      if (within(id)) out.push_back(id);
    }
    return;
  }
  // Walk the overlapped region tiles; within each, probe only the cells of
  // the query rectangle clipped to that tile.
  std::int64_t k = static_cast<std::int64_t>(region_cells_);
  std::int64_t rx0 = region_coord(cx0), rx1 = region_coord(cx1);
  std::int64_t ry0 = region_coord(cy0), ry1 = region_coord(cy1);
  for (std::int64_t ry = ry0; ry <= ry1; ++ry) {
    for (std::int64_t rx = rx0; rx <= rx1; ++rx) {
      const Region* r = find_region(rx, ry);
      if (r == nullptr || r->cells.empty()) continue;
      std::int64_t bx0 = cx0, bx1 = cx1, by0 = cy0, by1 = cy1;
      if (region_cells_ != 0) {
        bx0 = std::max(bx0, rx * k);
        bx1 = std::min(bx1, rx * k + k - 1);
        by0 = std::max(by0, ry * k);
        by1 = std::min(by1, ry * k + k - 1);
      }
      for (std::int64_t cy = by0; cy <= by1; ++cy) {
        for (std::int64_t cx = bx0; cx <= bx1; ++cx) {
          for (std::uint32_t li = cell_head(*r, pack_key(cx, cy)); li != kNil;
               li = r->links[li].next) {
            NodeId id = r->links[li].id;
            if (within(id)) out.push_back(id);
          }
        }
      }
    }
  }
  // A moving node is listed in every cell its segment overlaps; sort and
  // drop duplicates so callers see each node once, ascending by id.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::uint64_t World::neighborhood_epoch(Vec2 center, double range) const {
  if (range < 0) return structural_epoch_;
  std::int64_t cx0 = cell_coord(center.x - range);
  std::int64_t cx1 = cell_coord(center.x + range);
  std::int64_t cy0 = cell_coord(center.y - range);
  std::int64_t cy1 = cell_coord(center.y + range);
  std::uint64_t cells = static_cast<std::uint64_t>(cx1 - cx0 + 1) *
                        static_cast<std::uint64_t>(cy1 - cy0 + 1);
  std::int64_t rx0 = region_coord(cx0), rx1 = region_coord(cx1);
  std::int64_t ry0 = region_coord(cy0), ry1 = region_coord(cy1);
  std::uint64_t tiles = static_cast<std::uint64_t>(rx1 - rx0 + 1) *
                        static_cast<std::uint64_t>(ry1 - ry0 + 1);
  // Full-scan regime (disc covers the world) or a pathologically wide disc:
  // fall back to the coarse global epoch — over-invalidation is always
  // correct, unbounded tile walks are not.
  if (cells >= to_.size() || tiles > 256) {
    return structural_epoch_ + topo_epoch_;
  }
  // Each region's epoch only ever grows, so the sum over a fixed tile set is
  // strictly monotonic; a tile gaining its first listing bumps its epoch
  // above the 0 an absent tile contributes. Callers additionally compare the
  // disc center, which pins the tile set itself.
  std::uint64_t e = structural_epoch_;
  for (std::int64_t ry = ry0; ry <= ry1; ++ry) {
    for (std::int64_t rx = rx0; rx <= rx1; ++rx) {
      const Region* r = find_region(rx, ry);
      if (r != nullptr) e += r->epoch;
    }
  }
  return e;
}

void World::nodes_near(NodeId of, double range,
                       std::vector<NodeId>& out) const {
  // The per-node cache below is written through a const method. That is safe
  // under the parallel engine only because each node's cache has a single
  // writer: shard events may consult *their own* node's cache (a BLE
  // broadcast queries the transmitting node's cache on that node's shard),
  // and everything else, the WiFi and NAN fan-outs included, runs
  // barrier-serialized. Enforce the contract rather than document it.
  OMNI_ASSERTF(sim_.owns_context(of),
               "nodes_near(%u): concurrent contexts may only query their own "
               "node's neighbor cache",
               static_cast<unsigned>(of));
  OMNI_ASSERTF(of < to_.size(), "unknown node id %u",
               static_cast<unsigned>(of));
  if (sim_.now() < moving_until_) {
    // Some motion segment may still be in flight: positions interpolate, so
    // cached neighbor sets can silently rot. Query the grid directly.
    nodes_in_disc(position(of), range, out);
    return;
  }
  // World static: every node sits at its segment endpoint (`to`).
  Vec2 home = to_[of];
  std::uint32_t ci = cache_index_[of];
  if (ci == kNil) {
    // Crowd nodes carry no cache slot (they own no events, so nothing beacons
    // from them periodically anyway).
    nodes_in_disc(home, range, out);
    return;
  }
  NearCache& cache = caches_[ci];
  std::uint64_t nb = neighborhood_epoch(home, range);
  if (cache.nb_epoch != nb || cache.range != range ||
      !(cache.center == home)) {
    nodes_in_disc(home, range, cache.ids);
    cache.nb_epoch = nb;
    cache.range = range;
    cache.center = home;
  }
  out.assign(cache.ids.begin(), cache.ids.end());
}

void World::neighbors(NodeId of, double range,
                      std::vector<NodeId>& out) const {
  nodes_in_disc(position(of), range, out);
  out.erase(std::remove(out.begin(), out.end(), of), out.end());
}

std::vector<NodeId> World::neighbors(NodeId of, double range) const {
  std::vector<NodeId> out;
  neighbors(of, range, out);
  return out;
}

// --- Snapshot ----------------------------------------------------------------

void World::snapshot_rows(std::vector<SnapshotRow>& out) const {
  out.clear();
  out.reserve(to_.size());
  for (NodeId id = 0; id < to_.size(); ++id) {
    const Segment seg = segment(id);
    out.push_back(SnapshotRow{id, cache_index_[id] != kNil, seg.from, seg.to,
                              seg.depart, seg.arrive});
  }
}

// --- Telemetry ---------------------------------------------------------------

World::MemoryStats World::memory_stats() const {
  MemoryStats m;
  m.hot_bytes = to_.capacity() * sizeof(Vec2) +
                motion_of_.capacity() * sizeof(std::uint32_t) +
                motions_.capacity() * sizeof(Motion) +
                free_motions_.capacity() * sizeof(std::uint32_t);
  for (const Region& r : regions_) {
    m.grid_bytes += r.cells.capacity() * sizeof(Region::CellSlot) +
                    r.links.capacity() * sizeof(Region::Link);
  }
  m.name_bytes = name_arena_.capacity() +
                 name_off_.capacity() * sizeof(std::uint32_t);
  for (const NearCache& c : caches_) {
    m.cache_bytes += sizeof(NearCache) + c.ids.capacity() * sizeof(NodeId);
  }
  m.cache_bytes += caches_.capacity() * sizeof(NearCache) -
                   caches_.size() * sizeof(NearCache);
  m.directory_bytes = cache_index_.capacity() * sizeof(std::uint32_t) +
                      regions_.capacity() * sizeof(Region) +
                      region_index_.size() *
                          (sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                           2 * sizeof(void*));
  return m;
}

}  // namespace omni::sim
