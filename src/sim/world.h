// Spatial model: node positions, motion, and range queries, sharded into
// spatial region tiles so city-scale worlds (100k+ nodes) stay affordable.
//
// Radios ask the world which peers are within their technology's range. The
// world supports static placement, instantaneous teleports, and linear
// waypoint motion (position is interpolated lazily — no per-tick events).
//
// Per-node state is flat and indexed by NodeId: every node keeps its motion
// segment's endpoint (`to`), and only a node whose segment is not a point
// (from != to or depart != arrive: it has walked) keeps a motion row
// (`from/depart/arrive`) in a recycled side table. A node that never moved,
// or was teleported, costs its endpoint and a row index. Names live in one
// interned arena, so there is no per-node std::string or std::vector.
//
// The plane is partitioned into square region tiles (side = region_cells ×
// grid cells). A tile holds only a spatial hash grid and an epoch: a flat
// open-addressing cell table whose cells head intrusive chains through a
// link pool. A node is listed in every cell of its segment's bounding box,
// which may span several tiles; queries intersect the search rectangle with
// each overlapped tile and probe only that tile's table. A node's home tile
// is the one containing its endpoint: region_of() resolves it, and
// migrations() counts the mutations that change it.
//
// Nodes come in two flavors:
//   * add_node — a full-stack device: registered as an event owner (RNG
//     stream, mailbox lane, shard placement by home tile) with an eager
//     nodes_near cache slot;
//   * add_crowd_node — background population: world state only. Crowd
//     nodes appear in every range query but own no events, no RNG stream,
//     and no cache, which is what keeps an idle node under 64 B.
//
// Concurrency contract (parallel engine): all mutation — add_node, teleports,
// move_to, regrids — must run in barrier-serialized global events; const
// queries (position, distance, nodes_in_disc) may then run concurrently from
// shard events, since grid chains and motion segments are stable inside a
// window. nodes_near is the one exception: it lazily writes a per-node
// cache, so concurrent contexts may only call it for their own node
// (single-writer; cache slots are allocated eagerly at admission so a hit or
// rebuild never reallocates shared storage). Both rules are enforced with
// checks against the simulator's execution context.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace omni::sim {

class FaultPlan;

struct Vec2 {
  double x = 0;
  double y = 0;

  Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  Vec2 operator*(double k) const { return {x * k, y * k}; }
  bool operator==(const Vec2&) const = default;

  double norm() const;
  static double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }
};

class World {
 public:
  /// Default grid cell size: matches the largest calibrated radio range
  /// (wifi/nan 100 m), so a range query touches at most ~9 cells.
  static constexpr double kDefaultCellM = 100.0;
  /// Default region side, in grid cells. 8 cells ≈ 8 radio ranges per tile:
  /// big enough that a range query rarely crosses more than one boundary,
  /// small enough that a city-scale world spreads over many shards.
  static constexpr std::uint32_t kDefaultRegionCells = 8;

  explicit World(Simulator& sim, double grid_cell_m = kDefaultCellM,
                 std::uint32_t region_cells = kDefaultRegionCells)
      : sim_(sim), cell_m_(grid_cell_m), region_cells_(region_cells) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Change the grid cell size (e.g. to the deployment's max radio range)
  /// and rebuild every region. Any positive size is correct; sizes near the
  /// dominant query range are fastest.
  void set_grid_cell_size(double meters);
  double grid_cell_size() const { return cell_m_; }

  /// Change the region tile side (in grid cells) and repartition the world.
  /// 0 means a single unbounded region — the degenerate configuration that
  /// reproduces the pre-region flat world exactly (used by the golden-trace
  /// equivalence tests). Like every mutation, barrier-serialized only.
  void set_region_cells(std::uint32_t cells);
  std::uint32_t region_cells() const { return region_cells_; }

  /// Register a full-stack node at a position; returns its id. The node
  /// becomes an event owner (ensure_owner) and is placed on the shard of its
  /// home tile (place_owner).
  NodeId add_node(std::string_view name, Vec2 position);

  /// Register a background-population node: world state only — no event
  /// ownership, no RNG stream, no neighbor cache. Crowd nodes show up in
  /// every range query and can be moved like any other node; they just
  /// cannot own events.
  NodeId add_crowd_node(std::string_view name, Vec2 position);

  std::size_t node_count() const { return to_.size(); }
  std::string_view name(NodeId id) const;

  /// Current (interpolated) position.
  Vec2 position(NodeId id) const;

  /// Teleport the node immediately.
  void set_position(NodeId id, Vec2 position);

  /// Begin a linear move toward `target` at `speed` m/s, replacing any
  /// in-progress move. Completes silently; position() interpolates.
  void move_to(NodeId id, Vec2 target, double speed_mps);

  /// Distance between two nodes now.
  double distance(NodeId a, NodeId b) const;

  /// True if nodes are within `range` meters of each other.
  bool in_range(NodeId a, NodeId b, double range) const {
    return distance(a, b) <= range;
  }

  /// All nodes (other than `of`) within `range` meters, appended to `out`
  /// ascending by id (`out` is cleared first). Mirrors nodes_in_disc; hot
  /// paths pass a reused scratch vector to stay allocation-free.
  void neighbors(NodeId of, double range, std::vector<NodeId>& out) const;

  /// Allocating convenience overload of the above. Prefer the out-param
  /// form anywhere called more than once.
  std::vector<NodeId> neighbors(NodeId of, double range) const;

  /// All nodes within `range` of `center` (including any node exactly at
  /// it), appended to `out` ascending by id. `out` is cleared first; hot
  /// paths pass a reused scratch vector to stay allocation-free.
  void nodes_in_disc(Vec2 center, double range,
                     std::vector<NodeId>& out) const;

  /// nodes_in_disc centred on node `of`'s current position (node itself
  /// included). Equivalent to nodes_in_disc(position(of), range, out), but
  /// while the world is static — no motion segment still in flight — the
  /// result is served from a per-node cache invalidated by changes to the
  /// overlapped regions only, so periodic fan-out (beacons every 500 ms)
  /// skips the grid walk and survives churn in distant regions. It is the
  /// stack's one neighbor cache: the radio media keep none of their own.
  void nodes_near(NodeId of, double range, std::vector<NodeId>& out) const;

  /// Epoch fingerprint of the neighborhood of `center` within `range`:
  /// changes whenever the occupancy or positions of any overlapped region
  /// change (or on any structural change — admissions, regrids,
  /// repartitions), and is stable under churn elsewhere. nodes_near's
  /// per-node cache revalidates with (center, range, fingerprint). A match
  /// pins positions only together with is_static(): a motion segment in
  /// flight moves positions continuously without epoch bumps.
  std::uint64_t neighborhood_epoch(Vec2 center, double range) const;

  /// True when every position() is time-invariant (no motion in flight).
  bool is_static(TimePoint now) const { return now >= moving_until_; }

  /// Region introspection (telemetry; bench_scale reports all three).
  /// region_of is the index of the node's home tile (the one containing its
  /// segment endpoint); migrations counts the mutations that changed it.
  std::size_t region_count() const { return regions_.size(); }
  std::uint64_t migrations() const { return migrations_; }
  std::uint32_t region_of(NodeId id) const;

  /// Capacity-accounted footprint of the world's own storage (excludes the
  /// simulator, radios, and middleware). The scale bench divides total() by
  /// node_count() to police the per-node world budget.
  struct MemoryStats {
    std::size_t hot_bytes = 0;        ///< endpoints + motion rows
    std::size_t grid_bytes = 0;       ///< cell tables + link pools
    std::size_t name_bytes = 0;       ///< interned name arena + offsets
    std::size_t cache_bytes = 0;      ///< per-device nodes_near caches
    std::size_t directory_bytes = 0;  ///< cache index + region index
    std::size_t total() const {
      return hot_bytes + grid_bytes + name_bytes + cache_bytes +
             directory_bytes;
    }
  };
  MemoryStats memory_stats() const;

  /// One node's motion row for snapshot capture (sim/snapshot.h). Rows are
  /// the world's complete per-node logical state — names, grids, and
  /// nodes_near caches are all rebuilt/derived, never serialized.
  struct SnapshotRow {
    NodeId id = kInvalidNode;
    bool full_stack = false;  ///< add_node (true) vs add_crowd_node
    Vec2 from;
    Vec2 to;
    TimePoint depart;
    TimePoint arrive;
  };

  /// Append every node's row, ascending by id (out is cleared first).
  /// Quiescent/global contexts only, like every other bulk read.
  void snapshot_rows(std::vector<SnapshotRow>& out) const;

  Simulator& simulator() { return sim_; }

  /// Arm (or disarm with nullptr) fault injection: media consult this plan
  /// on every delivery. Must be set from a quiescent/global context; the
  /// plan's delivery queries are const and safe from concurrent shards.
  void set_fault_plan(const FaultPlan* plan) { fault_plan_ = plan; }
  const FaultPlan* fault_plan() const { return fault_plan_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;   ///< empty slot / end
  static constexpr std::uint32_t kTomb = 0xfffffffeu;  ///< deleted cell

  /// A region tile: the grid listings of its cells and an epoch. Node state
  /// lives in the world's flat per-node vectors, not in the tile.
  struct Region {
    std::int64_t rx = 0;  ///< tile coordinate (cell coords / region_cells)
    std::int64_t ry = 0;
    /// Bumped whenever a listing in the tile changes (every mutation lists
    /// and unlists its node); the component of neighborhood_epoch()
    /// contributed by this region.
    std::uint64_t epoch = 1;

    // Open-addressing cell table (power-of-two, linear probing, tombstones)
    // heading intrusive chains through `links`.
    struct CellSlot {
      std::uint64_t key = 0;
      std::uint32_t head = kNil;  ///< link index, kNil (empty), kTomb
    };
    struct Link {
      NodeId id = kInvalidNode;
      std::uint32_t next = kNil;  ///< chain link, or free-list link
    };
    std::vector<CellSlot> cells;
    std::uint32_t cell_used = 0;   ///< live cells (excludes tombstones)
    std::uint32_t cell_tombs = 0;
    std::vector<Link> links;
    std::uint32_t free_link = kNil;
  };

  /// The part of a motion segment that a point does not need. A node holds
  /// one only while its segment is not a point (see set_segment).
  struct Motion {
    Vec2 from;
    TimePoint depart;
    TimePoint arrive;
  };
  struct Segment {
    Vec2 from;
    Vec2 to;
    TimePoint depart;
    TimePoint arrive;
  };

  /// nodes_near cache, one eager slot per full-stack node. Valid while the
  /// neighborhood fingerprint, range, and home position all match.
  struct NearCache {
    std::uint64_t nb_epoch = 0;
    double range = -1.0;
    Vec2 center;
    std::vector<NodeId> ids;
  };

  /// Cell keys pack two coordinates, so the cell tables hash them
  /// through splitmix64_finalize: low bits alone would collide across rows.
  static std::uint64_t pack_key(std::int64_t a, std::int64_t b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(b));
  }
  static std::uint32_t cell_head(const Region& r, std::uint64_t key);
  static std::uint32_t link_alloc(Region& r, NodeId id, std::uint32_t next);
  static void cell_grow(Region& r);
  static void cell_insert(Region& r, std::uint64_t key, NodeId id);
  static void cell_remove(Region& r, std::uint64_t key, NodeId id);

  std::int64_t cell_coord(double v) const;
  std::int64_t region_coord(std::int64_t cell) const;
  /// Index of the region tile at (rx, ry), creating it if absent. May
  /// reallocate regions_ — never hold a Region& across a call.
  std::uint32_t region_index_at(std::int64_t rx, std::int64_t ry);
  /// Key (in region_index_) of the tile containing `p`.
  std::uint64_t tile_key(Vec2 p) const;
  const Region* find_region(std::int64_t rx, std::int64_t ry) const;

  NodeId admit(std::string_view name, Vec2 position, bool full_stack);
  Segment segment(NodeId id) const;
  /// Store a node's segment: the endpoint always, the motion row only while
  /// the segment is not a point (from == to and depart == arrive, the test
  /// the world capture applies); a point releases the node's row for reuse.
  void set_segment(NodeId id, const Segment& seg);
  /// Replace a node's segment: unlist it, count a home-tile change, store
  /// the new segment, relist it.
  void resegment(NodeId id, const Segment& seg);
  /// List the node under every cell overlapped by the axis-aligned bounding
  /// box of its current motion segment (a point for static nodes). unbucket
  /// recomputes the same cell set from the segment, so it must run before
  /// the segment is mutated.
  void bucket(NodeId id);
  void unbucket(NodeId id);
  /// Rebuild every region from scratch (cell size or region size changed).
  void repartition();

  Simulator& sim_;
  double cell_m_;
  std::uint32_t region_cells_;
  std::vector<Region> regions_;  ///< indices are stable (never erased)
  std::unordered_map<std::uint64_t, std::uint32_t> region_index_;

  // Per-node segments: to_[node] is the endpoint (the position of a static
  // node); motion_of_[node] indexes motions_, kNil for a point segment.
  // Rows released by points are reused from free_motions_.
  std::vector<Vec2> to_;
  std::vector<std::uint32_t> motion_of_;
  std::vector<Motion> motions_;
  std::vector<std::uint32_t> free_motions_;

  // Interned names: one arena, offsets per node (name i spans
  // [name_off_[i], name_off_[i+1])).
  std::string name_arena_;
  std::vector<std::uint32_t> name_off_{0};

  // nodes_near caches: cache_index_[node] indexes caches_, kNil for crowd
  // nodes. Slots are allocated at admission (global context), so shard-time
  // queries only ever write their own pre-existing entry.
  std::vector<std::uint32_t> cache_index_;
  mutable std::vector<NearCache> caches_;

  // Bumped on every topology change (add/teleport/move/regrid); the
  // fingerprint neighborhood_epoch() falls back to for a disc too wide to
  // fold tile by tile.
  std::uint64_t topo_epoch_ = 1;
  // Bumped on admissions, regrids, and repartitions only — the
  // region-set-independent component of neighborhood_epoch().
  std::uint64_t structural_epoch_ = 1;
  std::uint64_t migrations_ = 0;
  // Latest arrival time of any motion segment ever started; the world is
  // static (every position() is constant) once now >= moving_until_.
  TimePoint moving_until_ = TimePoint{};
  // Non-owning; armed by the testbed when a scenario declares faults.
  const FaultPlan* fault_plan_ = nullptr;
};

}  // namespace omni::sim
