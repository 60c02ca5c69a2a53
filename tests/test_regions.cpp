// Region-sharded world: boundary correctness, home-tile changes
// (migrations), degenerate single-region equivalence, exactness against the
// test's own record of every segment, and determinism of tile-crossing walks
// under the parallel engine. The 10k churn smoke at the bottom is what
// `ctest -L scale` (the CI scale job) runs alongside
// `bench_scale 10000 --smoke`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/testbed.h"
#include "scenario/scenario.h"
#include "sim/mobility.h"
#include "sim/snapshot.h"
#include "sim/world.h"

namespace omni::sim {
namespace {

// Oracle: O(n) scan with the exact distance test (matches the disc query's
// inclusive <= and ascending-id order).
std::vector<NodeId> brute_disc(const World& world, Vec2 center, double range) {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < world.node_count(); ++id) {
    if (Vec2::distance(world.position(id), center) <= range)
      out.push_back(id);
  }
  return out;
}

TEST(RegionTest, BoundaryStraddlersMatchBruteForce) {
  Simulator sim;
  // 40 m cells, 2-cell regions: tile edges every 80 m, so the scatter below
  // crosses many region boundaries.
  World world(sim, /*grid_cell_m=*/40.0, /*region_cells=*/2);
  // Nodes exactly on tile edges and corners, on both sides of the origin.
  world.add_node("edge-x", {80.0, 10.0});
  world.add_node("edge-y", {10.0, 80.0});
  world.add_node("corner", {80.0, 80.0});
  world.add_node("neg-corner", {-80.0, -80.0});
  world.add_node("origin", {0.0, 0.0});
  // Pseudo-random scatter over several tiles, including negative coords.
  std::uint64_t s = 9177;
  auto next = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((s >> 33) % 6000) / 10.0 - 200.0;  // [-200,400)
  };
  for (int i = 0; i < 120; ++i) {
    world.add_node("n" + std::to_string(i), {next(), next()});
  }
  EXPECT_GT(world.region_count(), 4u);
  std::vector<NodeId> got;
  for (double range : {15.0, 80.0, 90.0, 250.0}) {
    for (Vec2 center : {Vec2{80, 80}, Vec2{79.9, 80.1}, Vec2{0, 0},
                        Vec2{-80, 40}, Vec2{160, 160}, Vec2{35, -70}}) {
      world.nodes_in_disc(center, range, got);
      EXPECT_EQ(got, brute_disc(world, center, range))
          << "center=(" << center.x << "," << center.y
          << ") range=" << range;
    }
  }
}

TEST(RegionTest, DegenerateSingleRegionMatchesRegioned) {
  Simulator sim_a;
  Simulator sim_b;
  World regioned(sim_a, /*grid_cell_m=*/40.0, /*region_cells=*/2);
  World degenerate(sim_b, /*grid_cell_m=*/40.0, /*region_cells=*/0);
  std::uint64_t s = 4711;
  auto next = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((s >> 33) % 5000) / 10.0;  // [0, 500)
  };
  for (int i = 0; i < 100; ++i) {
    Vec2 p{next(), next()};
    regioned.add_node("n" + std::to_string(i), p);
    degenerate.add_node("n" + std::to_string(i), p);
  }
  EXPECT_EQ(degenerate.region_count(), 1u);
  EXPECT_GT(regioned.region_count(), 1u);
  std::vector<NodeId> a, b;
  for (double range : {30.0, 120.0, 500.0}) {
    for (NodeId of = 0; of < regioned.node_count(); of += 5) {
      regioned.neighbors(of, range, a);
      degenerate.neighbors(of, range, b);
      EXPECT_EQ(a, b) << "of=" << of << " range=" << range;
    }
  }
}

TEST(RegionTest, SetRegionCellsRepartitionsInPlace) {
  Simulator sim;
  World world(sim, /*grid_cell_m=*/40.0);  // default 8-cell regions
  for (int i = 0; i < 60; ++i) {
    world.add_node("n" + std::to_string(i),
                   {static_cast<double>(i * 17 % 700),
                    static_cast<double>(i * 31 % 700)});
  }
  std::vector<NodeId> before, after;
  world.nodes_in_disc({350, 350}, 200.0, before);

  world.set_region_cells(0);  // collapse to the degenerate single region
  EXPECT_EQ(world.region_count(), 1u);
  world.nodes_in_disc({350, 350}, 200.0, after);
  EXPECT_EQ(before, after);

  world.set_region_cells(2);  // re-shard into 80 m tiles
  EXPECT_GT(world.region_count(), 1u);
  world.nodes_in_disc({350, 350}, 200.0, after);
  EXPECT_EQ(before, after);
}

TEST(RegionTest, TeleportChangesHomeTile) {
  Simulator sim;
  World world(sim, /*grid_cell_m=*/100.0, /*region_cells=*/2);  // 200 m tiles
  NodeId a = world.add_node("a", {10, 10});
  NodeId b = world.add_node("b", {20, 20});
  NodeId c = world.add_node("c", {30, 30});
  EXPECT_EQ(world.region_of(a), world.region_of(b));
  EXPECT_EQ(world.region_of(b), world.region_of(c));
  EXPECT_EQ(world.migrations(), 0u);

  // Teleport the first-admitted node out of the tile it shares with the
  // others: its home tile changes, theirs does not.
  world.set_position(a, {510, 510});
  EXPECT_EQ(world.migrations(), 1u);
  EXPECT_NE(world.region_of(a), world.region_of(b));
  EXPECT_EQ(world.name(a), "a");
  EXPECT_EQ(world.name(b), "b");
  EXPECT_EQ(world.position(b), (Vec2{20, 20}));
  EXPECT_EQ(world.position(c), (Vec2{30, 30}));
  std::vector<NodeId> got;
  world.nodes_in_disc({25, 25}, 50.0, got);
  EXPECT_EQ(got, (std::vector<NodeId>{b, c}));
  world.nodes_in_disc({510, 510}, 50.0, got);
  EXPECT_EQ(got, (std::vector<NodeId>{a}));

  world.set_position(a, {15, 15});  // and home again
  EXPECT_EQ(world.migrations(), 2u);
  EXPECT_EQ(world.region_of(a), world.region_of(b));
  world.nodes_in_disc({20, 20}, 50.0, got);
  EXPECT_EQ(got, (std::vector<NodeId>{a, b, c}));
}

TEST(RegionTest, WalksMigrateAcrossSuccessiveRegions) {
  Simulator sim;
  World world(sim, /*grid_cell_m=*/100.0, /*region_cells=*/2);  // 200 m tiles
  NodeId a = world.add_node("a", {10, 0});
  NodeId w = world.add_node("watcher", {390, 0});
  std::uint32_t home = world.region_of(a);

  // Leg 1 crosses the x=200 tile edge. The home tile follows the segment's
  // target, so it changes when the walk starts.
  world.move_to(a, {210, 0}, 10.0);
  EXPECT_EQ(world.migrations(), 1u);
  std::uint32_t mid = world.region_of(a);
  EXPECT_NE(mid, home);

  // Mid-walk, both sides of the boundary must see the walker at its
  // interpolated position (conservative grid listing spans the segment).
  sim.run_for(Duration::seconds(10));  // a is at x=110
  std::vector<NodeId> got;
  world.nodes_in_disc({100, 0}, 20.0, got);
  EXPECT_EQ(got, (std::vector<NodeId>{a}));
  EXPECT_EQ(got, brute_disc(world, {100, 0}, 20.0));

  sim.run_for(Duration::seconds(10));  // arrival at (210, 0)

  // Leg 2 crosses the x=400 edge into a third region.
  world.move_to(a, {410, 0}, 10.0);
  EXPECT_EQ(world.migrations(), 2u);
  EXPECT_NE(world.region_of(a), mid);
  EXPECT_NE(world.region_of(a), home);
  sim.run_for(Duration::seconds(20));
  world.neighbors(w, 30.0, got);
  EXPECT_EQ(got, (std::vector<NodeId>{a}));
}

TEST(RegionTest, CrowdNodesQueryableAndWithinBudget) {
  Simulator sim;
  World world(sim, /*grid_cell_m=*/100.0, /*region_cells=*/4);
  NodeId device = world.add_node("device", {0, 0});
  for (int i = 0; i < 2000; ++i) {
    world.add_crowd_node("c" + std::to_string(i),
                         {static_cast<double>(i % 50) * 25.0,
                          static_cast<double>(i / 50) * 25.0});
  }
  // Crowd nodes are first-class query citizens...
  std::vector<NodeId> got;
  world.nodes_near(device, 60.0, got);
  EXPECT_EQ(got, brute_disc(world, {0, 0}, 60.0));
  EXPECT_GT(got.size(), 1u);
  // ...can move (and change home tile) like any node...
  NodeId crowd = 1;
  world.set_position(crowd, {2000, 2000});
  EXPECT_GT(world.migrations(), 0u);
  world.nodes_in_disc({2000, 2000}, 10.0, got);
  EXPECT_EQ(got, (std::vector<NodeId>{crowd}));
  // ...and the world layer's per-node footprint stays within the idle-node
  // budget: an endpoint and a row index per node, plus its names and
  // listings, with vector growth slack.
  World::MemoryStats ms = world.memory_stats();
  EXPECT_LT(static_cast<double>(ms.total()) /
                static_cast<double>(world.node_count()),
            64.0);
  EXPECT_EQ(ms.cache_bytes > 0, true);  // the one device has a cache slot
}

TEST(RegionTest, NeighborsOutParamMatchesAllocating) {
  Simulator sim;
  World world(sim, /*grid_cell_m=*/40.0, /*region_cells=*/2);
  NodeId a = world.add_node("a", {0, 0});
  world.add_node("b", {30, 0});
  world.add_node("c", {81, 0});
  world.add_node("d", {300, 0});
  std::vector<NodeId> out;
  for (double range : {10.0, 50.0, 100.0, 1000.0}) {
    world.neighbors(a, range, out);
    EXPECT_EQ(out, world.neighbors(a, range)) << "range=" << range;
  }
}

TEST(RegionTest, NeighborhoodEpochIgnoresDistantChurn) {
  Simulator sim;
  World world(sim, /*grid_cell_m=*/100.0, /*region_cells=*/2);
  world.add_node("local-a", {0, 0});
  NodeId local_b = world.add_node("local-b", {50, 0});
  NodeId far = world.add_node("far", {5000, 5000});
  // Enough population that the disc query takes the per-region cell walk
  // (tiny worlds fall back to a full scan, whose fingerprint is global).
  for (int i = 0; i < 30; ++i) {
    world.add_node("fill" + std::to_string(i),
                   {static_cast<double>(i * 40 % 600), 300.0});
  }

  std::uint64_t e0 = world.neighborhood_epoch({0, 0}, 100.0);
  // Churn far outside the queried neighborhood: fingerprint must hold, so
  // a nodes_near cache anchored here survives city-scale background motion.
  world.set_position(far, {5100, 5100});
  world.set_position(far, {5000, 5000});
  EXPECT_EQ(world.neighborhood_epoch({0, 0}, 100.0), e0);
  // A move inside the neighborhood must be visible.
  world.set_position(local_b, {60, 0});
  EXPECT_NE(world.neighborhood_epoch({0, 0}, 100.0), e0);
}

// Exactness under every kind of world mutation. A seeded mix of admissions
// (full-stack and crowd), teleports, walks replaced mid-segment, zero-length
// moves and walks across tile edges, with one repartition halfway. The test
// keeps its own record of every segment; after each mutation, and at
// sampled instants between mutations, the range queries must equal a
// brute-force scan of that record, migrations() must equal the test's count
// of endpoint tile changes, and the world capture must equal an encoding of
// the record.
TEST(RegionTest, MutationMixMatchesOwnSegmentRecord) {
  constexpr double kCellM = 40.0;
  std::uint32_t tile_cells = 2;  // 80 m tiles until the repartition
  Simulator sim;
  World world(sim, kCellM, tile_cells);

  struct Seg {
    Vec2 from;
    Vec2 to;
    TimePoint depart;
    TimePoint arrive;
    bool full_stack = false;
  };
  std::vector<Seg> rec;
  std::uint64_t tile_changes = 0;
  TimePoint last_arrival;  // of any walk, replaced ones included

  auto tile_of = [&](Vec2 p) {
    auto coord = [&](double v) {
      auto cell = static_cast<std::int64_t>(std::floor(v / kCellM));
      auto k = static_cast<std::int64_t>(tile_cells);
      return cell >= 0 ? cell / k : -((-cell + k - 1) / k);
    };
    return std::pair{coord(p.x), coord(p.y)};
  };
  // The interpolation World::position documents: linear from `from` at
  // `depart` to `to` at `arrive`, then parked at `to`.
  auto pos = [&](const Seg& s) {
    if (s.arrive == s.depart || sim.now() >= s.arrive) return s.to;
    double total = (s.arrive - s.depart).as_seconds();
    double done = (sim.now() - s.depart).as_seconds();
    return s.from + (s.to - s.from) * (done / total);
  };
  auto brute = [&](Vec2 center, double range) {
    std::vector<NodeId> out;
    for (NodeId id = 0; id < rec.size(); ++id) {
      Vec2 d = pos(rec[id]) - center;
      if (d.x * d.x + d.y * d.y <= range * range) out.push_back(id);
    }
    return out;
  };
  auto encode = [&] {
    ByteWriter w;
    w.var(rec.size());
    for (const Seg& s : rec) {
      const bool point = s.from == s.to && s.depart == s.arrive;
      w.u8(static_cast<std::uint8_t>((s.full_stack ? 1 : 0) |
                                     (point ? 2 : 0)));
      w.f64(s.to.x);
      w.f64(s.to.y);
      if (!point) {
        w.f64(s.from.x);
        w.f64(s.from.y);
        w.svar(s.depart.as_micros());
        w.svar(s.arrive.as_micros());
      }
    }
    return w.take();
  };

  std::uint64_t seed = 20261019;
  auto next = [&seed] {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return seed >> 33;
  };
  auto coord = [&] {  // [-200, 400), on a 0.25 m lattice: tile edges occur
    return static_cast<double>(next() % 2400) / 4.0 - 200.0;
  };

  std::size_t checks = 0;
  auto check = [&](const char* what) {
    SCOPED_TRACE(testing::Message() << what << " at t=" << sim.now().as_micros()
                                    << "us, " << rec.size() << " nodes");
    ++checks;
    ASSERT_EQ(world.node_count(), rec.size());
    for (NodeId id = 0; id < rec.size(); ++id) {
      ASSERT_EQ(world.position(id), pos(rec[id])) << "node " << id;
    }
    EXPECT_EQ(world.migrations(), tile_changes);
    // region_of names the endpoint's tile: one index per tile, and one tile
    // per index.
    std::map<std::pair<std::int64_t, std::int64_t>, std::uint32_t> index_of;
    std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>> tile_for;
    for (NodeId id = 0; id < rec.size(); ++id) {
      const auto tile = tile_of(rec[id].to);
      const std::uint32_t index = world.region_of(id);
      EXPECT_EQ(index_of.emplace(tile, index).first->second, index);
      EXPECT_EQ(tile_for.emplace(index, tile).first->second, tile);
    }
    std::vector<NodeId> got;
    for (double range : {15.0, 60.0, 130.0}) {
      for (int c = 0; c < 3; ++c) {
        Vec2 center{coord(), coord()};
        world.nodes_in_disc(center, range, got);
        EXPECT_EQ(got, brute(center, range))
            << "center=(" << center.x << "," << center.y << ") r=" << range;
      }
      for (NodeId of = 0; of < rec.size(); of += 7) {
        std::vector<NodeId> want = brute(pos(rec[of]), range);
        std::erase(want, of);
        world.neighbors(of, range, got);
        EXPECT_EQ(got, want) << "neighbors of=" << of << " r=" << range;
      }
    }
    // One range per node, so a static world serves repeat queries from the
    // per-node cache, which must see every mutation.
    for (NodeId of = 0; of < rec.size(); ++of) {
      const double range = 20.0 + 10.0 * static_cast<double>(of % 8);
      world.nodes_near(of, range, got);
      EXPECT_EQ(got, brute(pos(rec[of]), range))
          << "nodes_near of=" << of << " r=" << range;
    }
    Snapshot snap;
    capture_world(world, snap);
    EXPECT_EQ(snap.section(kSecWorld).bytes, encode());
  };

  auto moving = [&](NodeId id) { return sim.now() < rec[id].arrive; };
  auto walk = [&](NodeId id, Vec2 target) {
    const double speed = 1.0 + static_cast<double>(next() % 40);
    Seg& s = rec[id];
    Vec2 start = pos(s);
    if (tile_of(target) != tile_of(s.to)) ++tile_changes;
    s.from = start;
    s.to = target;
    s.depart = sim.now();
    s.arrive = sim.now() +
               Duration::seconds(Vec2::distance(start, target) / speed);
    last_arrival = std::max(last_arrival, s.arrive);
    world.move_to(id, target, speed);
  };

  for (int step = 0; step < 600; ++step) {
    if (step == 300) {
      tile_cells = 3;  // 120 m tiles: home tiles are recomputed, not moved
      world.set_region_cells(tile_cells);
      check("repartition");
    }
    // The ten steps after each arrival keep the world static: admissions,
    // teleports and zero-length moves only.
    const bool keep_static = step >= 50 && step % 50 < 10;
    const std::uint64_t kind =
        rec.size() < 8 ? 0 : next() % (keep_static ? 4 : 10);
    const auto pick = [&] { return static_cast<NodeId>(next() % rec.size()); };
    if (kind == 0 && rec.size() < 80) {
      const bool full_stack = next() % 4 == 0;
      Vec2 p{coord(), coord()};
      NodeId id = full_stack ? world.add_node("d" + std::to_string(step), p)
                             : world.add_crowd_node(
                                   "c" + std::to_string(step), p);
      ASSERT_EQ(id, rec.size());
      rec.push_back(Seg{p, p, sim.now(), sim.now(), full_stack});
      check("admission");
    } else if (kind <= 2) {
      NodeId id = pick();
      Vec2 p{coord(), coord()};
      if (tile_of(p) != tile_of(rec[id].to)) ++tile_changes;
      rec[id] = Seg{p, p, sim.now(), sim.now(), rec[id].full_stack};
      world.set_position(id, p);
      check("teleport");
    } else if (kind == 3) {
      NodeId id = pick();
      walk(id, pos(rec[id]));  // zero-length: the segment becomes a point
      check("zero-length move");
    } else if (kind == 4) {
      // Replace a walk in flight, if any node is mid-segment.
      NodeId id = pick();
      for (NodeId i = 0; i < rec.size() && !moving(id); ++i) {
        id = static_cast<NodeId>((id + 1) % rec.size());
      }
      walk(id, {coord(), coord()});
      check("walk replaced");
    } else if (kind == 5) {
      // Walk onto a tile edge exactly.
      NodeId id = pick();
      const double edge =
          kCellM * tile_cells * static_cast<double>(next() % 4);
      walk(id, {edge, pos(rec[id]).y});
      check("walk to edge");
    } else {
      NodeId id = pick();
      Vec2 p = pos(rec[id]);
      walk(id, {p.x + static_cast<double>(next() % 400) - 200.0,
                p.y + static_cast<double>(next() % 400) - 200.0});
      check("walk");
    }
    if (step % 50 == 49) {
      // Let every walk arrive: the static world serves nodes_near from
      // the per-node caches, which the mutations that follow must refresh.
      sim.run_until(std::max(sim.now(), last_arrival));
      ASSERT_TRUE(world.is_static(sim.now()));
      check("all arrived");
    } else if (!keep_static && next() % 3 == 0) {
      sim.run_for(Duration::micros(static_cast<std::int64_t>(
          next() % 4'000'000)));
      check("between mutations");
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(tile_changes, 50u);
  EXPECT_GT(checks, 600u);
}

// Home-tile changes are barrier-serialized; the whole report — discovery,
// transfers, manager stats — must be byte-identical at every thread count
// while devices walk across two region boundaries (800 m tiles at the
// default grid/region size).
TEST(RegionTest, ScenarioWithMigrationsIsThreadCountInvariant) {
  const std::string script = R"(
seed 7
device walker 750 0
device anchor 760 10
device far 1690 0
advertise walker interest:map interval=500ms
advertise far interest:map interval=500ms
walk walker at=2s to=900,0 speed=25
walk walker at=10s to=1700,0 speed=50
send anchor walker at=4s bytes=20000
run 40s
report
)";
  const std::string one = scenario::run_scenario_text(script, 1);
  ASSERT_NE(one.find("walker"), std::string::npos) << one;
  EXPECT_EQ(one, scenario::run_scenario_text(script, 2));
  EXPECT_EQ(one, scenario::run_scenario_text(script, 8));
}

// 10k-node churn smoke: a small full-stack core inside a 10k crowd with
// CrowdChurn walking nodes across tile edges, cross-checked against the
// brute-force oracle mid-run and at the end.
TEST(RegionTest, ChurnSmoke10k) {
  net::Testbed bed(11, radio::Calibration::defaults(), 2);
  for (int i = 0; i < 4; ++i) {
    bed.add_device("dev" + std::to_string(i),
                   {static_cast<double>(i % 2) * 50.0,
                    static_cast<double>(i / 2) * 50.0});
  }
  std::vector<NodeId> movers;
  const std::size_t side = 100;  // 100x100 crowd lattice, 25 m spacing
  for (std::size_t i = 0; i < side * side; ++i) {
    NodeId id = bed.add_crowd_node(
        "c" + std::to_string(i),
        {static_cast<double>(i % side) * 25.0,
         static_cast<double>(i / side) * 25.0});
    if (i % 4 == 0) movers.push_back(id);
  }
  sim::CrowdChurn::Options opts;
  opts.area_min = {0, 0};
  opts.area_max = {static_cast<double>(side - 1) * 25.0,
                   static_cast<double>(side - 1) * 25.0};
  opts.per_tick = 150;
  sim::CrowdChurn churn(bed.world(), std::move(movers), opts, 2026);
  churn.start();

  World& world = bed.world();
  std::vector<NodeId> got;
  for (int slice = 0; slice < 5; ++slice) {
    bed.simulator().run_for(Duration::seconds(2));
    for (Vec2 center : {Vec2{40, 40}, Vec2{800, 800}, Vec2{1237, 513}}) {
      world.nodes_in_disc(center, 120.0, got);
      ASSERT_EQ(got, brute_disc(world, center, 120.0))
          << "slice=" << slice << " center=(" << center.x << ","
          << center.y << ")";
    }
  }
  churn.stop();
  EXPECT_GT(churn.moves_started(), 1000u);
  EXPECT_GT(world.migrations(), 0u);
  EXPECT_GT(world.region_count(), 8u);
  // The crowd-dominated world, a quarter of it walking, stays within the
  // city's world budget (bench_scale's kWorldBytesBudget).
  EXPECT_LT(static_cast<double>(world.memory_stats().total()) /
                static_cast<double>(world.node_count()),
            128.0);
}

}  // namespace
}  // namespace omni::sim
