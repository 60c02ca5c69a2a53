// Mobility models driving World positions over time.
//
// The experiments mostly use static placement and scripted moves, but the
// library also provides the two classic generators used throughout the DTN
// literature the paper's applications come from:
//
//   * ScriptedMobility — a timetable of moves/teleports (reproducible
//     scenario scripts, e.g. "B meets C five seconds later");
//   * RandomWaypointMobility — pick a point in a rectangle, walk there at a
//     uniform-random speed, pause, repeat.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"
#include "sim/world.h"

namespace omni::sim {

/// A timetable of movements for one node.
class ScriptedMobility {
 public:
  ScriptedMobility(World& world, NodeId node) : world_(world), node_(node) {}

  /// At `at`, teleport the node to `position`.
  ScriptedMobility& teleport_at(TimePoint at, Vec2 position);
  /// At `at`, begin walking toward `target` at `speed_mps`.
  ScriptedMobility& walk_at(TimePoint at, Vec2 target, double speed_mps);

  std::size_t scheduled_steps() const { return steps_; }

 private:
  World& world_;
  NodeId node_;
  std::size_t steps_ = 0;
};

/// Deterministic background churn over a pool of nodes (typically crowd
/// nodes): one self-rescheduling global event walks `per_tick`
/// pseudo-randomly chosen pool members toward fresh waypoints every `tick`.
///
/// Targets and node choices are stateless splitmix64 hashes of (seed, tick
/// index, draw index), so the driver carries no per-node state at all — a
/// RandomWaypointMobility per node would cost a ~2.5 KB mt19937_64 engine
/// each, which is 250 MB of dead weight at 100k nodes — and consumes nothing
/// from any simulator RNG stream.
class CrowdChurn {
 public:
  struct Options {
    Vec2 area_min{0, 0};
    Vec2 area_max{100, 100};
    double speed_mps = 1.4;               ///< pedestrian pace
    Duration tick = Duration::millis(500);
    std::size_t per_tick = 100;           ///< walks started per tick
    /// Longest per-axis hop from the node's current position. Local hops
    /// matter for memory, not just realism: the grid buckets a mover over
    /// its whole segment bounding box, so a city-spanning waypoint would
    /// insert the node into thousands of cells, while a bounded step stays
    /// within a handful (and still crosses region-tile boundaries often
    /// enough to exercise migration).
    double max_step_m = 150.0;
  };

  CrowdChurn(World& world, std::vector<NodeId> pool, Options options,
             std::uint64_t seed);
  CrowdChurn(const CrowdChurn&) = delete;
  CrowdChurn& operator=(const CrowdChurn&) = delete;
  ~CrowdChurn();

  void start();
  void stop();
  bool running() const { return running_; }
  std::uint64_t moves_started() const { return moves_; }

 private:
  void run_tick();

  World& world_;
  std::vector<NodeId> pool_;
  Options options_;
  std::uint64_t seed_;
  std::uint64_t tick_no_ = 0;
  std::uint64_t moves_ = 0;
  bool running_ = false;
  EventHandle next_event_;
};

/// Classic random-waypoint motion inside an axis-aligned rectangle.
class RandomWaypointMobility {
 public:
  struct Options {
    Vec2 area_min{0, 0};
    Vec2 area_max{100, 100};
    double min_speed_mps = 0.5;
    double max_speed_mps = 2.0;
    Duration min_pause = Duration::seconds(0);
    Duration max_pause = Duration::seconds(10);
  };

  RandomWaypointMobility(World& world, NodeId node, Options options,
                         std::uint64_t seed);
  RandomWaypointMobility(const RandomWaypointMobility&) = delete;
  RandomWaypointMobility& operator=(const RandomWaypointMobility&) = delete;
  ~RandomWaypointMobility();

  void start();
  void stop();
  bool running() const { return running_; }
  std::uint64_t legs_walked() const { return legs_; }

 private:
  void next_leg();

  World& world_;
  NodeId node_;
  Options options_;
  Rng rng_;
  bool running_ = false;
  std::uint64_t legs_ = 0;
  EventHandle next_event_;
};

}  // namespace omni::sim
