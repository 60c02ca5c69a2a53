// Background crowd churn driving World positions over time.
//
// The experiments mostly use static placement and scripted moves; the
// scenario DSL moves nodes through World directly. CrowdChurn is the one
// generator: it keeps a pool of crowd nodes walking at city scale.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "sim/world.h"

namespace omni::sim {

/// Deterministic background churn over a pool of nodes (typically crowd
/// nodes): one self-rescheduling global event walks `per_tick`
/// pseudo-randomly chosen pool members toward fresh waypoints every kTick.
///
/// Targets and node choices are stateless splitmix64 hashes of (seed, tick
/// index, draw index), so the driver carries no per-node state at all and
/// consumes nothing from any simulator RNG stream.
class CrowdChurn {
 public:
  struct Options {
    Vec2 area_min{0, 0};
    Vec2 area_max{100, 100};
    std::size_t per_tick = 100;           ///< walks started per tick
  };

  static constexpr double kSpeedMps = 1.4;  ///< pedestrian pace
  static constexpr Duration kTick = Duration::millis(500);
  /// Longest per-axis hop from the node's current position. Local hops
  /// matter for memory, not just realism: the grid buckets a mover over its
  /// whole segment bounding box, so a city-spanning waypoint would insert
  /// the node into thousands of cells, while a bounded step stays within a
  /// handful (and still crosses region-tile boundaries often enough to
  /// exercise migration).
  static constexpr double kMaxStepM = 150.0;

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

}  // namespace omni::sim
