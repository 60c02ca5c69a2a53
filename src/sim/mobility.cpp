#include "sim/mobility.h"

#include <algorithm>

namespace omni::sim {

ScriptedMobility& ScriptedMobility::teleport_at(TimePoint at, Vec2 position) {
  world_.simulator().at(at, [this, position] {
    world_.set_position(node_, position);
  });
  ++steps_;
  return *this;
}

ScriptedMobility& ScriptedMobility::walk_at(TimePoint at, Vec2 target,
                                            double speed_mps) {
  world_.simulator().at(at, [this, target, speed_mps] {
    world_.move_to(node_, target, speed_mps);
  });
  ++steps_;
  return *this;
}

namespace {

// splitmix64 finalizer: cheap, stateless draws for the churn driver.
std::uint64_t churn_hash(std::uint64_t seed, std::uint64_t tick,
                         std::uint64_t draw) {
  std::uint64_t z = seed + tick * 0x9e3779b97f4a7c15ull +
                    draw * 0xd1b54a32d192ed03ull + 0x2545f4914f6cdd1dull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double churn_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

CrowdChurn::CrowdChurn(World& world, std::vector<NodeId> pool,
                       Options options, std::uint64_t seed)
    : world_(world), pool_(std::move(pool)), options_(options), seed_(seed) {
  OMNI_CHECK_MSG(options_.speed_mps > 0, "churn speed must be positive");
  OMNI_CHECK_MSG(options_.tick > Duration::zero(),
                 "churn tick must be positive");
  OMNI_CHECK_MSG(options_.max_step_m > 0, "churn step must be positive");
  OMNI_CHECK_MSG(options_.area_max.x >= options_.area_min.x &&
                     options_.area_max.y >= options_.area_min.y,
                 "invalid area");
}

CrowdChurn::~CrowdChurn() { stop(); }

void CrowdChurn::start() {
  if (running_ || pool_.empty()) return;
  running_ = true;
  next_event_ = world_.simulator().after_global(options_.tick,
                                                [this] { run_tick(); });
}

void CrowdChurn::stop() {
  running_ = false;
  next_event_.cancel();
}

void CrowdChurn::run_tick() {
  if (!running_) return;
  // World mutation: this event runs barrier-serialized (global owner).
  const std::uint64_t t = tick_no_++;
  for (std::size_t j = 0; j < options_.per_tick; ++j) {
    std::uint64_t pick = churn_hash(seed_, t, j * 3);
    NodeId node = pool_[pick % pool_.size()];
    // Bounded hop: current position plus a per-axis offset in
    // [-max_step_m, +max_step_m], clamped to the area (see Options on why
    // hops must stay local).
    Vec2 pos = world_.position(node);
    Vec2 target{
        pos.x + options_.max_step_m *
                    (2.0 * churn_unit(churn_hash(seed_, t, j * 3 + 1)) - 1.0),
        pos.y + options_.max_step_m *
                    (2.0 * churn_unit(churn_hash(seed_, t, j * 3 + 2)) - 1.0)};
    target.x = std::clamp(target.x, options_.area_min.x, options_.area_max.x);
    target.y = std::clamp(target.y, options_.area_min.y, options_.area_max.y);
    world_.move_to(node, target, options_.speed_mps);
    ++moves_;
  }
  next_event_ = world_.simulator().after_global(options_.tick,
                                                [this] { run_tick(); });
}

RandomWaypointMobility::RandomWaypointMobility(World& world, NodeId node,
                                               Options options,
                                               std::uint64_t seed)
    : world_(world), node_(node), options_(options), rng_(seed) {
  OMNI_CHECK_MSG(options_.min_speed_mps > 0 &&
                     options_.max_speed_mps >= options_.min_speed_mps,
                 "invalid speed range");
  OMNI_CHECK_MSG(options_.area_max.x >= options_.area_min.x &&
                     options_.area_max.y >= options_.area_min.y,
                 "invalid area");
}

RandomWaypointMobility::~RandomWaypointMobility() { stop(); }

void RandomWaypointMobility::start() {
  if (running_) return;
  running_ = true;
  next_leg();
}

void RandomWaypointMobility::stop() {
  running_ = false;
  next_event_.cancel();
}

void RandomWaypointMobility::next_leg() {
  if (!running_) return;
  Vec2 target{rng_.uniform(options_.area_min.x, options_.area_max.x),
              rng_.uniform(options_.area_min.y, options_.area_max.y)};
  double speed =
      rng_.uniform(options_.min_speed_mps, options_.max_speed_mps);
  double dist = Vec2::distance(world_.position(node_), target);
  world_.move_to(node_, target, speed);
  ++legs_;
  Duration walk = Duration::seconds(dist / speed);
  Duration pause = Duration::micros(rng_.uniform_int(
      options_.min_pause.as_micros(),
      std::max(options_.min_pause.as_micros(),
               options_.max_pause.as_micros())));
  next_event_ = world_.simulator().after(walk + pause, [this] { next_leg(); });
}

}  // namespace omni::sim
