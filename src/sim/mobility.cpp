#include "sim/mobility.h"

#include <algorithm>

#include "common/hash.h"

namespace omni::sim {

namespace {

// splitmix64 finalizer: cheap, stateless draws for the churn driver.
std::uint64_t churn_hash(std::uint64_t seed, std::uint64_t tick,
                         std::uint64_t draw) {
  return splitmix64_finalize(seed + tick * 0x9e3779b97f4a7c15ull +
                             draw * 0xd1b54a32d192ed03ull +
                             0x2545f4914f6cdd1dull);
}

double churn_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

CrowdChurn::CrowdChurn(World& world, std::vector<NodeId> pool,
                       Options options, std::uint64_t seed)
    : world_(world), pool_(std::move(pool)), options_(options), seed_(seed) {
  OMNI_CHECK_MSG(options_.area_max.x >= options_.area_min.x &&
                     options_.area_max.y >= options_.area_min.y,
                 "invalid area");
}

CrowdChurn::~CrowdChurn() { stop(); }

void CrowdChurn::start() {
  if (running_ || pool_.empty()) return;
  running_ = true;
  next_event_ = world_.simulator().after_global(kTick, [this] { run_tick(); });
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
    // [-kMaxStepM, +kMaxStepM], clamped to the area (see kMaxStepM on why
    // hops must stay local).
    Vec2 pos = world_.position(node);
    Vec2 target{
        pos.x + kMaxStepM *
                    (2.0 * churn_unit(churn_hash(seed_, t, j * 3 + 1)) - 1.0),
        pos.y + kMaxStepM *
                    (2.0 * churn_unit(churn_hash(seed_, t, j * 3 + 2)) - 1.0)};
    target.x = std::clamp(target.x, options_.area_min.x, options_.area_max.x);
    target.y = std::clamp(target.y, options_.area_min.y, options_.area_max.y);
    world_.move_to(node, target, kSpeedMps);
    ++moves_;
  }
  next_event_ = world_.simulator().after_global(kTick, [this] { run_tick(); });
}

}  // namespace omni::sim
