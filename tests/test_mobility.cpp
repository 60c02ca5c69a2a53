#include <gtest/gtest.h>

#include <functional>

#include "net/testbed.h"
#include "omni/omni_node.h"

namespace omni::sim {
namespace {

// B walks out of A's BLE range and back, on a scripted World::move_to path
// (the DSL's walk instruction). A's peer table must forget B within the peer
// TTL plus one expiry sweep of B leaving, and re-learn B within a few
// beacons of B's return.
TEST(MobilityIntegrationTest, RandomWalkersDiscoverAndForget) {
  net::Testbed bed(101);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode a(da, bed.mesh());
  OmniNode b(db, bed.mesh());
  a.start();
  b.start();
  Simulator& sim = bed.simulator();
  World& world = bed.world();
  const double range = bed.calibration().ble_range_m;
  auto knows_b = [&] {
    return a.manager().peer_table().find(b.address()) != nullptr;
  };
  auto b_in_range = [&] { return world.in_range(da.node(), db.node(), range); };
  // Advance in 100 ms steps until `done` holds (at most `limit`); returns
  // the first sampled instant at which it held.
  auto run_until_true = [&](const std::function<bool()>& done,
                            Duration limit) {
    const TimePoint end = sim.now() + limit;
    while (!done() && sim.now() < end) sim.run_for(Duration::millis(100));
    return sim.now();
  };

  sim.run_for(Duration::seconds(3));
  ASSERT_TRUE(knows_b());

  // 190 m at 10 m/s: B leaves the 40 m BLE range about 3 s in.
  world.move_to(db.node(), {200, 0}, 10.0);
  const TimePoint left =
      run_until_true([&] { return !b_in_range(); }, Duration::seconds(10));
  ASSERT_FALSE(b_in_range());
  EXPECT_TRUE(knows_b()) << "B expired while still in range";
  const TimePoint forgotten =
      run_until_true([&] { return !knows_b(); }, Duration::seconds(30));
  ASSERT_FALSE(knows_b()) << "A never forgot B";
  EXPECT_LE(forgotten - left, OmniManager::kPeerTtl + kProbeInterval);

  // Let B arrive, stay away a while, then walk back.
  sim.run_for(Duration::seconds(20));
  EXPECT_FALSE(knows_b());
  world.move_to(db.node(), {10, 0}, 10.0);
  const TimePoint back =
      run_until_true([&] { return b_in_range(); }, Duration::seconds(30));
  ASSERT_TRUE(b_in_range());
  const TimePoint relearned =
      run_until_true([&] { return knows_b(); }, Duration::seconds(30));
  ASSERT_TRUE(knows_b()) << "A never re-learned B";
  EXPECT_LE(relearned - back, a.manager().options().beacon_interval * 4.0);
}

}  // namespace
}  // namespace omni::sim
