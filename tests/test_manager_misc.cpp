// Manager odds and ends: graceful Developer-API behavior after stop(),
// beacon-info integrity with a NAN slot present, multi-mesh WiFi
// environments, and cross-owner posts, radio handlers and radio completions
// that outlive their component.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/testbed.h"
#include "omni/nan_tech.h"
#include "omni/omni_node.h"
#include "omni/wifi_multicast_tech.h"

namespace omni {
namespace {

TEST(ManagerStoppedTest, DeveloperApiFailsGracefullyAfterStop) {
  net::Testbed bed(701);
  auto& d = bed.add_device("a", {0, 0});
  OmniNode node(d, bed.mesh());
  node.start();
  ContextId ctx = kInvalidContext;
  node.manager().add_context(ContextParams{}, Bytes{1},
                             [&](StatusCode, const ResponseInfo& info) {
                               ctx = info.context_id;
                             });
  bed.simulator().run_for(Duration::seconds(1));
  ASSERT_NE(ctx, kInvalidContext);
  node.stop();

  std::vector<StatusCode> codes;
  auto record = [&](StatusCode code, const ResponseInfo&) {
    codes.push_back(code);
  };
  node.manager().add_context(ContextParams{}, Bytes{2}, record);
  node.manager().update_context(ctx, ContextParams{}, Bytes{3}, record);
  node.manager().remove_context(ctx, record);
  node.manager().send_data({OmniAddress{0x9}}, Bytes{4}, record);
  bed.simulator().run_for(Duration::seconds(1));

  ASSERT_EQ(codes.size(), 4u);
  EXPECT_EQ(codes[0], StatusCode::kAddContextFailure);
  EXPECT_EQ(codes[1], StatusCode::kUpdateContextFailure);
  EXPECT_EQ(codes[2], StatusCode::kRemoveContextSuccess);  // cleanup path
  EXPECT_EQ(codes[3], StatusCode::kSendDataFailure);
}

TEST(ManagerBeaconInfoTest, NanAddressDoesNotClobberMeshAddress) {
  net::Testbed bed(702);
  auto& d = bed.add_device("a", {0, 0});
  OmniNodeOptions options;
  options.ble = true;
  options.wifi_unicast = true;
  options.wifi_aware = true;
  OmniNode node(d, bed.mesh(), options);
  node.start();
  // The address beacon must carry the MESH address in its mesh slot even
  // though the NAN plugin also registered (with a different MAC).
  EXPECT_EQ(node.manager().beacon_info().mesh, d.wifi().address());
  EXPECT_EQ(node.manager().beacon_info().ble, d.ble().address());
}

TEST(ManagerBeaconInfoTest, BeaconOmitsAbsentTechnologies) {
  net::Testbed bed(703);
  auto& d = bed.add_device("a", {0, 0});
  OmniNodeOptions options;
  options.ble = true;
  options.wifi_unicast = false;
  options.wifi_multicast = false;
  options.wifi_standby = false;
  OmniNode node(d, bed.mesh(), options);
  node.start();
  EXPECT_TRUE(node.manager().beacon_info().mesh.is_zero());
  EXPECT_FALSE(node.manager().beacon_info().ble.is_zero());
}

TEST(MultiMeshTest, ScanSeesOnlyNearbyMeshes) {
  net::Testbed bed(704);
  auto& far_mesh = bed.wifi_system().create_mesh("far-mesh");
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {50, 0});
  auto& c = bed.add_device("c", {5000, 0});
  for (auto* dev : {&a, &b, &c}) dev->wifi().set_powered(true);
  b.wifi().join(bed.mesh(), [](Status) {});
  c.wifi().join(far_mesh, [](Status) {});
  bed.simulator().run_for(Duration::seconds(1));

  std::vector<radio::MeshNetwork*> found;
  a.wifi().scan([&](std::vector<radio::MeshNetwork*> meshes) {
    found = std::move(meshes);
  });
  bed.simulator().run_for(Duration::seconds(5));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], &bed.mesh());
}

TEST(MultiMeshTest, FlowsAreScopedToOneMesh) {
  net::Testbed bed(705);
  auto& other = bed.wifi_system().create_mesh("other");
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  a.wifi().set_powered(true);
  b.wifi().set_powered(true);
  a.wifi().join(bed.mesh(), [](Status) {});
  b.wifi().join(other, [](Status) {});
  bed.simulator().run_for(Duration::seconds(1));
  // b is not a member of a's mesh: the flow cannot even be addressed.
  auto flow = bed.mesh().open_flow(a.wifi(), b.wifi().address(), 1000,
                                   nullptr);
  EXPECT_FALSE(flow.is_ok());
}

/// True if a global-owned event is pending at exactly `at`.
bool global_event_pending_at(const sim::Simulator& sim, TimePoint at) {
  std::vector<sim::Simulator::PendingEvent> pending;
  sim.snapshot_pending(pending);
  for (const auto& e : pending) {
    if (e.owner == sim::kGlobalOwner && e.at == at) return true;
  }
  return false;
}

// A push into a global-pinned send queue from a node-owned event wakes the
// queue through a mailbox post, whose handle cannot be cancelled. run_until
// stops with that wake merged but not yet run; tearing the node down then
// frees the queue under it (and the teardown's own responses leave a wake of
// the node's response queue behind). The wakes must do nothing (ASan builds
// check that they touch no freed memory), and the surviving device runs on.
TEST(LivenessTest, QueueWakeOutlivingItsNodeIsInert) {
  net::Testbed bed(707);
  sim::Simulator& sim = bed.simulator();
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  auto node_a = std::make_unique<OmniNode>(a, bed.mesh());
  OmniNode node_b(b, bed.mesh());
  node_a->start();
  node_b.start();
  sim.run_for(Duration::seconds(5));
  ASSERT_NE(node_a->manager().peer_table().find(node_b.address()), nullptr);

  int outcomes = 0;
  const TimePoint t = sim.now() + Duration::millis(3);
  sim.at_on(a.node(), t, [&node_a, &node_b, &outcomes] {
    node_a->manager().send_data({node_b.address()}, Bytes(20'000, 0x5A),
                                [&outcomes](StatusCode, const ResponseInfo&) {
                                  ++outcomes;
                                });
  });
  sim.run_until(t);
  // The wake is clamped to the window end, one microsecond past `t`.
  ASSERT_TRUE(global_event_pending_at(sim, t + Duration::micros(1)));

  node_a.reset();
  const TimePoint torn_down = sim.now();
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(outcomes, 1);  // the stop fails the op once
  EXPECT_GT(b.meter().total_mAs(torn_down, sim.now(), obs::EnergyRail::kBle),
            0.0)
      << "b stopped beaconing";
}

// The multicast plugin's engagement sync is the other cross-owner post: the
// manager flips the flag from its node's events, and the probe bookkeeping
// follows in the global phase.
TEST(LivenessTest, EngageSyncOutlivingItsPluginIsInert) {
  net::Testbed bed(708);
  sim::Simulator& sim = bed.simulator();
  auto& a = bed.add_device("a", {0, 0});
  SimQueue<SendRequest> send(sim, sim::kGlobalOwner);
  SimQueue<ReceivedPacket> receive(sim, sim::kGlobalOwner);
  SimQueue<TechResponse> response(sim, sim::kGlobalOwner);
  auto tech = std::make_unique<WifiMulticastTech>(a.wifi(), bed.mesh());
  tech->enable(TechQueues{&send, &receive, &response});
  sim.run_for(Duration::seconds(1));

  const TimePoint t = sim.now() + Duration::millis(3);
  sim.at_on(a.node(), t, [&tech] { tech->set_engaged(true); });
  sim.run_until(t);
  ASSERT_TRUE(tech->engaged());
  ASSERT_TRUE(global_event_pending_at(sim, t + Duration::micros(1)));

  tech.reset();
  const std::uint64_t executed = sim.executed_events();
  sim.run_for(Duration::seconds(1));
  EXPECT_GT(sim.executed_events(), executed);  // the stale sync ran
}

// --- A destroyed plugin leaves nothing on its radios that calls into it ---
//
// Each case tears device A's node down while the device and its radios live
// on, then drives the radios. ASan builds check that no handler, join or
// send completion touches the freed plugins.

std::unique_ptr<OmniNode> started_node(net::Testbed& bed, net::Device& dev,
                                       OmniNodeOptions options = {}) {
  auto node = std::make_unique<OmniNode>(dev, bed.mesh(), options);
  node->start();
  return node;
}

OmniNodeOptions multicast_only() {
  OmniNodeOptions options;
  options.wifi_unicast = false;
  options.wifi_multicast = true;
  return options;
}

/// Power-cycles A's WiFi radio after A's node (with `options`) is gone: no
/// plugin is left to hear the power change or to re-join the mesh.
void power_cycle_after_teardown(OmniNodeOptions options) {
  net::Testbed bed(709);
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  auto node_a = started_node(bed, a, options);
  auto node_b = started_node(bed, b, options);
  bed.simulator().run_for(Duration::seconds(2));
  ASSERT_EQ(a.wifi().mesh(), &bed.mesh());

  node_a.reset();
  a.wifi().set_powered(false);
  a.wifi().set_powered(true);
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_TRUE(a.wifi().powered());
  EXPECT_EQ(a.wifi().mesh(), nullptr);
}

TEST(LivenessTest, UnicastPowerHandlerOutlivingItsNodeIsInert) {
  power_cycle_after_teardown(OmniNodeOptions{});
}

TEST(LivenessTest, MulticastPowerHandlerOutlivingItsNodeIsInert) {
  power_cycle_after_teardown(multicast_only());
}

TEST(LivenessTest, BleAddressHandlerOutlivingItsNodeIsInert) {
  net::Testbed bed(710);
  auto& a = bed.add_device("a", {0, 0});
  auto node_a = started_node(bed, a);
  bed.simulator().run_for(Duration::seconds(1));
  node_a.reset();
  const BleAddress before = a.ble().address();
  a.ble().rotate_address();
  bed.simulator().run_for(Duration::seconds(1));
  EXPECT_NE(a.ble().address(), before);
}

/// Destroys A's node (with `options`) 1 ms after start(), while the plugin's
/// mesh join is still in flight; the radio then finishes the join alone.
void teardown_mid_join(OmniNodeOptions options) {
  net::Testbed bed(711);
  auto& a = bed.add_device("a", {0, 0});
  auto node_a = started_node(bed, a, options);
  bed.simulator().run_for(Duration::millis(1));
  ASSERT_TRUE(a.wifi().management_busy());
  node_a.reset();
  bed.simulator().run_for(Duration::seconds(1));
  EXPECT_FALSE(a.wifi().management_busy());
  EXPECT_EQ(a.wifi().mesh(), &bed.mesh());
}

TEST(LivenessTest, UnicastJoinOutlivingItsNodeIsInert) {
  teardown_mid_join(OmniNodeOptions{});
}

TEST(LivenessTest, MulticastJoinOutlivingItsNodeIsInert) {
  teardown_mid_join(multicast_only());
}

/// Sends 8 bytes from A to B over the only data technology `options` give
/// A, and destroys A's node while the send is on the air: the stop fails the
/// op once, and the radio's late completion does nothing.
void teardown_mid_send(OmniNodeOptions options) {
  net::Testbed bed(712);
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  auto node_a = started_node(bed, a, options);
  auto node_b = started_node(bed, b, options);
  bed.simulator().run_for(Duration::seconds(3));
  ASSERT_NE(node_a->manager().peer_table().find(node_b->address()), nullptr);

  int outcomes = 0;
  node_a->manager().send_data({node_b->address()}, Bytes(8, 0x5A),
                              [&outcomes](StatusCode, const ResponseInfo&) {
                                ++outcomes;
                              });
  bed.simulator().run_for(Duration::millis(1));
  ASSERT_EQ(outcomes, 0);  // still on the air
  node_a.reset();
  bed.simulator().run_for(Duration::seconds(1));
  EXPECT_EQ(outcomes, 1);
}

TEST(LivenessTest, BleSendOutlivingItsNodeIsInert) {
  OmniNodeOptions options;
  options.wifi_unicast = false;
  teardown_mid_send(options);
}

// NanTech::disable() fails its queued follow-ups through the radio, so only
// a plugin destroyed while enabled leaves one behind: its completion runs at
// the next discovery window.
TEST(LivenessTest, NanSendOutlivingItsPluginIsInert) {
  net::Testbed bed(713);
  sim::Simulator& sim = bed.simulator();
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  b.nan().set_enabled(true);
  SimQueue<SendRequest> send(sim, sim::kGlobalOwner);
  SimQueue<ReceivedPacket> receive(sim, sim::kGlobalOwner);
  SimQueue<TechResponse> response(sim, sim::kGlobalOwner);
  auto tech = std::make_unique<NanTech>(a.nan());
  tech->enable(TechQueues{&send, &receive, &response});

  SendRequest req;
  req.request_id = 1;
  req.dest = LowLevelAddress{b.nan().address()};
  req.packed = std::make_shared<const Bytes>(Bytes(8, 0x5A));
  send.push(std::move(req));
  sim.run_for(Duration::millis(1));
  ASSERT_TRUE(response.empty());  // queued for the next window

  tech.reset();
  sim.run_for(Duration::seconds(2));
  EXPECT_TRUE(response.empty());
}

TEST(MultiMeshTest, IndependentCapacities) {
  net::Testbed bed(706);
  auto& other = bed.wifi_system().create_mesh("other");
  double c1 = bed.mesh().effective_capacity_Bps();
  auto load = bed.mesh().register_periodic_multicast(Duration::millis(100));
  EXPECT_LT(bed.mesh().effective_capacity_Bps(), c1);
  EXPECT_DOUBLE_EQ(other.effective_capacity_Bps(), c1);
  bed.mesh().unregister_periodic_multicast(load);
}

}  // namespace
}  // namespace omni
