// The paper's §5 future-work extensions: multi-hop context relay ("BLE Mesh
// offers a promising solution for low-energy context sharing across longer
// ranges") and adaptive beacon intervals ("plugging in existing neighbor
// discovery protocols that use adaptive transmission frequencies").
#include <gtest/gtest.h>

#include <memory>

#include "net/testbed.h"
#include "omni/omni_node.h"

namespace omni {
namespace {

// Relayed packets exceed legacy advertisement limits, so these scenarios
// run with Bluetooth 5 extended advertising, as the paper anticipates.
radio::Calibration bt5_calibration() {
  radio::Calibration cal = radio::Calibration::defaults();
  cal.ble_extended_advertising = true;
  return cal;
}

OmniNodeOptions relay_options(int hops) {
  OmniNodeOptions options;
  options.manager.context_relay_hops = hops;
  return options;
}

TEST(RelayTest, TwoHopContextDelivery) {
  // A --35m-- B --35m-- C: BLE range is 40 m, so A and C (70 m apart) only
  // hear each other through B's relay.
  net::Testbed bed(91, bt5_calibration());
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {35, 0});
  auto& dc = bed.add_device("c", {70, 0});
  OmniNode a(da, bed.mesh(), relay_options(1));
  OmniNode b(db, bed.mesh(), relay_options(1));
  OmniNode c(dc, bed.mesh(), relay_options(1));

  std::vector<std::pair<OmniAddress, Bytes>> contexts_at_c;
  c.manager().request_context(
      [&](const OmniAddress& source, const Bytes& ctx) {
        contexts_at_c.emplace_back(source, ctx);
      });

  a.start();
  b.start();
  c.start();
  a.manager().add_context(ContextParams{}, Bytes{0xAA}, nullptr);
  bed.simulator().run_for(Duration::seconds(6));

  // C heard A's context, attributed to A (not to the relayer B).
  bool found = false;
  for (const auto& [source, ctx] : contexts_at_c) {
    if (source == a.address() && ctx == Bytes{0xAA}) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_GT(b.manager().stats().relayed_out, 0u);
  EXPECT_GT(c.manager().stats().relayed_in, 0u);
}

TEST(RelayTest, RelayedAddressBeaconEnablesDirectWifiData) {
  // C learns A's mesh address through B's relayed beacon; since WiFi range
  // (100 m) exceeds BLE range, C can then send data to A directly over
  // WiFi — paying the re-validation ritual, because the mapping is
  // relay-derived rather than ND-verified.
  net::Testbed bed(92, bt5_calibration());
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {35, 0});
  auto& dc = bed.add_device("c", {70, 0});
  OmniNode a(da, bed.mesh(), relay_options(1));
  OmniNode b(db, bed.mesh(), relay_options(1));
  OmniNode c(dc, bed.mesh(), relay_options(1));

  Bytes data_at_a;
  a.manager().request_data(
      [&](const OmniAddress&, BytesView d) {
        data_at_a.assign(d.begin(), d.end());
      });

  a.start();
  b.start();
  c.start();
  bed.simulator().run_for(Duration::seconds(6));

  const PeerEntry* a_at_c = c.manager().peer_table().find(a.address());
  ASSERT_NE(a_at_c, nullptr);
  ASSERT_TRUE(a_at_c->reachable_on(Technology::kWifiUnicast));
  EXPECT_TRUE(a_at_c->techs.at(Technology::kWifiUnicast).requires_refresh);
  EXPECT_FALSE(a_at_c->reachable_on(Technology::kBle));  // out of BLE range

  bool ok = false;
  c.manager().send_data({a.address()}, Bytes{0xCC},
                        [&](StatusCode code, const ResponseInfo&) {
                          ok = code == StatusCode::kSendDataSuccess;
                        });
  bed.simulator().run_for(Duration::seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_EQ(data_at_a, (Bytes{0xCC}));
}

TEST(RelayTest, HopBudgetLimitsPropagation) {
  // A line of four: A - B - C - D, 35 m spacing. With 1 hop, A's context
  // reaches C (via B) but not D (that would take two relays).
  net::Testbed bed(93, bt5_calibration());
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {35, 0});
  auto& dc = bed.add_device("c", {70, 0});
  auto& dd = bed.add_device("d", {105, 0});
  OmniNode a(da, bed.mesh(), relay_options(1));
  OmniNode b(db, bed.mesh(), relay_options(1));
  OmniNode c(dc, bed.mesh(), relay_options(1));
  OmniNode d(dd, bed.mesh(), relay_options(1));

  bool c_heard = false, d_heard = false;
  c.manager().request_context(
      [&](const OmniAddress& s, const Bytes&) {
        if (s == a.address()) c_heard = true;
      });
  d.manager().request_context(
      [&](const OmniAddress& s, const Bytes&) {
        if (s == a.address()) d_heard = true;
      });
  a.start();
  b.start();
  c.start();
  d.start();
  a.manager().add_context(ContextParams{}, Bytes{0x11}, nullptr);
  bed.simulator().run_for(Duration::seconds(8));
  EXPECT_TRUE(c_heard);
  EXPECT_FALSE(d_heard);
}

TEST(RelayTest, TwoHopBudgetReachesFourthNode) {
  net::Testbed bed(94, bt5_calibration());
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {35, 0});
  auto& dc = bed.add_device("c", {70, 0});
  auto& dd = bed.add_device("d", {105, 0});
  OmniNode a(da, bed.mesh(), relay_options(2));
  OmniNode b(db, bed.mesh(), relay_options(2));
  OmniNode c(dc, bed.mesh(), relay_options(2));
  OmniNode d(dd, bed.mesh(), relay_options(2));

  bool d_heard = false;
  d.manager().request_context(
      [&](const OmniAddress& s, const Bytes&) {
        if (s == a.address()) d_heard = true;
      });
  a.start();
  b.start();
  c.start();
  d.start();
  a.manager().add_context(ContextParams{}, Bytes{0x22}, nullptr);
  bed.simulator().run_for(Duration::seconds(10));
  EXPECT_TRUE(d_heard);
}

TEST(RelayTest, DisabledByDefault) {
  net::Testbed bed(95, bt5_calibration());
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {35, 0});
  auto& dc = bed.add_device("c", {70, 0});
  OmniNode a(da, bed.mesh());
  OmniNode b(db, bed.mesh());
  OmniNode c(dc, bed.mesh());
  a.start();
  b.start();
  c.start();
  bed.simulator().run_for(Duration::seconds(6));
  EXPECT_EQ(b.manager().stats().relayed_out, 0u);
  EXPECT_EQ(c.manager().peer_table().find(a.address()), nullptr);
}

TEST(AdaptiveBeaconTest, BacksOffWhenNeighborhoodStatic) {
  net::Testbed bed(96);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNodeOptions options;
  options.manager.adaptive_beacon.enabled = true;
  OmniNode a(da, bed.mesh(), options);
  OmniNode b(db, bed.mesh(), options);
  a.start();
  b.start();
  EXPECT_EQ(a.manager().current_beacon_interval(),
            options.manager.adaptive_beacon.min_interval);
  // After discovery the neighborhood is static: several quiet maintenance
  // ticks double the interval up to the maximum.
  bed.simulator().run_for(Duration::seconds(40));
  EXPECT_EQ(a.manager().current_beacon_interval(),
            options.manager.adaptive_beacon.max_interval);
}

TEST(AdaptiveBeaconTest, ChurnResetsToMinimum) {
  net::Testbed bed(97);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {2000, 0});  // far away initially
  OmniNodeOptions options;
  options.manager.adaptive_beacon.enabled = true;
  OmniNode a(da, bed.mesh(), options);
  OmniNode b(db, bed.mesh(), options);
  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(40));
  ASSERT_EQ(a.manager().current_beacon_interval(),
            options.manager.adaptive_beacon.max_interval);

  // b arrives: a's neighborhood changes, the beacon tightens again. The
  // reset happens on the first maintenance tick after b's (backed-off, 4 s
  // cadence) beacon is heard — poll rather than sample a fixed instant, as
  // a later quiet tick starts doubling the interval again.
  bed.world().set_position(db.node(), {10, 0});
  bool tightened = false;
  for (int i = 0; i < 12 && !tightened; ++i) {
    bed.simulator().run_for(Duration::seconds(1));
    tightened = a.manager().current_beacon_interval() ==
                options.manager.adaptive_beacon.min_interval;
  }
  EXPECT_TRUE(tightened);
}

TEST(AdaptiveBeaconTest, SavesIdleEnergy) {
  double energy[2];
  for (int variant = 0; variant < 2; ++variant) {
    net::Testbed bed(98);
    auto& da = bed.add_device("a", {0, 0});
    OmniNodeOptions options;
    options.wifi_standby = false;   // isolate the BLE advertising cost
    options.wifi_unicast = false;   // BLE-only node
    options.manager.adaptive_beacon.enabled = variant == 1;
    options.manager.adaptive_beacon.min_interval = Duration::millis(100);
    options.manager.beacon_interval = Duration::millis(100);
    OmniNode a(da, bed.mesh(), options);
    a.start();
    bed.simulator().run_for(Duration::seconds(120));
    energy[variant] = da.meter().average_ma(
        TimePoint::origin() + Duration::seconds(60),
        bed.simulator().now());
  }
  // The adaptive node backed off to a 4 s interval: ~40x fewer beacon
  // events in steady state. The continuous scanner dominates the absolute
  // draw, so assert on the advertising delta.
  EXPECT_LT(energy[1], energy[0] - 0.5);
}


TEST(AddressRotationTest, CommunicationSurvivesBleAddressRotation) {
  // BLE privacy rotates the link address; the paper's §3.2 contract makes
  // the technology report it, and the manager re-advertises the fresh
  // mapping in its address beacons. Peers must keep working throughout.
  net::Testbed bed(501);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode a(da, bed.mesh());
  OmniNode b(db, bed.mesh());
  Bytes got;
  a.manager().request_data(
      [&](const OmniAddress&, BytesView d) { got.assign(d.begin(), d.end()); });
  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(3));

  BleAddress before = da.ble().address();
  da.ble().rotate_address();
  EXPECT_NE(da.ble().address(), before);

  // After the next beacon round, b's mapping for a points at the fresh
  // address...
  bed.simulator().run_for(Duration::seconds(2));
  const PeerEntry* entry = b.manager().peer_table().find(a.address());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->techs.at(Technology::kBle).address,
            LowLevelAddress{da.ble().address()});
  // ...and the omni_address identity is unchanged.
  EXPECT_EQ(a.address(), a.manager().address());

  // Data over BLE still lands (force the BLE path: kill the mesh member).
  da.wifi().set_powered(false);
  bool ok = false;
  b.manager().send_data({a.address()}, Bytes{0x5E},
                        [&](StatusCode code, const ResponseInfo&) {
                          ok = code == StatusCode::kSendDataSuccess;
                        });
  bed.simulator().run_for(Duration::seconds(5));
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, (Bytes{0x5E}));
}

TEST(AddressRotationTest, RepeatedRotationsStayFresh) {
  net::Testbed bed(502);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode a(da, bed.mesh());
  OmniNode b(db, bed.mesh());
  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(2));
  for (int i = 0; i < 5; ++i) {
    da.ble().rotate_address();
    bed.simulator().run_for(Duration::seconds(2));
    const PeerEntry* entry = b.manager().peer_table().find(a.address());
    ASSERT_NE(entry, nullptr) << "rotation " << i;
    EXPECT_EQ(entry->techs.at(Technology::kBle).address,
              LowLevelAddress{da.ble().address()})
        << "rotation " << i;
  }
}

}  // namespace
}  // namespace omni
