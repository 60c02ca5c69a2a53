// SP and SA baseline stacks: discovery, advert/data dispatch, the WiFi
// resolution costs that distinguish them from Omni, and the D2dStack
// contract they share with the OmniStack adapter.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "baselines/directory.h"
#include "baselines/omni_stack.h"
#include "baselines/sa_node.h"
#include "baselines/sp_ble_node.h"
#include "baselines/sp_wifi_node.h"
#include "net/testbed.h"
#include "obs/trace_file.h"
#include "omni/omni_node.h"

namespace omni::baselines {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  net::Testbed bed{37};
};

TEST_F(BaselineTest, SpBleDiscoveryAndSmallData) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  SpBleNode a(da), b(db);

  Bytes b_advert_seen;
  a.set_advert_handler([&](D2dStack::PeerId from, const Bytes& info) {
    EXPECT_EQ(from, b.self());
    b_advert_seen = info;
  });
  Bytes data_seen;
  b.set_data_handler(
      [&](D2dStack::PeerId, BytesView data) {
        data_seen.assign(data.begin(), data.end());
      });

  a.start();
  b.start();
  a.advertise(Bytes{'a'}, Duration::millis(500));
  b.advertise(Bytes{'b'}, Duration::millis(500));
  // Low idle scan duty: discovery takes a few beacons but happens.
  bed.simulator().run_for(Duration::seconds(30));
  EXPECT_EQ(b_advert_seen, (Bytes{'b'}));
  ASSERT_EQ(a.known_peers().size(), 1u);

  bool ok = false;
  a.send(b.self(), Bytes{1, 2, 3}, [&](Status s) { ok = s.is_ok(); });
  bed.simulator().run_for(Duration::seconds(1));
  EXPECT_TRUE(ok);
  EXPECT_EQ(data_seen, (Bytes{1, 2, 3}));
}

TEST_F(BaselineTest, SpBleTurnsWifiOff) {
  auto& da = bed.add_device("a", {0, 0});
  da.wifi().set_powered(true);
  SpBleNode a(da);
  a.start();
  EXPECT_FALSE(da.wifi().powered());
  bed.simulator().run_for(Duration::seconds(10));
  // Negative "relative to WiFi-standby" energy: the paper's SP hallmark.
  double rel = da.meter().average_ma(TimePoint::origin(),
                                     bed.simulator().now()) -
               bed.calibration().wifi_standby_ma;
  EXPECT_LT(rel, -85.0);
}

TEST_F(BaselineTest, SpBleSendToUnknownPeerFails) {
  auto& da = bed.add_device("a", {0, 0});
  SpBleNode a(da);
  a.start();
  bool failed = false;
  a.send(0xDEAD, Bytes{1}, [&](Status s) { failed = !s.is_ok(); });
  EXPECT_TRUE(failed);
}

TEST_F(BaselineTest, SpWifiFirstSendPaysFullRitual) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  SpWifiNode a(da, bed.mesh()), b(db, bed.mesh());
  Bytes got;
  b.set_data_handler([&](D2dStack::PeerId, BytesView d) {
    got.assign(d.begin(), d.end());
  });
  a.start();
  b.start();
  a.advertise(Bytes{'a'}, Duration::millis(500));
  b.advertise(Bytes{'b'}, Duration::millis(500));
  bed.simulator().run_for(Duration::seconds(3));
  ASSERT_FALSE(a.known_peers().empty());

  TimePoint t0 = bed.simulator().now();
  TimePoint done;
  a.send(b.self(), Bytes{7}, [&](Status s) {
    ASSERT_TRUE(s.is_ok());
    done = bed.simulator().now();
  });
  bed.simulator().run_for(Duration::seconds(10));
  EXPECT_EQ(got, (Bytes{7}));
  // scan + join + query + advert wait + TCP: the paper's ~3.2s.
  EXPECT_NEAR((done - t0).as_millis(), 3245.0, 30.0);

  // Second send: validated, so only TCP time.
  t0 = bed.simulator().now();
  a.send(b.self(), Bytes{8}, [&](Status) { done = bed.simulator().now(); });
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_NEAR((done - t0).as_millis(), 16.0, 2.0);
}

TEST_F(BaselineTest, SpWifiBroadcastDataReachesAll) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  auto& dc = bed.add_device("c", {20, 0});
  SpWifiNode a(da, bed.mesh()), b(db, bed.mesh()), c(dc, bed.mesh());
  int b_got = 0, c_got = 0;
  b.set_data_handler([&](D2dStack::PeerId, BytesView) { ++b_got; });
  c.set_data_handler([&](D2dStack::PeerId, BytesView) { ++c_got; });
  a.start();
  b.start();
  c.start();
  bed.simulator().run_for(Duration::seconds(1));
  bool ok = false;
  a.broadcast_data(Bytes(3000, 5), [&](Status s) { ok = s.is_ok(); });
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_TRUE(ok);
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 1);
}

TEST_F(BaselineTest, SaDiscoversOnBothRadios) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  Directory dir;
  SaNode a(da, bed.mesh(), dir), b(db, bed.mesh(), dir);
  int adverts = 0;
  a.set_advert_handler([&](D2dStack::PeerId, const Bytes&) { ++adverts; });
  a.start();
  b.start();
  a.advertise(Bytes{'x'}, Duration::millis(500));
  b.advertise(Bytes{'y'}, Duration::millis(500));
  bed.simulator().run_for(Duration::seconds(5));
  // Overlay beacons arrive on BLE (most of ~10 at 90% capture) and WiFi
  // multicast (~9-10): roughly twice the single-radio rate.
  EXPECT_GT(adverts, 12);
  EXPECT_EQ(a.known_peers().size(), 1u);
}

TEST_F(BaselineTest, SaBleDiscoveredPeerSkipsAdvertWait) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  Directory dir;
  SaNode a(da, bed.mesh(), dir), b(db, bed.mesh(), dir);
  Bytes got;
  b.set_data_handler([&](D2dStack::PeerId, BytesView d) {
    got.assign(d.begin(), d.end());
  });
  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(3));
  ASSERT_FALSE(a.known_peers().empty());

  TimePoint t0 = bed.simulator().now();
  TimePoint done;
  a.send(b.self(), Bytes{3}, [&](Status s) {
    ASSERT_TRUE(s.is_ok()) << s.message();
    done = bed.simulator().now();
  });
  bed.simulator().run_for(Duration::seconds(10));
  EXPECT_EQ(got, (Bytes{3}));
  // Ritual without advert wait (~2.79s) + TCP: the paper's SA BLE/WiFi row.
  EXPECT_NEAR((done - t0).as_millis(), 2809.0, 30.0);
}

TEST_F(BaselineTest, SaWithoutWifiSendsOverBle) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  Directory dir;
  SaNode::Options options;
  options.data_over_wifi = false;
  SaNode a(da, bed.mesh(), dir, options), b(db, bed.mesh(), dir, options);
  Bytes got;
  b.set_data_handler([&](D2dStack::PeerId, BytesView d) {
    got.assign(d.begin(), d.end());
  });
  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(2));
  TimePoint t0 = bed.simulator().now();
  TimePoint done;
  a.send(b.self(), Bytes{9}, [&](Status) { done = bed.simulator().now(); });
  bed.simulator().run_for(Duration::seconds(1));
  EXPECT_EQ(got, (Bytes{9}));
  EXPECT_NEAR((done - t0).as_millis(), 41.0, 2.0);  // BLE datagram path
}

TEST_F(BaselineTest, OmniStackImplementsSameContract) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode na(da, bed.mesh());
  OmniNode nb(db, bed.mesh());
  OmniStack a(na), b(nb);

  Bytes advert_seen, data_seen;
  a.set_advert_handler(
      [&](D2dStack::PeerId, const Bytes& info) { advert_seen = info; });
  b.set_data_handler(
      [&](D2dStack::PeerId, BytesView d) {
        data_seen.assign(d.begin(), d.end());
      });
  a.start();
  b.start();
  b.advertise(Bytes{'B'}, Duration::millis(500));
  bed.simulator().run_for(Duration::seconds(3));
  EXPECT_EQ(advert_seen, (Bytes{'B'}));
  ASSERT_FALSE(a.known_peers().empty());

  bool ok = false;
  a.send(b.self(), Bytes{1, 1}, [&](Status s) { ok = s.is_ok(); });
  bed.simulator().run_for(Duration::seconds(1));
  EXPECT_TRUE(ok);
  EXPECT_EQ(data_seen, (Bytes{1, 1}));

  // advertise() twice updates rather than duplicates.
  b.advertise(Bytes{'C'}, Duration::millis(500));
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_EQ(advert_seen, (Bytes{'C'}));
  b.stop_advertising();
  bed.simulator().run_for(Duration::seconds(1));
  advert_seen.clear();
  bed.simulator().run_for(Duration::seconds(3));
  EXPECT_TRUE(advert_seen.empty());
}

// The multicast plugin and the SA and SP-WiFi baselines all rescan at the
// calibrated maintenance period, the first time at half a period: with a
// 20 s period, scans start at 10, 30, 50, 70 and 90 s and at no other time.
TEST(MaintenanceScanTest, CalibratedPeriodDrivesEveryRescan) {
  radio::Calibration cal;
  cal.wifi_maintenance_scan_period = Duration::seconds(20);
  net::Testbed bed(38, cal);
  obs::Omniscope& scope = bed.enable_observability();
  // Out of each other's radio range: each device only rescans.
  auto& d_omni = bed.add_device("omni", {0, 0});
  auto& d_sa = bed.add_device("sa", {300, 0});
  auto& d_sp = bed.add_device("sp", {600, 0});
  OmniNodeOptions options;
  options.wifi_multicast = true;
  OmniNode omni_node(d_omni, bed.mesh(), options);
  Directory directory;
  SaNode sa(d_sa, bed.mesh(), directory);
  SpWifiNode sp(d_sp, bed.mesh());
  omni_node.start();
  sa.start();
  sp.start();
  bed.simulator().run_for(Duration::seconds(100));

  std::map<NodeId, std::vector<std::int64_t>> scans_s;
  for (const obs::TraceRecord& r : obs::capture(scope).records) {
    if (r.cat == static_cast<std::uint16_t>(obs::Cat::kWifiScan)) {
      scans_s[r.owner].push_back(r.t_us / 1'000'000);
    }
  }
  const std::vector<std::int64_t> expected{10, 30, 50, 70, 90};
  EXPECT_EQ(scans_s[d_omni.node()], expected) << "WifiMulticastTech";
  EXPECT_EQ(scans_s[d_sa.node()], expected) << "SaNode";
  EXPECT_EQ(scans_s[d_sp.node()], expected) << "SpWifiNode";
}

// Baseline stacks withdraw what start() hands their device's radios: a stack
// may be stopped and started again, or destroyed while its device lives on.
// Under ASan the teardown cases fail with heap-use-after-free on any handler
// or completion left behind.

using MakeStack =
    std::unique_ptr<D2dStack> (*)(net::Testbed&, net::Device&, Directory&);

std::unique_ptr<D2dStack> make_sp_wifi(net::Testbed& bed, net::Device& d,
                                       Directory&) {
  return std::make_unique<SpWifiNode>(d, bed.mesh());
}

std::unique_ptr<D2dStack> make_sa(net::Testbed& bed, net::Device& d,
                                  Directory& directory) {
  return std::make_unique<SaNode>(d, bed.mesh(), directory);
}

// WiFi only: the multicast advert reaches every member, with no BLE capture
// trial to make two listeners' counts differ.
std::unique_ptr<D2dStack> make_sa_wifi(net::Testbed& bed, net::Device& d,
                                       Directory& directory) {
  SaNode::Options options;
  options.enable_ble = false;
  return std::make_unique<SaNode>(d, bed.mesh(), directory, options);
}

/// A speaker advertises every second for 20 s to a listener that was
/// stopped and started again and to one that never was: both must hear each
/// advert frame once.
void expect_one_advert_per_frame_after_restart(MakeStack make) {
  net::Testbed bed(39);
  Directory directory;
  auto& d_speaker = bed.add_device("speaker", {0, 0});
  auto& d_restarted = bed.add_device("restarted", {10, 0});
  auto& d_control = bed.add_device("control", {0, 10});
  auto speaker = make(bed, d_speaker, directory);
  auto restarted = make(bed, d_restarted, directory);
  auto control = make(bed, d_control, directory);
  int heard_restarted = 0;
  int heard_control = 0;
  const D2dStack::PeerId from_speaker = speaker->self();
  restarted->set_advert_handler([&](D2dStack::PeerId from, const Bytes&) {
    if (from == from_speaker) ++heard_restarted;
  });
  control->set_advert_handler([&](D2dStack::PeerId from, const Bytes&) {
    if (from == from_speaker) ++heard_control;
  });
  speaker->start();
  restarted->start();
  control->start();
  bed.simulator().run_for(Duration::seconds(2));  // every join has finished
  restarted->stop();
  restarted->start();
  speaker->advertise(Bytes{'s'}, Duration::seconds(1));
  bed.simulator().run_for(Duration::seconds(20));
  EXPECT_GE(heard_control, 19);
  EXPECT_EQ(heard_restarted, heard_control);
}

TEST(BaselineRestartTest, SpWifiHearsEachAdvertOnce) {
  expect_one_advert_per_frame_after_restart(&make_sp_wifi);
}

TEST(BaselineRestartTest, SaHearsEachAdvertOnce) {
  expect_one_advert_per_frame_after_restart(&make_sa_wifi);
}

/// Destroys A's stack while A's device lives on, then runs 2 s of B's
/// adverts (BLE and WiFi multicast) and a B -> A unicast past A's radios.
void run_traffic_past_destroyed_stack(MakeStack make) {
  net::Testbed bed(40);
  Directory directory;
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  auto a = make(bed, da, directory);
  auto b = make(bed, db, directory);
  const D2dStack::PeerId a_id = a->self();
  a->start();
  b->start();
  a->advertise(Bytes{'a'}, Duration::millis(500));
  b->advertise(Bytes{'b'}, Duration::millis(500));
  bed.simulator().run_for(Duration::seconds(3));
  ASSERT_FALSE(b->known_peers().empty());
  a.reset();
  b->send(a_id, Bytes{7}, nullptr);
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_EQ(da.wifi().mesh(), &bed.mesh());
}

TEST(BaselineLivenessTest, SaStackDestroyedBeforeItsDeviceIsInert) {
  run_traffic_past_destroyed_stack(&make_sa);
}

TEST(BaselineLivenessTest, SpWifiStackDestroyedBeforeItsDeviceIsInert) {
  run_traffic_past_destroyed_stack(&make_sp_wifi);
}

/// Destroys the stack 1 ms after start(), while its mesh join is still in
/// flight; the radio then finishes the join alone.
void destroy_mid_join(MakeStack make) {
  net::Testbed bed(41);
  Directory directory;
  auto& da = bed.add_device("a", {0, 0});
  auto a = make(bed, da, directory);
  a->start();
  bed.simulator().run_for(Duration::millis(1));
  ASSERT_TRUE(da.wifi().management_busy());
  a.reset();
  bed.simulator().run_for(Duration::seconds(1));
  EXPECT_FALSE(da.wifi().management_busy());
  EXPECT_EQ(da.wifi().mesh(), &bed.mesh());
}

TEST(BaselineLivenessTest, SaJoinOutlivingItsNodeIsInert) {
  destroy_mid_join(&make_sa);
}

TEST(BaselineLivenessTest, SpWifiJoinOutlivingItsNodeIsInert) {
  destroy_mid_join(&make_sp_wifi);
}

// A stopped SA stack stops its overlay's BLE scan, as SP-BLE's does; WiFi
// stays powered and in the mesh (D2dStack::stop()).
TEST(BaselineStopTest, SaStopTurnsItsBleScanOff) {
  net::Testbed bed(42);
  Directory directory;
  auto& d = bed.add_device("sa", {0, 0});
  SaNode sa(d, bed.mesh(), directory);
  sa.start();
  bed.simulator().run_for(Duration::seconds(10));
  const TimePoint stopped = bed.simulator().now();
  sa.stop();
  bed.simulator().run_for(Duration::seconds(10));
  const TimePoint end = bed.simulator().now();
  EXPECT_GT(d.meter().total_mAs(TimePoint::origin(), stopped,
                                obs::EnergyRail::kBleScan),
            0.0);
  EXPECT_EQ(d.meter().total_mAs(stopped, end, obs::EnergyRail::kBleScan),
            0.0);
  EXPECT_TRUE(d.wifi().powered());
  EXPECT_EQ(d.wifi().mesh(), &bed.mesh());
}

}  // namespace
}  // namespace omni::baselines
