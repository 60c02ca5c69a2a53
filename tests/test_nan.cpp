// WiFi-Aware (NAN) model and technology plugin: synchronized discovery
// windows, publish/subscribe delivery, follow-up datagrams, power-save
// attendance, and the full Omni integration (the paper's §3.2 anticipated
// replacement for multicast context transmission).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/testbed.h"
#include "omni/omni_node.h"
#include "radio/nan.h"

namespace omni {
namespace {

class NanRadioTest : public ::testing::Test {
 protected:
  net::Testbed bed{601};
};

TEST_F(NanRadioTest, PublishesDeliverEveryWindow) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {50, 0});
  a.nan().set_enabled(true);
  b.nan().set_enabled(true);
  int received = 0;
  const Bytes* first = nullptr;
  b.nan().set_receive_handler(
      [&](const NanAddress& from, const SharedBytes& payload) {
        EXPECT_EQ(from, a.nan().address());
        EXPECT_EQ(*payload, (Bytes{1, 2}));
        if (first == nullptr) first = payload.get();
        EXPECT_EQ(payload.get(), first);  // every window shares the publish
        ++received;
      });
  ASSERT_TRUE(a.nan().publish(Bytes{1, 2}).is_ok());
  bed.simulator().run_for(Duration::seconds(10));
  // ~19 windows in 10 s at 524 ms.
  EXPECT_GE(received, 17);
  EXPECT_LE(received, 20);
}

TEST_F(NanRadioTest, WifiRangeNotBleRange) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {90, 0});  // beyond BLE's 40 m, inside 100 m
  auto& c = bed.add_device("c", {150, 0});
  for (auto* d : {&a, &b, &c}) d->nan().set_enabled(true);
  int b_got = 0, c_got = 0;
  b.nan().set_receive_handler(
      [&](const NanAddress&, const SharedBytes&) { ++b_got; });
  c.nan().set_receive_handler(
      [&](const NanAddress&, const SharedBytes&) { ++c_got; });
  a.nan().publish(Bytes{7});
  bed.simulator().run_for(Duration::seconds(5));
  EXPECT_GT(b_got, 0);
  EXPECT_EQ(c_got, 0);
}

TEST_F(NanRadioTest, PayloadCeilingEnforced) {
  auto& a = bed.add_device("a", {0, 0});
  a.nan().set_enabled(true);
  std::size_t cap = bed.calibration().nan_max_payload;
  EXPECT_TRUE(a.nan().publish(Bytes(cap, 0)).is_ok());
  EXPECT_FALSE(a.nan().publish(Bytes(cap + 1, 0)).is_ok());
}

TEST_F(NanRadioTest, FollowupDeliversNextWindow) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {50, 0});
  a.nan().set_enabled(true);
  b.nan().set_enabled(true);
  TimePoint delivered;
  b.nan().set_receive_handler([&](const NanAddress&, const SharedBytes&) {
    delivered = bed.simulator().now();
  });
  bool ok = false;
  TimePoint t0 = bed.simulator().now();
  ASSERT_TRUE(a.nan()
                  .send_followup(b.nan().address(), Bytes{9},
                                 [&](Status s) { ok = s.is_ok(); })
                  .is_ok());
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_TRUE(ok);
  const auto& cal = bed.calibration();
  EXPECT_LE((delivered - t0).as_micros(),
            (cal.nan_dw_period + cal.nan_dw_duration).as_micros());
}

TEST_F(NanRadioTest, FollowupToAbsentPeerTimesOut) {
  auto& a = bed.add_device("a", {0, 0});
  a.nan().set_enabled(true);
  bool failed = false;
  a.nan().send_followup(NanAddress{0x999}, Bytes{1},
                        [&](Status s) { failed = !s.is_ok(); });
  bed.simulator().run_for(Duration::seconds(10));
  EXPECT_TRUE(failed);
}

// A window services the follow-ups queued when it starts, in order. One that
// cannot go out is queued again behind anything a `done` callback queued
// while the window ran; the new one waits for the next window.
TEST_F(NanRadioTest, FollowupQueuedByDoneCallbackKeepsFifoOrder) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {50, 0});
  a.nan().set_enabled(true);
  b.nan().set_enabled(true);
  std::vector<Bytes> got;
  b.nan().set_receive_handler([&](const NanAddress&, const SharedBytes& p) {
    got.push_back(*p);
  });
  const NanAddress absent{0x999};
  const NanAddress away{0x998};
  std::vector<std::string> outcomes;
  auto note = [&](const char* name) {
    return [&outcomes, name](Status s) {
      outcomes.push_back(std::string(name) + (s.is_ok() ? ":ok" : ":fail"));
    };
  };
  // `first` gives up in the first window; its callback queues `late`.
  ASSERT_TRUE(a.nan()
                  .send_followup(absent, Bytes{1},
                                 [&](Status s) {
                                   note("first")(s);
                                   ASSERT_TRUE(a.nan()
                                                   .send_followup(
                                                       b.nan().address(),
                                                       Bytes{4}, note("late"))
                                                   .is_ok());
                                 })
                  .is_ok());
  a.nan().followups().back().windows_left = 1;
  ASSERT_TRUE(a.nan().send_followup(away, Bytes{2}, note("away")).is_ok());
  ASSERT_TRUE(
      a.nan().send_followup(b.nan().address(), Bytes{3}, note("near")).is_ok());

  const TimePoint w1 = bed.nan_system().next_window_start(
      bed.simulator().now() + Duration::micros(1));
  bed.simulator().run_until(w1 + Duration::millis(1));
  EXPECT_EQ(outcomes, (std::vector<std::string>{"first:fail"}));
  ASSERT_EQ(a.nan().followups().size(), 2u);
  EXPECT_EQ(a.nan().followups()[0].dest, b.nan().address());  // late
  EXPECT_EQ(a.nan().followups()[1].dest, away);

  const TimePoint w2 =
      bed.nan_system().next_window_start(w1 + Duration::micros(1));
  bed.simulator().run_until(w2 + bed.calibration().nan_dw_duration +
                            Duration::millis(1));
  EXPECT_EQ(got, (std::vector<Bytes>{{3}, {4}}));
  EXPECT_EQ(outcomes, (std::vector<std::string>{"first:fail", "near:ok",
                                                "late:ok"}));
  ASSERT_EQ(a.nan().followups().size(), 1u);
  EXPECT_EQ(a.nan().followups()[0].dest, away);
  // Fail the last one while `outcomes` is still alive.
  a.nan().set_enabled(false);
  EXPECT_EQ(outcomes.back(), "away:fail");
}

// A `done` callback that disables the radio mid-window fails the follow-ups
// the window has not reached yet, as disabling does between windows.
TEST_F(NanRadioTest, DisableInsideDoneCallbackFailsRestOfWindow) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {50, 0});
  a.nan().set_enabled(true);
  b.nan().set_enabled(true);
  int received = 0;
  b.nan().set_receive_handler(
      [&](const NanAddress&, const SharedBytes&) { ++received; });
  ASSERT_TRUE(a.nan()
                  .send_followup(NanAddress{0x999}, Bytes{1},
                                 [&](Status) { a.nan().set_enabled(false); })
                  .is_ok());
  a.nan().followups().back().windows_left = 1;
  std::string failure;
  ASSERT_TRUE(a.nan()
                  .send_followup(b.nan().address(), Bytes{2},
                                 [&](Status s) { failure = s.message(); })
                  .is_ok());
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_EQ(failure, "NAN disabled");
  EXPECT_EQ(received, 0);
  EXPECT_TRUE(a.nan().followups().empty());
}

TEST_F(NanRadioTest, DutyCycleEnergyIsLow) {
  auto& a = bed.add_device("a", {0, 0});
  a.nan().set_enabled(true);
  bed.simulator().run_for(Duration::seconds(60));
  const auto& cal = bed.calibration();
  double avg = a.meter().average_ma(TimePoint::origin(),
                                    bed.simulator().now());
  double expected = cal.wifi_receive_ma *
                    (cal.nan_dw_duration.as_seconds() /
                     cal.nan_dw_period.as_seconds());
  // ~5 mA: an order of magnitude below continuous multicast machinery.
  EXPECT_NEAR(avg, expected, expected * 0.15);
  EXPECT_LT(avg, 6.0);
}

TEST_F(NanRadioTest, PowerSaveAttendanceReducesEnergyAndReception) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {50, 0});
  a.nan().set_enabled(true);
  b.nan().set_enabled(true);
  b.nan().set_attendance(10);  // wake 1 window in 10
  int received = 0;
  b.nan().set_receive_handler(
      [&](const NanAddress&, const SharedBytes&) { ++received; });
  a.nan().publish(Bytes{5});
  bed.simulator().run_for(Duration::seconds(30));
  // ~57 windows; b attends ~5-6 of them.
  EXPECT_GE(received, 3);
  EXPECT_LE(received, 9);
  double avg = b.meter().average_ma(TimePoint::origin(),
                                    bed.simulator().now());
  EXPECT_LT(avg, 1.0);  // a tenth of full attendance
}

TEST_F(NanRadioTest, DisableStopsEverything) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {50, 0});
  a.nan().set_enabled(true);
  b.nan().set_enabled(true);
  int received = 0;
  b.nan().set_receive_handler(
      [&](const NanAddress&, const SharedBytes&) { ++received; });
  a.nan().publish(Bytes{1});
  bed.simulator().run_for(Duration::seconds(3));
  int before = received;
  EXPECT_GT(before, 0);
  a.nan().set_enabled(false);
  EXPECT_EQ(a.nan().active_publishes(), 0u);
  bed.simulator().run_for(Duration::seconds(3));
  EXPECT_EQ(received, before);
}

TEST_F(NanRadioTest, DeviceAddedWhileTickingHearsNextWindow) {
  // A radio registers at construction without touching the window tick (it
  // starts disabled). A device added after two enabled radios already run
  // the tick must join the very next window once it is enabled.
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {50, 0});
  a.nan().set_enabled(true);
  b.nan().set_enabled(true);
  ASSERT_TRUE(a.nan().publish(Bytes{3}).is_ok());
  bed.simulator().run_for(Duration::seconds(2));
  ASSERT_GT(bed.nan_system().windows_run(), 0u);

  auto& c = bed.add_device("c", {25, 0});
  c.nan().set_enabled(true);
  int received = 0;
  TimePoint first;
  c.nan().set_receive_handler(
      [&](const NanAddress& from, const SharedBytes& payload) {
        EXPECT_EQ(from, a.nan().address());
        EXPECT_EQ(*payload, (Bytes{3}));
        if (received++ == 0) first = bed.simulator().now();
      });
  const auto& cal = bed.calibration();
  const TimePoint next =
      bed.nan_system().next_window_start(bed.simulator().now());
  bed.simulator().run_until(next + cal.nan_dw_duration + Duration::millis(1));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(first, next + cal.nan_dw_duration);
}

class NanOmniTest : public ::testing::Test {
 protected:
  OmniNodeOptions nan_options() {
    OmniNodeOptions options;
    options.ble = false;  // WiFi-only device class
    options.wifi_aware = true;
    options.wifi_unicast = true;
    return options;
  }
  net::Testbed bed{602};
};

TEST_F(NanOmniTest, NanIsPrimaryContextTechWithoutBle) {
  auto& d = bed.add_device("a", {0, 0});
  OmniNode node(d, bed.mesh(), nan_options());
  node.start();
  bed.simulator().run_for(Duration::seconds(1));
  EXPECT_TRUE(node.manager().technology_engaged(Technology::kWifiAware));
}

TEST_F(NanOmniTest, DiscoveryAndRitualFreeData) {
  // The paper's point: NAN is ND-integrated, so a NAN-discovered mesh
  // mapping is fresh — data goes straight to TCP with no 2.8 s ritual.
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {60, 0});  // beyond BLE range!
  OmniNode a(da, bed.mesh(), nan_options());
  OmniNode b(db, bed.mesh(), nan_options());
  Bytes got;
  b.manager().request_data(
      [&](const OmniAddress&, BytesView d) { got.assign(d.begin(), d.end()); });
  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(3));

  const PeerEntry* peer = a.manager().peer_table().find(b.address());
  ASSERT_NE(peer, nullptr);
  EXPECT_TRUE(peer->reachable_on(Technology::kWifiAware));
  ASSERT_TRUE(peer->reachable_on(Technology::kWifiUnicast));
  EXPECT_FALSE(peer->techs.at(Technology::kWifiUnicast).requires_refresh);

  TimePoint t0 = bed.simulator().now();
  TimePoint done;
  bool ok = false;
  a.manager().send_data({b.address()}, Bytes(100'000, 0x3C),
                        [&](StatusCode code, const ResponseInfo&) {
                          ok = code == StatusCode::kSendDataSuccess;
                          done = bed.simulator().now();
                        });
  bed.simulator().run_for(Duration::seconds(3));
  EXPECT_TRUE(ok);
  EXPECT_EQ(got.size(), 100'000u);
  EXPECT_LT((done - t0).as_millis(), 100.0);  // no ritual
}

TEST_F(NanOmniTest, SmallDataCanRideFollowups) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {60, 0});
  OmniNodeOptions options = nan_options();
  options.wifi_unicast = false;  // NAN only
  OmniNode a(da, bed.mesh(), options);
  OmniNode b(db, bed.mesh(), options);
  Bytes got;
  b.manager().request_data(
      [&](const OmniAddress&, BytesView d) { got.assign(d.begin(), d.end()); });
  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(3));
  bool ok = false;
  a.manager().send_data({b.address()}, Bytes{0x42, 0x43},
                        [&](StatusCode code, const ResponseInfo&) {
                          ok = code == StatusCode::kSendDataSuccess;
                        });
  bed.simulator().run_for(Duration::seconds(3));
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, (Bytes{0x42, 0x43}));
}

TEST_F(NanOmniTest, RichContextFitsNan) {
  // 200-byte context: too big for legacy BLE, fine for a NAN SDF.
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {60, 0});
  OmniNode a(da, bed.mesh(), nan_options());
  OmniNode b(db, bed.mesh(), nan_options());
  Bytes got;
  b.manager().request_context(
      [&](const OmniAddress&, const Bytes& c) { got = c; });
  a.start();
  b.start();
  bool ok = false;
  a.manager().add_context(ContextParams{}, Bytes(200, 0x77),
                          [&](StatusCode code, const ResponseInfo&) {
                            ok = code == StatusCode::kAddContextSuccess;
                          });
  bed.simulator().run_for(Duration::seconds(3));
  EXPECT_TRUE(ok);
  EXPECT_EQ(got.size(), 200u);
}

TEST_F(NanOmniTest, BleStaysPrimaryWhenPresent) {
  auto& d = bed.add_device("a", {0, 0});
  OmniNodeOptions options = nan_options();
  options.ble = true;
  OmniNode node(d, bed.mesh(), options);
  node.start();
  bed.simulator().run_for(Duration::seconds(1));
  EXPECT_TRUE(node.manager().technology_engaged(Technology::kBle));
  EXPECT_FALSE(node.manager().technology_engaged(Technology::kWifiAware));
}

}  // namespace
}  // namespace omni
