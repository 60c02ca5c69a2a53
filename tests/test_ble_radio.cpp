#include <gtest/gtest.h>

#include <memory>

#include "net/testbed.h"
#include "radio/ble.h"

namespace omni::radio {
namespace {

class BleRadioTest : public ::testing::Test {
 protected:
  net::Testbed bed{3};
};

TEST_F(BleRadioTest, PeriodicAdvertisementsReachScanners) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  b.ble().set_scanning(true, 1.0);
  int received = 0;
  b.ble().set_receive_handler(
      [&](const BleAddress& from, const SharedBytes& payload) {
        EXPECT_EQ(from, a.ble().address());
        EXPECT_EQ(*payload, (Bytes{1, 2, 3}));
        ++received;
      });
  auto adv = a.ble().start_advertising(Bytes{1, 2, 3}, Duration::millis(500));
  ASSERT_TRUE(adv.is_ok());
  bed.simulator().run_for(Duration::seconds(10));
  // ~20 events at 90% capture.
  EXPECT_GE(received, 12);
  EXPECT_LE(received, 20);
}

TEST_F(BleRadioTest, ReceiversShareTheAdvertisersFrame) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  auto& c = bed.add_device("c", {0, 10});
  std::vector<const Bytes*> frames;
  for (net::Device* rx : {&b, &c}) {
    rx->ble().set_scanning(true, 1.0);
    rx->ble().set_receive_handler(
        [&](const BleAddress&, const SharedBytes& frame) {
          EXPECT_EQ(*frame, (Bytes{4, 5, 6}));
          frames.push_back(frame.get());
        });
  }
  ASSERT_TRUE(
      a.ble().start_advertising(Bytes{4, 5, 6}, Duration::millis(100)).is_ok());
  bed.simulator().run_for(Duration::seconds(1));
  // Every fire reached both receivers as the one buffer the advertisement
  // was started with: no copy per receiver and none per fire.
  ASSERT_GE(frames.size(), 4u);
  for (const Bytes* f : frames) EXPECT_EQ(f, frames.front());
}

TEST_F(BleRadioTest, OutOfRangeScannersHearNothing) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {500, 0});  // beyond ble_range_m
  b.ble().set_scanning(true, 1.0);
  int received = 0;
  b.ble().set_receive_handler(
      [&](const BleAddress&, const SharedBytes&) { ++received; });
  ASSERT_TRUE(
      a.ble().start_advertising(Bytes{1}, Duration::millis(100)).is_ok());
  bed.simulator().run_for(Duration::seconds(5));
  EXPECT_EQ(received, 0);
}

TEST_F(BleRadioTest, PayloadLimitEnforced) {
  auto& a = bed.add_device("a", {0, 0});
  std::size_t limit = bed.calibration().ble_legacy_adv_payload;
  EXPECT_EQ(a.ble().max_payload(), limit);
  EXPECT_TRUE(
      a.ble().start_advertising(Bytes(limit, 0), Duration::millis(100))
          .is_ok());
  EXPECT_FALSE(
      a.ble().start_advertising(Bytes(limit + 1, 0), Duration::millis(100))
          .is_ok());
}

TEST_F(BleRadioTest, ExtendedAdvertisingRaisesLimit) {
  radio::Calibration cal = radio::Calibration::defaults();
  cal.ble_extended_advertising = true;
  net::Testbed bed5(3, cal);
  auto& a = bed5.add_device("a", {0, 0});
  EXPECT_EQ(a.ble().max_payload(), cal.ble_extended_adv_payload);
  EXPECT_TRUE(
      a.ble().start_advertising(Bytes(200, 0), Duration::millis(100)).is_ok());
}

TEST_F(BleRadioTest, UpdateChangesPayloadAndStopEndsTransmission) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  b.ble().set_scanning(true, 1.0);
  Bytes last;
  int count = 0;
  b.ble().set_receive_handler([&](const BleAddress&,
                                  const SharedBytes& payload) {
    last = *payload;
    ++count;
  });
  auto adv = a.ble().start_advertising(Bytes{1}, Duration::millis(100));
  ASSERT_TRUE(adv.is_ok());
  bed.simulator().run_for(Duration::seconds(2));
  ASSERT_GT(count, 0);
  EXPECT_EQ(last, (Bytes{1}));

  ASSERT_TRUE(
      a.ble().update_advertising(adv.value(), Bytes{2}, Duration::millis(100))
          .is_ok());
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_EQ(last, (Bytes{2}));

  ASSERT_TRUE(a.ble().stop_advertising(adv.value()).is_ok());
  // A frame broadcast at the stop instant is still on the air (delivery
  // lands one adv event after transmission); flush it before sampling.
  bed.simulator().run_for(bed.calibration().ble_adv_event);
  int count_at_stop = count;
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_EQ(count, count_at_stop);
  EXPECT_EQ(a.ble().active_advertisements(), 0u);
}

TEST_F(BleRadioTest, UpdateUnknownIdFails) {
  auto& a = bed.add_device("a", {0, 0});
  EXPECT_FALSE(
      a.ble().update_advertising(99, Bytes{1}, Duration::millis(100)).is_ok());
  EXPECT_FALSE(a.ble().stop_advertising(99).is_ok());
}

TEST_F(BleRadioTest, DatagramLatencyIsFastAdvMean) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  b.ble().set_scanning(true, 1.0);
  TimePoint delivered;
  b.ble().set_receive_handler([&](const BleAddress&, const SharedBytes&) {
    delivered = bed.simulator().now();
  });
  TimePoint t0 = bed.simulator().now();
  ASSERT_TRUE(a.ble().send_datagram(Bytes(30, 0), nullptr).is_ok());
  bed.simulator().run_for(Duration::seconds(1));
  const auto& cal = bed.calibration();
  Duration expected = Duration::micros(
      cal.ble_fast_adv_interval.as_micros() / 2) + cal.ble_adv_event;
  EXPECT_EQ(delivered - t0, expected);
}

TEST_F(BleRadioTest, DatagramSizeLimit) {
  auto& a = bed.add_device("a", {0, 0});
  std::size_t cap = 2 * a.ble().max_payload();
  EXPECT_TRUE(a.ble().send_datagram(Bytes(cap, 0), nullptr).is_ok());
  EXPECT_FALSE(a.ble().send_datagram(Bytes(cap + 1, 0), nullptr).is_ok());
}

TEST_F(BleRadioTest, PowerOffCancelsEverything) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  b.ble().set_scanning(true, 1.0);
  int received = 0;
  b.ble().set_receive_handler(
      [&](const BleAddress&, const SharedBytes&) { ++received; });
  ASSERT_TRUE(
      a.ble().start_advertising(Bytes{1}, Duration::millis(100)).is_ok());
  bed.simulator().run_for(Duration::seconds(1));
  int before = received;
  EXPECT_GT(before, 0);
  a.ble().set_powered(false);
  // Power-off cannot recall a frame already on the air; flush the one
  // adv event of in-flight latency before sampling.
  bed.simulator().run_for(bed.calibration().ble_adv_event);
  before = received;
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_EQ(received, before);
  EXPECT_FALSE(
      a.ble().start_advertising(Bytes{1}, Duration::millis(100)).is_ok());
}

TEST_F(BleRadioTest, ScanDutyScalesEnergyLevel) {
  auto& a = bed.add_device("a", {0, 0});
  a.ble().set_scanning(true, 0.5);
  bed.simulator().run_for(Duration::seconds(10));
  double avg = a.meter().average_ma(TimePoint::origin(),
                                    bed.simulator().now());
  EXPECT_NEAR(avg, bed.calibration().ble_scan_ma * 0.5, 1e-9);
}

TEST_F(BleRadioTest, LowDutyScannerMissesSomeBeacons) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  b.ble().set_scanning(true, 0.1);
  int received = 0;
  b.ble().set_receive_handler(
      [&](const BleAddress&, const SharedBytes&) { ++received; });
  ASSERT_TRUE(
      a.ble().start_advertising(Bytes{1}, Duration::millis(100)).is_ok());
  bed.simulator().run_for(Duration::seconds(20));  // 200 events
  // Expect roughly 9% captures, certainly far fewer than a full-duty scan.
  EXPECT_GT(received, 2);
  EXPECT_LT(received, 60);
}

TEST(BleMediumTest, ReceiverDestroyedBeforeItsSweepIsSkipped) {
  // Two threads: the datagram goes on the air inside a window, so its one
  // winner is recorded in a shard lane and delivered by a sweep event the
  // barrier schedules one advertising event later. A global event between
  // the two destroys the receiving radio; the sweep must find the node's
  // row empty and skip it instead of reaching the freed radio.
  const Calibration cal = Calibration::defaults();
  // The burst goes on the air at half the fast-advertising interval and is
  // delivered one advertising event later; destroy halfway in between.
  const Duration destroy_after =
      Duration::micros(cal.ble_fast_adv_interval.as_micros() / 2) +
      cal.ble_adv_event / 2;
  for (const bool destroy : {false, true}) {
    SCOPED_TRACE(destroy ? "receiver destroyed" : "receiver kept");
    sim::Simulator sim(5, /*threads=*/2);
    sim::World world(sim, cal.ble_range_m);
    BleMedium medium(world, cal);
    sim.set_lookahead(medium.min_latency());
    const NodeId a = world.add_node("a", {0, 0});
    const NodeId b = world.add_node("b", {10, 0});
    EnergyMeter meter_a(sim);
    EnergyMeter meter_b(sim);
    BleRadio tx(medium, sim, meter_a, a, cal);
    auto rx = std::make_unique<BleRadio>(medium, sim, meter_b, b, cal);
    rx->set_scanning(true, 1.0);
    int heard = 0;
    rx->set_receive_handler(
        [&](const BleAddress&, const SharedBytes&) { ++heard; });
    ASSERT_TRUE(tx.send_datagram(Bytes{7}, nullptr).is_ok());
    std::uint64_t delivered_before_sweep = 0;
    sim.after_global(destroy_after, [&] {
      delivered_before_sweep = medium.delivered_count();
      if (destroy) rx.reset();
    });
    sim.run_for(Duration::millis(200));
    EXPECT_GT(sim.windows_run(), 0u);
    EXPECT_EQ(delivered_before_sweep, 0u);
    EXPECT_EQ(heard, destroy ? 0 : 1);
    EXPECT_EQ(medium.delivered_count(), destroy ? 0u : 1u);
  }
}

TEST(BleMediumDeathTest, SecondRadioOnANodeIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        net::Testbed bed(3);
        net::Device& dev = bed.add_device("a", {0, 0});
        BleRadio second(bed.ble_medium(), bed.simulator(), dev.meter(),
                        dev.node(), bed.calibration());
      },
      "at most one BLE radio");
}

}  // namespace
}  // namespace omni::radio
