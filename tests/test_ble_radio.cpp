#include <gtest/gtest.h>

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

}  // namespace
}  // namespace omni::radio
