// Fluid-flow TCP model: fair sharing, completion timing, progress, and
// failure injection (membership loss, range loss, power loss).
#include <gtest/gtest.h>

#include "net/testbed.h"
#include "radio/mesh.h"
#include "radio/wifi_radio.h"

namespace omni::radio {
namespace {

class MeshFlowTest : public ::testing::Test {
 protected:
  net::Device& joined_device(const std::string& name, sim::Vec2 pos) {
    auto& dev = bed.add_device(name, pos);
    dev.wifi().set_powered(true);
    dev.wifi().join(bed.mesh(), [](Status) {});
    return dev;
  }

  void settle() { bed.simulator().run_for(Duration::seconds(1)); }

  Duration flow_setup() const {
    const auto& cal = bed.calibration();
    return cal.wifi_rtt * 3.0 + cal.tcp_setup_overhead;
  }

  net::Testbed bed{8};
};

TEST_F(MeshFlowTest, SingleFlowUsesFullCapacity) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  settle();

  const double kBytes = 8.1e6;  // exactly 1 second at full capacity
  TimePoint t0 = bed.simulator().now();
  TimePoint done;
  auto flow = bed.mesh().open_flow(a.wifi(), b.wifi().address(),
                                   static_cast<std::uint64_t>(kBytes),
                                   [&](Status s) {
                                     ASSERT_TRUE(s.is_ok());
                                     done = bed.simulator().now();
                                   });
  ASSERT_TRUE(flow.is_ok());
  bed.simulator().run_for(Duration::seconds(5));
  EXPECT_NEAR((done - t0).as_seconds(),
              1.0 + flow_setup().as_seconds(), 0.01);
}

TEST_F(MeshFlowTest, TwoFlowsShareCapacityFairly) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  auto& c = joined_device("c", {20, 0});
  settle();

  const std::uint64_t kBytes = 8'100'000;
  TimePoint t0 = bed.simulator().now();
  TimePoint done1, done2;
  bed.mesh().open_flow(a.wifi(), b.wifi().address(), kBytes,
                       [&](Status) { done1 = bed.simulator().now(); });
  bed.mesh().open_flow(c.wifi(), b.wifi().address(), kBytes,
                       [&](Status) { done2 = bed.simulator().now(); });
  bed.simulator().run_for(Duration::seconds(10));
  // Both finish in ~2x the solo time.
  EXPECT_NEAR((done1 - t0).as_seconds(), 2.0, 0.1);
  EXPECT_NEAR((done2 - t0).as_seconds(), 2.0, 0.1);
}

TEST_F(MeshFlowTest, ShortFlowSpeedsUpSurvivor) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  auto& c = joined_device("c", {20, 0});
  settle();

  TimePoint t0 = bed.simulator().now();
  TimePoint long_done;
  // Long flow: 8.1 MB; short flow: 2.025 MB (0.25 s solo).
  bed.mesh().open_flow(a.wifi(), b.wifi().address(), 8'100'000,
                       [&](Status) { long_done = bed.simulator().now(); });
  bed.mesh().open_flow(c.wifi(), b.wifi().address(), 2'025'000, nullptr);
  bed.simulator().run_for(Duration::seconds(10));
  // Short flow shares for 0.5 s (finishing 2.025 MB at half rate), then the
  // long flow runs alone: total = 0.5 + (8.1 - 2.025)/8.1 = ~1.25 s.
  EXPECT_NEAR((long_done - t0).as_seconds(), 1.25, 0.05);
}

TEST_F(MeshFlowTest, ProgressCallbackMonotonic) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  settle();

  std::vector<std::uint64_t> progress;
  bed.mesh().open_flow(
      a.wifi(), b.wifi().address(), 4'000'000, nullptr,
      [&](std::uint64_t done) { progress.push_back(done); });
  // Force settles by opening/closing a second flow.
  bed.simulator().run_for(Duration::millis(200));
  bed.mesh().open_flow(a.wifi(), b.wifi().address(), 1000, nullptr);
  bed.simulator().run_for(Duration::seconds(5));
  ASSERT_GE(progress.size(), 1u);
  for (std::size_t i = 1; i < progress.size(); ++i) {
    EXPECT_GE(progress[i], progress[i - 1]);
  }
  EXPECT_LE(progress.back(), 4'000'000u);
}

TEST_F(MeshFlowTest, PayloadDeliveredToDestinationOnCompletion) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  settle();

  Bytes received;
  b.wifi().add_datagram_handler(
      [&](const MeshAddress& from, const SharedBytes& payload,
          bool multicast) {
        EXPECT_FALSE(multicast);
        EXPECT_EQ(from, a.wifi().address());
        received = *payload;
      });
  bed.mesh().open_flow(a.wifi(), b.wifi().address(), 1000, nullptr, nullptr,
                       std::make_shared<const Bytes>(Bytes{42, 43}));
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_EQ(received, (Bytes{42, 43}));
}

TEST_F(MeshFlowTest, FlowSharesThePayloadAndReleasesIt) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  settle();

  const Bytes* delivered = nullptr;
  Bytes received;
  b.wifi().add_datagram_handler(
      [&](const MeshAddress&, const SharedBytes& payload, bool) {
        delivered = payload.get();
        received = *payload;
      });
  auto payload = std::make_shared<const Bytes>(Bytes(5000, 7));
  auto flow = bed.mesh().open_flow(a.wifi(), b.wifi().address(),
                                   payload->size(), nullptr, nullptr, payload);
  ASSERT_TRUE(flow.is_ok());
  EXPECT_EQ(payload.use_count(), 2);  // the flow holds a reference, no copy
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_EQ(received, *payload);
  EXPECT_EQ(delivered, payload.get());  // the receiver read the same buffer
  EXPECT_EQ(payload.use_count(), 1);  // completion dropped the reference

  // A cancelled flow drops its reference too, and delivers nothing.
  received.clear();
  auto cancelled = bed.mesh().open_flow(a.wifi(), b.wifi().address(),
                                        50'000'000, nullptr, nullptr, payload);
  ASSERT_TRUE(cancelled.is_ok());
  EXPECT_EQ(payload.use_count(), 2);
  bed.simulator().run_for(Duration::millis(100));
  bed.mesh().cancel_flow(cancelled.value());
  EXPECT_EQ(payload.use_count(), 1);
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_TRUE(received.empty());
}

TEST_F(MeshFlowTest, UnknownDestinationFailsSynchronously) {
  auto& a = joined_device("a", {0, 0});
  settle();
  auto flow = bed.mesh().open_flow(a.wifi(), MeshAddress{0x999}, 1000,
                                   nullptr);
  EXPECT_FALSE(flow.is_ok());
}

TEST_F(MeshFlowTest, NonMemberSourceFails) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  a.wifi().set_powered(true);  // powered but not joined
  settle();
  auto flow =
      bed.mesh().open_flow(a.wifi(), b.wifi().address(), 1000, nullptr);
  EXPECT_FALSE(flow.is_ok());
}

TEST_F(MeshFlowTest, OutOfRangePeerTimesOut) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {500, 0});  // member, but unreachable
  settle();
  TimePoint t0 = bed.simulator().now();
  Status result = Status::ok();
  TimePoint failed;
  auto flow = bed.mesh().open_flow(a.wifi(), b.wifi().address(), 1000,
                                   [&](Status s) {
                                     result = std::move(s);
                                     failed = bed.simulator().now();
                                   });
  ASSERT_TRUE(flow.is_ok());  // the attempt starts...
  bed.simulator().run_for(Duration::seconds(5));
  EXPECT_FALSE(result.is_ok());  // ...but times out
  EXPECT_EQ(failed - t0, bed.calibration().tcp_connect_timeout);
}

TEST_F(MeshFlowTest, PeerLeavingMidTransferFailsFlow) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  settle();
  Status result = Status::ok();
  bool called = false;
  bed.mesh().open_flow(a.wifi(), b.wifi().address(), 50'000'000,
                       [&](Status s) {
                         result = std::move(s);
                         called = true;
                       });
  bed.simulator().run_for(Duration::seconds(1));
  b.wifi().leave();
  bed.simulator().run_for(Duration::seconds(1));
  EXPECT_TRUE(called);
  EXPECT_FALSE(result.is_ok());
}

TEST_F(MeshFlowTest, PeerMovingOutOfRangeFailsFlow) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  settle();
  Status result = Status::ok();
  bool called = false;
  bed.mesh().open_flow(a.wifi(), b.wifi().address(), 50'000'000,
                       [&](Status s) {
                         result = std::move(s);
                         called = true;
                       });
  bed.simulator().run_for(Duration::seconds(1));
  bed.world().set_position(b.node(), {1000, 0});
  bed.simulator().run_for(Duration::seconds(2));  // validator notices
  EXPECT_TRUE(called);
  EXPECT_FALSE(result.is_ok());
}

TEST_F(MeshFlowTest, CancelledFlowReportsNothing) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  settle();
  bool called = false;
  auto flow = bed.mesh().open_flow(a.wifi(), b.wifi().address(), 50'000'000,
                                   [&](Status) { called = true; });
  ASSERT_TRUE(flow.is_ok());
  bed.simulator().run_for(Duration::millis(100));
  bed.mesh().cancel_flow(flow.value());
  EXPECT_EQ(bed.mesh().active_flow_count(), 0u);
  bed.simulator().run_for(Duration::seconds(10));
  EXPECT_FALSE(called);
}

TEST_F(MeshFlowTest, SmallUnicastDatagramDelivery) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  settle();
  Bytes got;
  b.wifi().add_datagram_handler(
      [&](const MeshAddress&, const SharedBytes& payload, bool multicast) {
        if (!multicast) got = *payload;
      });
  ASSERT_TRUE(
      bed.mesh().send_datagram(a.wifi(), b.wifi().address(), Bytes{5, 5})
          .is_ok());
  bed.simulator().run_for(Duration::millis(100));
  EXPECT_EQ(got, (Bytes{5, 5}));
}

TEST_F(MeshFlowTest, TransferEnergyChargedToBothEndpoints) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  settle();
  TimePoint t0 = bed.simulator().now();
  bed.mesh().open_flow(a.wifi(), b.wifi().address(), 8'100'000, nullptr);
  bed.simulator().run_for(Duration::seconds(3));
  double standby = bed.calibration().wifi_standby_ma;
  double a_extra =
      a.meter().average_ma(t0, t0 + Duration::seconds(1)) - standby;
  double b_extra =
      b.meter().average_ma(t0, t0 + Duration::seconds(1)) - standby;
  EXPECT_GT(a_extra, 50.0);  // sender tx-busy
  EXPECT_GT(b_extra, 50.0);  // receiver rx-busy
}

}  // namespace
}  // namespace omni::radio
