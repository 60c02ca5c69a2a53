// 802.11 multicast model: datagram delivery, bulk fragmentation at the base
// rate, and the airtime deduction that slows concurrent TCP flows (the
// mechanism behind the paper's Table 5 "multicast impedes TCP" effect).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/testbed.h"
#include "obs/omniscope.h"
#include "obs/trace_file.h"
#include "radio/mesh.h"
#include "radio/wifi_radio.h"

namespace omni::radio {
namespace {

class MeshMulticastTest : public ::testing::Test {
 protected:
  net::Device& joined_device(const std::string& name, sim::Vec2 pos) {
    auto& dev = bed.add_device(name, pos);
    dev.wifi().set_powered(true);
    dev.wifi().join(bed.mesh(), [](Status) {});
    return dev;
  }
  void settle() { bed.simulator().run_for(Duration::seconds(1)); }

  net::Testbed bed{9};
};

TEST_F(MeshMulticastTest, DatagramReachesAllMembersInRange) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  auto& c = joined_device("c", {20, 0});
  auto& far = joined_device("far", {500, 0});
  settle();

  int b_got = 0, c_got = 0, far_got = 0, a_got = 0;
  auto counter = [](int* n) {
    return [n](const MeshAddress&, const SharedBytes&, bool multicast) {
      if (multicast) ++*n;
    };
  };
  a.wifi().add_datagram_handler(counter(&a_got));
  b.wifi().add_datagram_handler(counter(&b_got));
  c.wifi().add_datagram_handler(counter(&c_got));
  far.wifi().add_datagram_handler(counter(&far_got));

  ASSERT_TRUE(bed.mesh().multicast_datagram(a.wifi(), Bytes{1}).is_ok());
  bed.simulator().run_for(Duration::seconds(1));
  EXPECT_EQ(a_got, 0);  // no self-delivery
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 1);
  EXPECT_EQ(far_got, 0);  // out of range
}

TEST_F(MeshMulticastTest, NonMemberCannotMulticast) {
  auto& a = bed.add_device("a", {0, 0});
  a.wifi().set_powered(true);
  EXPECT_FALSE(bed.mesh().multicast_datagram(a.wifi(), Bytes{1}).is_ok());
}

TEST_F(MeshMulticastTest, BulkTransferRunsAtBaseRateGoodput) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  settle();

  const std::uint64_t kBytes = 1'400'000;  // 1000 fragments
  TimePoint t0 = bed.simulator().now();
  TimePoint done;
  ASSERT_TRUE(bed.mesh()
                  .multicast_bulk(a.wifi(), kBytes, Bytes{9},
                                  [&](std::vector<WifiRadio*> rx) {
                                    EXPECT_EQ(rx.size(), 1u);
                                    done = bed.simulator().now();
                                  })
                  .is_ok());
  bed.simulator().run_for(Duration::seconds(60));

  const auto& cal = bed.calibration();
  double frag_occ = static_cast<double>(cal.wifi_multicast_mtu) * 8.0 /
                        cal.wifi_multicast_base_rate_bps +
                    cal.wifi_multicast_overhead.as_seconds();
  double expected = 1000 * frag_occ;  // ~9.87 s: the slow multicast path
  EXPECT_NEAR((done - t0).as_seconds(), expected, expected * 0.05);
  // Payload metadata delivered to the receiver.
  (void)b;
}

TEST_F(MeshMulticastTest, BulkItemsAreServedInOrder) {
  auto& a = joined_device("a", {0, 0});
  joined_device("b", {10, 0});
  settle();

  std::vector<int> order;
  bed.mesh().multicast_bulk(a.wifi(), 140'000, Bytes{1},
                            [&](auto) { order.push_back(1); });
  bed.mesh().multicast_bulk(a.wifi(), 140'000, Bytes{2},
                            [&](auto) { order.push_back(2); });
  bed.simulator().run_for(Duration::seconds(30));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// A bulk item is lost whole per receiver. Each loss is counted once, in the
// fault plan, and traced as one fault.drop instant in the Omniscope; both
// equal the deliveries that did not happen.
TEST_F(MeshMulticastTest, BulkFaultDropsCountInPlanAndScope) {
  obs::Omniscope& scope = bed.enable_observability();
  sim::FaultPlan& plan = bed.fault_plan();
  sim::FaultPlan::LinkFault lossy;
  lossy.radio = sim::FaultRadio::kWifi;
  lossy.loss = 0.5;
  plan.add_link_fault(lossy);
  auto& a = joined_device("a", {0, 0});
  std::vector<net::Device*> receivers;
  for (int i = 0; i < 6; ++i) {
    receivers.push_back(
        &joined_device("r" + std::to_string(i), {5.0 + i, 0}));
  }
  settle();
  std::uint64_t delivered = 0;
  for (net::Device* d : receivers) {
    d->wifi().add_datagram_handler(
        [&](const MeshAddress&, const SharedBytes&, bool multicast) {
          if (multicast) ++delivered;
        });
  }
  constexpr std::uint64_t kItems = 20;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    ASSERT_TRUE(bed.mesh()
                    .multicast_bulk(a.wifi(), 1'400,
                                    Bytes{static_cast<std::uint8_t>(i)},
                                    nullptr)
                    .is_ok());
  }
  bed.simulator().run_for(Duration::seconds(10));
  const std::uint64_t lost = kItems * receivers.size() - delivered;
  EXPECT_GT(lost, 0u);
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(plan.stats().drops, lost);
  const obs::TraceCapture cap = obs::capture(scope);
  ASSERT_EQ(cap.dropped, 0u);
  const auto traced = std::count_if(
      cap.records.begin(), cap.records.end(), [](const obs::TraceRecord& r) {
        return r.cat == static_cast<std::uint16_t>(obs::Cat::kFaultDrop);
      });
  EXPECT_EQ(static_cast<std::uint64_t>(traced), lost);
}

TEST_F(MeshMulticastTest, PeriodicLoadReducesTcpCapacity) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  settle();

  const auto& cal = bed.calibration();
  double clean = bed.mesh().effective_capacity_Bps();
  EXPECT_DOUBLE_EQ(clean, cal.wifi_capacity_Bps);

  // Three devices beaconing every 500 ms, like the SA Disseminate setup.
  auto l1 = bed.mesh().register_periodic_multicast(Duration::millis(500));
  auto l2 = bed.mesh().register_periodic_multicast(Duration::millis(500));
  auto l3 = bed.mesh().register_periodic_multicast(Duration::millis(500));
  double loaded = bed.mesh().effective_capacity_Bps();
  double beacon_frac = cal.wifi_multicast_beacon_occupancy.as_seconds() / 0.5;
  EXPECT_NEAR(loaded / clean, 1.0 - 3 * beacon_frac, 1e-9);

  // And a flow actually slows down by that factor.
  TimePoint t0 = bed.simulator().now();
  TimePoint done;
  bed.mesh().open_flow(a.wifi(), b.wifi().address(), 8'100'000,
                       [&](Status) { done = bed.simulator().now(); });
  bed.simulator().run_for(Duration::seconds(10));
  EXPECT_NEAR((done - t0).as_seconds(), 1.0 / (1.0 - 3 * beacon_frac), 0.05);

  bed.mesh().unregister_periodic_multicast(l1);
  bed.mesh().unregister_periodic_multicast(l2);
  bed.mesh().unregister_periodic_multicast(l3);
  EXPECT_DOUBLE_EQ(bed.mesh().effective_capacity_Bps(), clean);
}

TEST_F(MeshMulticastTest, BulkBacklogHalvesTcpCapacity) {
  auto& a = joined_device("a", {0, 0});
  joined_device("b", {10, 0});
  settle();
  double clean = bed.mesh().effective_capacity_Bps();
  bed.mesh().multicast_bulk(a.wifi(), 14'000'000, Bytes{1}, nullptr);
  bed.simulator().run_for(Duration::millis(10));
  EXPECT_NEAR(bed.mesh().effective_capacity_Bps(), clean * 0.5, 1.0);
  bed.simulator().run_for(Duration::seconds(300));  // backlog drains
  EXPECT_DOUBLE_EQ(bed.mesh().effective_capacity_Bps(), clean);
}

TEST_F(MeshMulticastTest, RateChangeMidFlowPreservesTotalBytes) {
  auto& a = joined_device("a", {0, 0});
  auto& b = joined_device("b", {10, 0});
  settle();

  // 8.1 MB flow; halfway through, multicast load appears.
  TimePoint t0 = bed.simulator().now();
  TimePoint done;
  bed.mesh().open_flow(a.wifi(), b.wifi().address(), 8'100'000,
                       [&](Status) { done = bed.simulator().now(); });
  PeriodicLoadId load = 0;
  bed.simulator().after(Duration::millis(500), [&] {
    load = bed.mesh().register_periodic_multicast(Duration::millis(100));
  });
  bed.simulator().run_for(Duration::seconds(10));
  const auto& cal = bed.calibration();
  double frac = cal.wifi_multicast_beacon_occupancy.as_seconds() / 0.1;
  // First 0.5 s at full rate moves 4.05 MB (minus setup), the rest at the
  // reduced rate. Completion should be within a sane envelope.
  double remaining_fraction = 0.5 / (1 - frac);
  EXPECT_NEAR((done - t0).as_seconds(), 0.5 + remaining_fraction + 0.016,
              0.05);
  bed.mesh().unregister_periodic_multicast(load);
}

}  // namespace
}  // namespace omni::radio
