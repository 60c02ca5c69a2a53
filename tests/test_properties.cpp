// Parameterized property sweeps over the core invariants:
//   * fluid TCP time is linear in transfer size and in flow count;
//   * discovery latency is bounded by the beacon interval;
//   * multicast load scales capacity down exactly linearly;
//   * data of any size is delivered bit-exact through the Omni pipeline,
//     across the BLE/WiFi payload boundary;
//   * random topologies converge to full mutual discovery.
#include <gtest/gtest.h>

#include <memory>

#include "net/testbed.h"
#include "omni/omni_node.h"
#include "radio/mesh.h"

namespace omni {
namespace {

// --- TCP time ~ size --------------------------------------------------------

class FlowSizeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowSizeSweep, TransferTimeLinearInSize) {
  net::Testbed bed(61);
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  for (auto* d : {&a, &b}) {
    d->wifi().set_powered(true);
    d->wifi().join(bed.mesh(), [](Status) {});
  }
  bed.simulator().run_for(Duration::seconds(1));

  std::uint64_t bytes = GetParam();
  TimePoint t0 = bed.simulator().now();
  TimePoint done;
  bed.mesh().open_flow(a.wifi(), b.wifi().address(), bytes,
                       [&](Status s) {
                         ASSERT_TRUE(s.is_ok());
                         done = bed.simulator().now();
                       });
  bed.simulator().run_for(Duration::seconds(60));
  const auto& cal = bed.calibration();
  double expected = (cal.wifi_rtt * 3.0 + cal.tcp_setup_overhead).as_seconds() +
                    static_cast<double>(bytes) / cal.wifi_capacity_Bps;
  EXPECT_NEAR((done - t0).as_seconds(), expected, expected * 0.01 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FlowSizeSweep,
                         ::testing::Values(1, 1000, 30'000, 1'000'000,
                                           8'100'000, 25'000'000,
                                           100'000'000));

// --- TCP time ~ flow count --------------------------------------------------

class FlowCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(FlowCountSweep, ConcurrentFlowsShareFairly) {
  int n = GetParam();
  net::Testbed bed(62);
  std::vector<net::Device*> devs;
  for (int i = 0; i <= n; ++i) {
    devs.push_back(&bed.add_device("d" + std::to_string(i),
                                   {static_cast<double>(i), 0}));
    devs.back()->wifi().set_powered(true);
    devs.back()->wifi().join(bed.mesh(), [](Status) {});
  }
  bed.simulator().run_for(Duration::seconds(1));

  const std::uint64_t kBytes = 2'000'000;
  TimePoint t0 = bed.simulator().now();
  std::vector<TimePoint> done(n);
  for (int i = 0; i < n; ++i) {
    bed.mesh().open_flow(devs[i]->wifi(), devs[n]->wifi().address(), kBytes,
                         [&, i](Status s) {
                           ASSERT_TRUE(s.is_ok());
                           done[i] = bed.simulator().now();
                         });
  }
  bed.simulator().run_for(Duration::seconds(120));
  double solo = static_cast<double>(kBytes) /
                bed.calibration().wifi_capacity_Bps;
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR((done[i] - t0).as_seconds(), solo * n, solo * n * 0.05 + 0.05)
        << "flow " << i << " of " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, FlowCountSweep, ::testing::Range(1, 7));

// --- Discovery latency ~ beacon interval -------------------------------------

class BeaconIntervalSweep : public ::testing::TestWithParam<int> {};

TEST_P(BeaconIntervalSweep, DiscoveryWithinTwoIntervals) {
  Duration interval = Duration::millis(GetParam());
  net::Testbed bed(63);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNodeOptions options;
  options.manager.beacon_interval = interval;
  OmniNode a(da, bed.mesh(), options);
  OmniNode b(db, bed.mesh(), options);
  a.start();
  b.start();

  TimePoint t0 = bed.simulator().now();
  // Step in small increments and record the first sighting.
  TimePoint first = TimePoint::max();
  for (int step = 0; step < 500 && first == TimePoint::max(); ++step) {
    bed.simulator().run_for(interval / 20);
    if (a.manager().peer_table().find(b.address()) != nullptr) {
      first = bed.simulator().now();
    }
  }
  ASSERT_NE(first, TimePoint::max());
  // First sighting cannot precede one full interval (beacons are not
  // instant) and should land within ~3 intervals at 90% capture.
  EXPECT_GE(first - t0, interval * 0.99);
  EXPECT_LE(first - t0, interval * 3.0 + Duration::millis(50));
}

INSTANTIATE_TEST_SUITE_P(Intervals, BeaconIntervalSweep,
                         ::testing::Values(100, 250, 500, 1000, 2000));

// --- Multicast load linearity -------------------------------------------------

class MulticastLoadSweep : public ::testing::TestWithParam<int> {};

TEST_P(MulticastLoadSweep, CapacityScalesLinearly) {
  int sources = GetParam();
  net::Testbed bed(64);
  double clean = bed.mesh().effective_capacity_Bps();
  std::vector<radio::PeriodicLoadId> loads;
  for (int i = 0; i < sources; ++i) {
    loads.push_back(
        bed.mesh().register_periodic_multicast(Duration::millis(500)));
  }
  double frac =
      bed.calibration().wifi_multicast_beacon_occupancy.as_seconds() / 0.5;
  EXPECT_NEAR(bed.mesh().effective_capacity_Bps(),
              clean * (1.0 - sources * frac), 1.0);
  for (auto id : loads) bed.mesh().unregister_periodic_multicast(id);
  EXPECT_DOUBLE_EQ(bed.mesh().effective_capacity_Bps(), clean);
}

INSTANTIATE_TEST_SUITE_P(Sources, MulticastLoadSweep,
                         ::testing::Range(0, 12, 2));

// --- Omni end-to-end payload fidelity across the BLE/WiFi boundary ----------

class DataSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DataSizeSweep, PayloadDeliveredBitExact) {
  net::Testbed bed(65);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode a(da, bed.mesh());
  OmniNode b(db, bed.mesh());
  Bytes received;
  b.manager().request_data(
      [&](const OmniAddress&, BytesView data) {
        received.assign(data.begin(), data.end());
      });
  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(3));

  std::size_t size = GetParam();
  Bytes payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  bool ok = false;
  a.manager().send_data({b.address()}, payload,
                        [&](StatusCode code, const ResponseInfo&) {
                          ok = code == StatusCode::kSendDataSuccess;
                        });
  bed.simulator().run_for(Duration::seconds(30));
  EXPECT_TRUE(ok);
  EXPECT_EQ(received, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DataSizeSweep,
                         ::testing::Values(1, 30, 46, 47, 55, 56, 1000,
                                           100'000, 1'000'000));

// --- Random topology discovery convergence -----------------------------------

class TopologySweep : public ::testing::TestWithParam<int> {};

TEST_P(TopologySweep, CliqueWithinBleRangeFullyDiscovers) {
  net::Testbed bed(static_cast<std::uint64_t>(GetParam()));
  auto& rng = bed.simulator().rng();
  constexpr int kNodes = 5;
  std::vector<std::unique_ptr<OmniNode>> nodes;
  for (int i = 0; i < kNodes; ++i) {
    // All within a 20 m disc: far inside BLE range of each other.
    sim::Vec2 pos{rng.uniform(0, 20), rng.uniform(0, 20)};
    auto& dev = bed.add_device("n" + std::to_string(i), pos);
    nodes.push_back(std::make_unique<OmniNode>(dev, bed.mesh()));
  }
  for (auto& n : nodes) n->start();
  bed.simulator().run_for(Duration::seconds(5));
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_EQ(nodes[i]->manager().peer_table().size(), kNodes - 1u)
        << "node " << i << " (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologySweep, ::testing::Range(100, 110));

}  // namespace
}  // namespace omni
