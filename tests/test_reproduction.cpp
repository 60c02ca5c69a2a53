// Regression guards on the paper's headline numbers: quick versions of the
// bench scenarios asserting the calibrated reproduction stays on target.
// If a model change moves any of these, the corresponding bench (and
// EXPERIMENTS.md) needs revisiting.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/directory.h"
#include "baselines/omni_stack.h"
#include "baselines/sa_node.h"
#include "net/testbed.h"
#include "omni/omni_node.h"

namespace omni {
namespace {

constexpr std::uint8_t kReq = 0x01;
constexpr std::uint8_t kResp = 0x02;

struct Interaction {
  double latency_ms = -1;
};

// One warmup + request/response interaction over a pair of stacks.
Interaction interact(net::Testbed& bed, baselines::D2dStack& initiator,
                     baselines::D2dStack& service, std::size_t resp_bytes,
                     Duration warmup) {
  service.set_data_handler(
      [&](baselines::D2dStack::PeerId from, BytesView d) {
        if (!d.empty() && d[0] == kReq) {
          service.send(from, Bytes(resp_bytes, kResp), nullptr);
        }
      });
  std::optional<TimePoint> done;
  initiator.set_data_handler(
      [&](baselines::D2dStack::PeerId, BytesView d) {
        if (!d.empty() && d[0] == kResp && !done) {
          done = bed.simulator().now();
        }
      });
  service.start();
  initiator.start();
  service.advertise(Bytes{'s'}, Duration::millis(500));
  initiator.advertise(Bytes{'i'}, Duration::millis(500));
  bed.simulator().run_for(warmup);
  TimePoint t0 = bed.simulator().now();
  initiator.send(service.self(), Bytes(30, kReq), nullptr);
  bed.simulator().run_for(Duration::seconds(30));
  Interaction r;
  if (done) r.latency_ms = (*done - t0).as_millis();
  return r;
}

TEST(ReproductionTest, OmniBleContextWifiData30B) {
  // Paper Table 4: Omni BLE/WiFi 30B latency = 16 ms (per exchange).
  net::Testbed bed(7001);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode na(da, bed.mesh());
  OmniNode nb(db, bed.mesh());
  baselines::OmniStack a(na), b(nb);
  Interaction r = interact(bed, a, b, 30, Duration::seconds(10));
  // Request (16 ms) + response (16 ms).
  EXPECT_NEAR(r.latency_ms, 32.0, 2.0);
}

TEST(ReproductionTest, OmniBleContextWifiData25MB) {
  // Paper Table 4: Omni BLE/WiFi 25MB latency = 3112 ms.
  net::Testbed bed(7002);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode na(da, bed.mesh());
  OmniNode nb(db, bed.mesh());
  baselines::OmniStack a(na), b(nb);
  Interaction r = interact(bed, a, b, 25'000'000, Duration::seconds(10));
  EXPECT_NEAR(r.latency_ms, 3112.0, 100.0);
}

TEST(ReproductionTest, SaBleContextWifiData30BPaysRitual) {
  // Paper Table 4: SA BLE/WiFi 30B latency = 2793 ms.
  net::Testbed bed(7003);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  baselines::Directory dir;
  baselines::SaNode a(da, bed.mesh(), dir), b(db, bed.mesh(), dir);
  Interaction r = interact(bed, a, b, 30, Duration::seconds(10));
  EXPECT_NEAR(r.latency_ms, 2793.0 + 32.0, 60.0);
}

TEST(ReproductionTest, OmniBleBleInteractionIs82ms) {
  // Paper Table 4: the BLE/BLE service latency, 82 ms for every approach.
  net::Testbed bed(7004);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNodeOptions options;
  options.wifi_unicast = false;  // BLE-only configuration
  OmniNode na(da, bed.mesh(), options);
  OmniNode nb(db, bed.mesh(), options);
  baselines::OmniStack a(na), b(nb);
  Interaction r = interact(bed, a, b, 30, Duration::seconds(10));
  EXPECT_NEAR(r.latency_ms, 82.0, 2.0);
}

TEST(ReproductionTest, OmniIdleEnergyNearPaper) {
  // Paper Table 4: Omni BLE/BLE energy = 7.52 mA relative to WiFi-standby.
  net::Testbed bed(7005);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNodeOptions options;
  options.wifi_unicast = false;
  OmniNode na(da, bed.mesh(), options);
  OmniNode nb(db, bed.mesh(), options);
  na.start();
  nb.start();
  bed.simulator().run_for(Duration::seconds(60));
  double rel = da.meter().average_ma(TimePoint::origin(),
                                     bed.simulator().now()) -
               bed.calibration().wifi_standby_ma;
  EXPECT_NEAR(rel, 7.52, 0.8);
}

TEST(ReproductionTest, WifiRitualLatencies) {
  // The two calibrated discovery rituals: 2793 ms and 3229 ms (paper §4.2).
  const auto& cal = radio::Calibration::defaults();
  double basic = (cal.wifi_scan_duration + cal.wifi_join_duration +
                  cal.wifi_resolve_query)
                     .as_millis();
  double full = basic + cal.wifi_advert_wait.as_millis();
  EXPECT_DOUBLE_EQ(basic, 2793.0);
  EXPECT_DOUBLE_EQ(full, 3229.0);
}

TEST(ReproductionTest, TcpReferencePoints) {
  // 16 ms setup; 25 MB in ~3.086 s at 8.1 MB/s.
  const auto& cal = radio::Calibration::defaults();
  EXPECT_DOUBLE_EQ(
      (cal.wifi_rtt * 3.0 + cal.tcp_setup_overhead).as_millis(), 16.0);
  EXPECT_NEAR(25e6 / cal.wifi_capacity_Bps, 3.086, 0.01);
}

TEST(ReproductionTest, MulticastReferencePoints) {
  const auto& cal = radio::Calibration::defaults();
  // Bulk goodput ~142 KB/s (the slow SP data path).
  double frag_occ = cal.wifi_multicast_mtu * 8.0 /
                        cal.wifi_multicast_base_rate_bps +
                    cal.wifi_multicast_overhead.as_seconds();
  EXPECT_NEAR(cal.wifi_multicast_mtu / frag_occ, 142e3, 5e3);
  // Three 500 ms beacon streams cost ~8.4% of TCP airtime (Table 5's
  // ~8.6% effect).
  EXPECT_NEAR(3 * cal.wifi_multicast_beacon_occupancy.as_seconds() / 0.5,
              0.084, 0.001);
}

}  // namespace
}  // namespace omni
