// Reproduces Table 3: baseline current draw for D2D technology operations,
// relative to WiFi-standby (the paper's reporting convention).
//
// Each operation is exercised on the simulated testbed and its average draw
// measured by the energy meter over exactly the operation window — the
// virtual equivalent of reading the paper's inline USB power meter during
// one operation.
#include <cstdio>

#include "bench_util.h"
#include "net/testbed.h"
#include "radio/mesh.h"

namespace omni {
namespace {

using bench::print_compare;
using bench::print_heading;

double measure_wifi_receive(net::Testbed& bed) {
  auto& rx = bed.add_device("rx", {0, 0});
  auto& tx = bed.add_device("tx", {10, 0});
  rx.wifi().set_powered(true);
  tx.wifi().set_powered(true);
  bool joined = false;
  rx.wifi().join(bed.mesh(), [&](Status) {
    tx.wifi().join(bed.mesh(), [&](Status) { joined = true; });
  });
  bed.simulator().run_for(Duration::seconds(2));
  OMNI_CHECK(joined);

  // Saturating 10 MB transfer; the receiver's radio is in active receive for
  // the whole transfer window.
  TimePoint t0 = bed.simulator().now();
  TimePoint t1 = t0;
  bed.mesh().open_flow(tx.wifi(), rx.wifi().address(), 10'000'000,
                       [&](Status) { t1 = bed.simulator().now(); });
  bed.simulator().run_for(Duration::seconds(10));
  const auto& cal = bed.calibration();
  // Skip the connection-setup head so only the receive phase is averaged.
  TimePoint start = t0 + cal.wifi_rtt * 3.0 + cal.tcp_setup_overhead;
  return rx.meter().average_ma(start, t1) - cal.wifi_standby_ma;
}

double measure_wifi_send(net::Testbed& bed) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  a.wifi().set_powered(true);
  b.wifi().set_powered(true);
  a.wifi().join(bed.mesh(), [](Status) {});
  b.wifi().join(bed.mesh(), [](Status) {});
  bed.simulator().run_for(Duration::seconds(2));

  // One multicast service announcement: the paper's "transmitting a single
  // service request (WiFi-send)".
  const auto& cal = bed.calibration();
  TimePoint t0 = bed.simulator().now();
  bed.mesh().multicast_datagram(a.wifi(), Bytes(40, 0x1));
  TimePoint t1 = t0 + cal.wifi_multicast_send_burst;
  bed.simulator().run_for(Duration::seconds(1));
  return a.meter().average_ma(t0, t1) - cal.wifi_standby_ma;
}

double measure_wifi_scan(net::Testbed& bed) {
  auto& a = bed.add_device("a", {0, 0});
  a.wifi().set_powered(true);
  const auto& cal = bed.calibration();
  TimePoint t0 = bed.simulator().now();
  a.wifi().scan([](std::vector<radio::MeshNetwork*>) {});
  TimePoint t1 = t0 + cal.wifi_scan_duration;
  bed.simulator().run_for(Duration::seconds(5));
  return a.meter().average_ma(t0, t1) - cal.wifi_standby_ma;
}

double measure_wifi_connect(net::Testbed& bed) {
  auto& a = bed.add_device("a", {0, 0});
  a.wifi().set_powered(true);
  const auto& cal = bed.calibration();
  TimePoint t0 = bed.simulator().now();
  a.wifi().join(bed.mesh(), [](Status) {});
  TimePoint t1 = t0 + cal.wifi_join_duration;
  bed.simulator().run_for(Duration::seconds(2));
  return a.meter().average_ma(t0, t1) - cal.wifi_standby_ma;
}

double measure_ble_scan(net::Testbed& bed) {
  auto& a = bed.add_device("a", {0, 0});
  a.ble().set_scanning(true, 1.0);
  TimePoint t0 = bed.simulator().now();
  bed.simulator().run_for(Duration::seconds(10));
  // BLE standby is ~0 (below the paper's meter resolution); WiFi is off, so
  // the whole draw is the scanner.
  return a.meter().average_ma(t0, bed.simulator().now());
}

double measure_ble_advertise(net::Testbed& bed) {
  auto& a = bed.add_device("a", {0, 0});
  auto adv = a.ble().start_advertising(Bytes(23, 0x2), Duration::millis(100));
  OMNI_CHECK(adv.is_ok());
  const auto& cal = bed.calibration();
  // Average over one advertising event.
  TimePoint t0 = TimePoint::origin() + Duration::millis(100);
  TimePoint t1 = t0 + cal.ble_adv_event;
  bed.simulator().run_for(Duration::seconds(1));
  return a.meter().average_ma(t0, t1);
}

}  // namespace
}  // namespace omni

int main() {
  using namespace omni;
  bench::print_heading(
      "Table 3: Baseline current draw for D2D technology operations (mA, "
      "relative to WiFi-standby)");

  struct Row {
    const char* label;
    double paper;
    double (*measure)(net::Testbed&);
  };
  const Row rows[] = {
      {"WiFi-receive", 162.4, measure_wifi_receive},
      {"WiFi-send", 183.3, measure_wifi_send},
      {"WiFi-scan for networks", 129.2, measure_wifi_scan},
      {"WiFi-connect to network", 169.0, measure_wifi_connect},
      {"BLE-scan", 7.0, measure_ble_scan},
      {"BLE-advertise", 8.2, measure_ble_advertise},
  };
  for (const Row& row : rows) {
    net::Testbed bed(7);
    bench::print_compare(row.label, row.paper, row.measure(bed), "mA");
  }
  std::printf(
      "\nNote: operation currents are calibrated from the paper's own Table "
      "3 (see src/radio/calibration.h); this bench verifies the energy-"
      "metering path reproduces them end-to-end through the radio models.\n");
  return 0;
}
