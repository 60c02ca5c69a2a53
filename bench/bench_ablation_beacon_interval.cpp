// Ablation: the address-beacon interval (fixed at 500 ms in the paper,
// §3.3 "For simplicity we have fixed the interval for this beacon to be
// every 500 ms"). Sweeps the interval and reports the discovery-latency /
// idle-energy tradeoff that fixed value sits on. The adaptive interval (paper
// §5) is DiscoveryPolicy's; bench_discovery measures it.
#include "bench_util.h"
#include "net/testbed.h"
#include "omni/omni_node.h"

namespace omni {
namespace {

struct Sample {
  double discovery_ms = 0;  // mean over trials
  double idle_ma = 0;       // BLE-side draw, WiFi-standby excluded
};

Sample measure(Duration interval, std::uint64_t seed) {
  // Discovery latency: mean first-sighting time across trials.
  double total_ms = 0;
  const int kTrials = 10;
  for (int trial = 0; trial < kTrials; ++trial) {
    net::Testbed bed(seed + trial);
    auto& da = bed.add_device("a", {0, 0});
    auto& db = bed.add_device("b", {10, 0});
    OmniNodeOptions options;
    options.manager.beacon_interval = interval;
    OmniNode a(da, bed.mesh(), options);
    OmniNode b(db, bed.mesh(), options);
    a.start();
    b.start();
    TimePoint found = TimePoint::max();
    while (found == TimePoint::max() &&
           bed.simulator().now().as_seconds() < 60) {
      bed.simulator().run_for(interval / 20);
      if (a.manager().peer_table().find(b.address()) != nullptr) {
        found = bed.simulator().now();
      }
    }
    total_ms += found.as_millis();
  }

  // Idle energy: a stable pair over two minutes, steady-state window.
  net::Testbed bed(seed + 100);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNodeOptions options;
  options.manager.beacon_interval = interval;
  OmniNode a(da, bed.mesh(), options);
  OmniNode b(db, bed.mesh(), options);
  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(120));
  double idle = da.meter().average_ma(
                    TimePoint::origin() + Duration::seconds(60),
                    bed.simulator().now()) -
                bed.calibration().wifi_standby_ma;
  return Sample{total_ms / kTrials, idle};
}

}  // namespace
}  // namespace omni

int main() {
  using namespace omni;
  bench::print_heading(
      "Ablation: address-beacon interval (paper fixes 500 ms)\n"
      "Discovery latency vs idle energy, 2 devices over BLE");

  bench::Table table({"Interval", "Mean discovery (ms)",
                      "Idle energy (mA, rel.)"});
  for (int ms : {100, 250, 500, 1000, 2000}) {
    Sample s = measure(Duration::millis(ms), 1000 + ms);
    table.add_row({std::to_string(ms) + " ms",
                   bench::fmt(s.discovery_ms, 0), bench::fmt(s.idle_ma)});
  }
  table.print();
  return 0;
}
