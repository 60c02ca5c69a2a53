// Reproduces Table 4 (and Figures 4 & 5): the controlled comparison of
// State of the Practice, State of the Art, and Omni across context/data
// technology pairings.
//
// Protocol (paper §4.2): two devices; the initiating device is idle for 60 s
// while the underlying system transmits address and service information
// every 500 ms; it then performs a send/receive interaction with the
// discovered remote service (30 B request; 30 B or 25 MB response). Energy
// is the initiator's average current over the run, relative to WiFi-standby;
// latency runs from interaction initiation to response receipt.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "baselines/directory.h"
#include "baselines/omni_stack.h"
#include "baselines/sa_node.h"
#include "baselines/sp_ble_node.h"
#include "baselines/sp_wifi_node.h"
#include "bench_util.h"
#include "net/testbed.h"
#include "omni/omni_node.h"

namespace omni {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

enum class Approach { kSp, kSa, kOmni };
enum class CtxTech { kBle, kWifi };


struct RunResult {
  bool completed = false;
  double energy_ma = 0;   // relative to WiFi-standby
  double latency_ms = 0;  // interaction initiation -> response received
};

struct Scenario {
  baselines::D2dStack* initiator = nullptr;
  baselines::D2dStack* service = nullptr;
};

constexpr std::uint8_t kRequestTag = 0x01;
constexpr std::uint8_t kResponseTag = 0x02;

RunResult run_scenario(net::Testbed& bed, net::Device& init_dev,
                       Scenario scenario, std::size_t response_bytes) {
  auto& sim = bed.simulator();
  const Duration kWarmup = Duration::seconds(60);

  // Service: advertise availability; answer requests with the response blob.
  scenario.service->set_advert_handler(nullptr);
  scenario.service->set_data_handler(
      [&](baselines::D2dStack::PeerId from, BytesView data) {
        if (!data.empty() && data[0] == kRequestTag) {
          Bytes response(response_bytes, kResponseTag);
          scenario.service->send(from, std::move(response), nullptr);
        }
      });

  // Initiator: record when the response lands.
  std::optional<TimePoint> response_at;
  scenario.initiator->set_data_handler(
      [&](baselines::D2dStack::PeerId, BytesView data) {
        if (!data.empty() && data[0] == kResponseTag && !response_at) {
          response_at = sim.now();
        }
      });

  scenario.service->start();
  scenario.initiator->start();
  scenario.service->advertise(Bytes{'s', 'v', 'c'}, Duration::millis(500));
  scenario.initiator->advertise(Bytes{'i', 'n', 't'}, Duration::millis(500));

  sim.run_until(TimePoint::origin() + kWarmup);

  baselines::D2dStack::PeerId service_id = scenario.service->self();
  scenario.initiator->send(service_id, Bytes(30, kRequestTag), nullptr);

  sim.run_until(TimePoint::origin() + Duration::seconds(120));

  RunResult result;
  if (!response_at) return result;
  result.completed = true;
  result.latency_ms = (*response_at - (TimePoint::origin() + kWarmup))
                          .as_millis();
  result.energy_ma =
      init_dev.meter().average_ma(TimePoint::origin(), *response_at) -
      bed.calibration().wifi_standby_ma;
  return result;
}

RunResult run(Approach approach, CtxTech ctx, std::size_t response_bytes,
              bool data_is_wifi) {
  net::Testbed bed(1234);
  auto& init_dev = bed.add_device("initiator", {0, 0});
  auto& svc_dev = bed.add_device("service", {10, 0});

  baselines::Directory directory;
  std::unique_ptr<baselines::D2dStack> init_stack;
  std::unique_ptr<baselines::D2dStack> svc_stack;
  std::unique_ptr<OmniNode> init_node;
  std::unique_ptr<OmniNode> svc_node;

  switch (approach) {
    case Approach::kSp: {
      // SP ties the whole app to a single technology.
      if (ctx == CtxTech::kBle) {
        init_stack = std::make_unique<baselines::SpBleNode>(init_dev);
        svc_stack = std::make_unique<baselines::SpBleNode>(svc_dev);
      } else {
        init_stack =
            std::make_unique<baselines::SpWifiNode>(init_dev, bed.mesh());
        svc_stack =
            std::make_unique<baselines::SpWifiNode>(svc_dev, bed.mesh());
      }
      break;
    }
    case Approach::kSa: {
      baselines::SaNode::Options options;
      options.enable_ble = ctx == CtxTech::kBle;
      options.enable_wifi = true;  // the overlay always spans all radios
      options.data_over_wifi = data_is_wifi;
      init_stack = std::make_unique<baselines::SaNode>(init_dev, bed.mesh(),
                                                       directory, options);
      svc_stack = std::make_unique<baselines::SaNode>(svc_dev, bed.mesh(),
                                                      directory, options);
      break;
    }
    case Approach::kOmni: {
      OmniNodeOptions options;
      options.ble = ctx == CtxTech::kBle;
      options.wifi_multicast = ctx == CtxTech::kWifi;
      // BLE/BLE row: no WiFi data technology registered (data rides BLE),
      // but the WiFi radio stays in standby per the measurement setup.
      options.wifi_unicast = data_is_wifi;
      options.wifi_standby = true;
      init_node = std::make_unique<OmniNode>(init_dev, bed.mesh(), options);
      svc_node = std::make_unique<OmniNode>(svc_dev, bed.mesh(), options);
      init_stack = std::make_unique<baselines::OmniStack>(*init_node);
      svc_stack = std::make_unique<baselines::OmniStack>(*svc_node);
      break;
    }
  }

  Scenario scenario{init_stack.get(), svc_stack.get()};
  return run_scenario(bed, init_dev, scenario, response_bytes);
}

struct Row {
  const char* label;
  CtxTech ctx;
  std::size_t response_bytes;
  bool data_is_wifi;
  // Paper values (energy mA; latency ms) for SP, SA, Omni; NaN = N/A.
  double paper_energy[3];
  double paper_latency[3];
};

}  // namespace
}  // namespace omni

int main() {
  using namespace omni;
  const Row rows[] = {
      {"BLE  / BLE (30B)", CtxTech::kBle, 30, false,
       {-92.07, 23.47, 7.52}, {82, 82, 82}},
      {"BLE  / WiFi (30B)", CtxTech::kBle, 30, true,
       {kNaN, 22.25, 9.11}, {kNaN, 2793, 16}},
      {"BLE  / WiFi (25MB)", CtxTech::kBle, 25'000'000, true,
       {kNaN, 43.41, 36.14}, {kNaN, 5982, 3112}},
      {"WiFi / WiFi (30B)", CtxTech::kWifi, 30, true,
       {21.86, 22.60, 23.12}, {3216, 3175, 3229}},
      {"WiFi / WiFi (25MB)", CtxTech::kWifi, 25'000'000, true,
       {39.78, 42.03, 41.41}, {6499, 6013, 6162}},
  };

  bench::print_heading(
      "Table 4: Performance comparison across approaches\n"
      "(2 devices, 60s warmup with 500ms discovery beacons, then a "
      "request/response interaction)");

  bench::Table energy_table({"Context/Data", "SP paper", "SP meas",
                             "SA paper", "SA meas", "Omni paper",
                             "Omni meas"});
  bench::Table latency_table({"Context/Data", "SP paper", "SP meas",
                              "SA paper", "SA meas", "Omni paper",
                              "Omni meas"});

  for (const Row& row : rows) {
    std::vector<std::string> ecells{row.label};
    std::vector<std::string> lcells{row.label};
    for (int a = 0; a < 3; ++a) {
      Approach approach = static_cast<Approach>(a);
      bool applicable = !std::isnan(row.paper_energy[a]);
      if (!applicable) {
        ecells.push_back("N/A");
        ecells.push_back("N/A");
        lcells.push_back("N/A");
        lcells.push_back("N/A");
        continue;
      }
      RunResult r =
          run(approach, row.ctx, row.response_bytes, row.data_is_wifi);
      ecells.push_back(bench::fmt(row.paper_energy[a]));
      ecells.push_back(r.completed ? bench::fmt(r.energy_ma) : "FAILED");
      lcells.push_back(bench::fmt(row.paper_latency[a], 0));
      lcells.push_back(r.completed ? bench::fmt(r.latency_ms, 0) : "FAILED");
    }
    energy_table.add_row(std::move(ecells));
    latency_table.add_row(std::move(lcells));
  }

  bench::print_heading(
      "Figure 4: Energy consumption comparison (avg mA rel. WiFi-standby)");
  energy_table.print();
  bench::print_heading(
      "Figure 5: Application interaction latency comparison (ms)");
  latency_table.print();

  std::printf(
      "\nExpected shape: Omni matches SP/SA on the BLE/BLE and WiFi/WiFi\n"
      "rows but wins dramatically on the BLE-context WiFi-data rows, where\n"
      "its ND-integrated address beacons skip the WiFi discovery ritual\n"
      "(~16ms vs ~2.8s for 30B). SP's BLE/BLE energy is negative because\n"
      "the hand-coded single-technology app powers the WiFi radio off.\n");
  return 0;
}
