// Reproduces Table 5 (and Figure 6): the Disseminate-like media-sharing
// application over Direct-download, SP (WiFi multicast only), SA (BLE +
// WiFi), and Omni (BLE + WiFi).
//
// Paper setup (§4.3): three devices collaborate to download a 30 MB file
// from a mock infrastructure network at 100 or 1000 KBps per-device rate;
// each device downloads its assigned third and the devices exchange pieces
// device-to-device. Time and energy are measured on an arbitrary device
// from the first transmission until it holds the entire file.
#include <cmath>
#include <cstdio>
#include <memory>

#include "apps/disseminate.h"
#include "baselines/directory.h"
#include "baselines/omni_stack.h"
#include "baselines/sa_node.h"
#include "baselines/sp_wifi_node.h"
#include "bench_util.h"
#include "net/infra.h"
#include "net/testbed.h"
#include "omni/omni_node.h"

namespace omni {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

enum class Approach { kDirect, kSp, kSa, kOmni };

struct RunResult {
  bool completed = false;
  double time_s = 0;
  double energy_ma = 0;  // avg over the run, relative to WiFi-standby
};

RunResult run(Approach approach, double rate_Bps) {
  net::Testbed bed(99);
  net::InfraNetwork infra(bed.simulator(), bed.calibration());

  apps::DisseminateConfig config;
  config.infra_rate_Bps = rate_Bps;
  config.share_via_broadcast = approach == Approach::kSp;

  const std::uint64_t chunk_count =
      (config.file_bytes + config.chunk_bytes - 1) / config.chunk_bytes;

  if (approach == Approach::kDirect) {
    // One device, no D2D: download everything from the infrastructure.
    auto& dev = bed.add_device("solo", {0, 0});
    dev.wifi().set_powered(true);
    std::uint64_t done = 0;
    TimePoint finished = TimePoint::max();
    for (std::uint64_t id = 0; id < chunk_count; ++id) {
      std::uint64_t bytes = std::min<std::uint64_t>(
          config.chunk_bytes, config.file_bytes - id * config.chunk_bytes);
      infra.fetch_chunk(dev.wifi(), id, bytes, rate_Bps,
                        [&, chunk_count](std::uint64_t) {
                          if (++done == chunk_count) {
                            finished = bed.simulator().now();
                          }
                        });
    }
    bed.simulator().run_for(Duration::seconds(400));
    RunResult r;
    if (finished == TimePoint::max()) return r;
    r.completed = true;
    r.time_s = finished.as_seconds();
    r.energy_ma = dev.meter().average_ma(TimePoint::origin(), finished) -
                  bed.calibration().wifi_standby_ma;
    return r;
  }

  const int kDevices = 3;
  std::vector<net::Device*> devices;
  for (int i = 0; i < kDevices; ++i) {
    devices.push_back(&bed.add_device("dev" + std::to_string(i),
                                      {static_cast<double>(i) * 10, 0}));
  }

  baselines::Directory directory;
  std::vector<std::unique_ptr<OmniNode>> omni_nodes;
  std::vector<std::unique_ptr<baselines::D2dStack>> stacks;
  for (int i = 0; i < kDevices; ++i) {
    switch (approach) {
      case Approach::kSp:
        stacks.push_back(std::make_unique<baselines::SpWifiNode>(*devices[i],
                                                                 bed.mesh()));
        break;
      case Approach::kSa:
        stacks.push_back(std::make_unique<baselines::SaNode>(
            *devices[i], bed.mesh(), directory));
        break;
      case Approach::kOmni: {
        OmniNodeOptions options;
        options.ble = true;
        options.wifi_unicast = true;
        options.wifi_multicast = false;
        omni_nodes.push_back(
            std::make_unique<OmniNode>(*devices[i], bed.mesh(), options));
        stacks.push_back(
            std::make_unique<baselines::OmniStack>(*omni_nodes.back()));
        break;
      }
      case Approach::kDirect:
        break;
    }
  }

  std::vector<std::unique_ptr<apps::DisseminateApp>> apps;
  std::uint64_t per_device = chunk_count / kDevices;
  for (int i = 0; i < kDevices; ++i) {
    std::uint64_t first = static_cast<std::uint64_t>(i) * per_device;
    std::uint64_t count =
        i == kDevices - 1 ? chunk_count - first : per_device;
    apps.push_back(std::make_unique<apps::DisseminateApp>(
        *stacks[i], infra, devices[i]->wifi(), bed.simulator(), config,
        first, count));
  }
  for (auto& app : apps) app->start();

  bed.simulator().run_for(Duration::seconds(400));

  // The paper reports "an arbitrary device"; device 0 is ours.
  RunResult r;
  if (!apps[0]->complete()) return r;
  r.completed = true;
  r.time_s = apps[0]->completed_at().as_seconds();
  r.energy_ma = devices[0]
                    ->meter()
                    .average_ma(TimePoint::origin(), apps[0]->completed_at()) -
                bed.calibration().wifi_standby_ma;
  return r;
}

}  // namespace
}  // namespace omni

int main() {
  using namespace omni;
  bench::print_heading(
      "Table 5 / Figure 6: Disseminate-like application\n"
      "(3 devices collaboratively download a 30MB file; time and energy on "
      "one device, energy relative to WiFi-standby)");

  struct Col {
    const char* label;
    Approach approach;
  };
  const Col cols[] = {
      {"Direct", Approach::kDirect},
      {"SP (WiFi only)", Approach::kSp},
      {"SA (BLE+WiFi)", Approach::kSa},
      {"Omni (BLE+WiFi)", Approach::kOmni},
  };
  // Paper values: {energy mA, time s} per column, per rate.
  const double paper_100[4][2] = {
      {kNaN, 300}, {72.39, 229.588}, {67.12, 102.679}, {66.91, 101.292}};
  const double paper_1000[4][2] = {
      {kNaN, 30}, {80.03, 30}, {267.79, 13.100}, {270.288, 11.965}};

  for (double rate : {100e3, 1000e3}) {
    std::printf("\n--- Infrastructure rate: %.0f KBps ---\n", rate / 1000);
    bench::Table table({"Approach", "Energy paper (mA)", "Energy meas (mA)",
                        "Time paper (s)", "Time meas (s)"});
    for (int c = 0; c < 4; ++c) {
      RunResult r = run(cols[c].approach, rate);
      const double* paper = rate < 500e3 ? paper_100[c] : paper_1000[c];
      std::vector<std::string> cells{cols[c].label};
      cells.push_back(std::isnan(paper[0]) ? "N/A" : bench::fmt(paper[0]));
      cells.push_back(r.completed ? bench::fmt(r.energy_ma) : "DNF");
      cells.push_back(bench::fmt(paper[1], 1));
      cells.push_back(r.completed ? bench::fmt(r.time_s, 1) : "DNF");
      table.add_row(std::move(cells));
    }
    table.print();
  }

  std::printf(
      "\nExpected shape: at 100 KBps the collaborative approaches beat the\n"
      "300s direct download, with SP's multicast sharing far slower than\n"
      "SA/Omni's TCP sharing; at 1000 KBps SP degrades to direct-download\n"
      "speed while Omni finishes fastest — beating SA by the ~8.6%% that\n"
      "SA's periodic WiFi multicast discovery steals from TCP airtime.\n");
  return 0;
}
