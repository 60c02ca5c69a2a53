// bench_discovery: discovery-latency vs energy vs event-load Pareto sweep
// for the DiscoveryPolicy controller (fixed 500 ms cadence vs density-aware
// adaptive scheduling), across two density regimes:
//
//   * sparse rural grid  — 4x4 devices at 35 m spacing (few BLE neighbors);
//   * dense city block   — 8x8 devices at 10 m spacing (saturated
//                          neighborhoods, the regime where fixed-cadence
//                          beaconing dominates the event load).
//
// Each run warms the fleet up, then teleports a late entrant into the middle
// of the grid and measures discovery latency: the time until the entrant and
// at least one resident have found each other. Energy (mean resident current
// + the fleet's ble_scan rail), total simulator events, and the scheduler
// counters complete the Pareto point. Every configuration runs at each
// thread count in the sweep, and its end-of-run state capture and entrant
// latency must match the first thread count's.
//
// The bench FAILS (exit 1) unless adaptive dominates fixed in both regimes:
// fewer events and no more scan charge, with entrant discovery latency
// within the policy's worst-case bound (fixed + ceiling + floor). Writes
// BENCH_discovery.json.
//
//   $ ./bench/bench_discovery            # full: 30 s warmup + 30 s, 1/2/8 threads
//   $ ./bench/bench_discovery --smoke    # CI time box: shorter run, 1/2 threads
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/testbed.h"
#include "omni/manager_snapshot.h"
#include "omni/omni_node.h"
#include "sim/snapshot.h"

namespace {

using namespace omni;

struct Regime {
  const char* name;
  std::size_t side;    ///< grid is side x side residents
  double spacing_m;
};

constexpr Regime kRegimes[] = {
    {"sparse_rural", 4, 35.0},
    {"dense_city_block", 8, 10.0},
};

double g_warmup_s = 30.0;
double g_total_s = 60.0;

struct RunResult {
  std::uint64_t events = 0;
  double latency_ms = -1.0;  ///< -1 = entrant never discovered
  double mean_resident_ma = 0.0;
  double ble_scan_mAs = 0.0;
  std::uint64_t beacons_suppressed = 0;
  std::uint64_t scan_windows_skipped = 0;
  double mean_beacon_interval_ms = 0.0;
  std::uint64_t beacons_received = 0;
  /// End-of-run state capture: the thread-invariance oracle.
  sim::Snapshot state;
};

DiscoveryPolicy make_policy(bool adaptive) {
  DiscoveryPolicy p;
  p.mode = adaptive ? DiscoveryPolicy::Mode::kAdaptive
                    : DiscoveryPolicy::Mode::kFixed;
  return p;
}

RunResult run_regime(const Regime& regime, const DiscoveryPolicy& policy,
                     unsigned threads) {
  net::Testbed bed(7, radio::Calibration::defaults(), threads);
  bed.set_discovery_policy(policy);
  // The scope puts the metrics section into each state capture, so the
  // cross-thread comparison covers it too.
  bed.enable_observability(/*ring_capacity=*/1 << 12, /*detail=*/false);

  OmniNodeOptions opts;
  opts.manager.discovery = bed.discovery_policy();

  std::vector<net::Device*> devices;
  std::vector<std::unique_ptr<OmniNode>> nodes;
  const std::size_t residents = regime.side * regime.side;
  for (std::size_t i = 0; i < residents; ++i) {
    double x = static_cast<double>(i % regime.side) * regime.spacing_m;
    double y = static_cast<double>(i / regime.side) * regime.spacing_m;
    devices.push_back(&bed.add_device("r" + std::to_string(i), {x, y}));
    nodes.push_back(
        std::make_unique<OmniNode>(*devices.back(), bed.mesh(), opts));
  }
  // The late entrant starts far outside radio range of everyone.
  net::Device& entrant_dev = bed.add_device("entrant", {50000.0, 50000.0});
  auto entrant = std::make_unique<OmniNode>(entrant_dev, bed.mesh(), opts);
  bed.add_snapshot_source([&nodes, &entrant](sim::Snapshot& snap) {
    std::vector<const OmniManager*> managers = {&entrant->manager()};
    for (const auto& node : nodes) managers.push_back(&node->manager());
    capture_managers(managers, managers.size() <= kDeepCaptureMaxManagers,
                     snap);
  });
  for (auto& node : nodes) node->start();
  entrant->start();

  // Teleport the entrant into the middle of the grid after warmup, then poll
  // (global barrier events, deterministic) until the entrant and at least
  // one resident have discovered each other.
  const double extent = static_cast<double>(regime.side - 1) * regime.spacing_m;
  const TimePoint arrive = TimePoint::origin() + Duration::seconds(g_warmup_s);
  const NodeId entrant_id = entrant_dev.node();
  sim::Vec2 center{extent / 2.0, extent / 2.0};
  bed.simulator().at(arrive, [&bed, entrant_id, center] {
    bed.world().set_position(entrant_id, center);
  });
  double latency_ms = -1.0;
  const OmniAddress entrant_addr = entrant->address();
  OmniManager* entrant_mgr = &entrant->manager();
  std::vector<OmniNode*> resident_ptrs;
  for (auto& node : nodes) resident_ptrs.push_back(node.get());
  auto poll = std::make_shared<std::function<void()>>();
  *poll = [&, poll] {
    if (latency_ms >= 0.0) return;
    bool entrant_sees = entrant_mgr->peer_table().size() > 0;
    bool seen_by_resident = false;
    for (OmniNode* r : resident_ptrs) {
      if (r->manager().peer_table().find(entrant_addr) != nullptr) {
        seen_by_resident = true;
        break;
      }
    }
    if (entrant_sees && seen_by_resident) {
      latency_ms = (bed.simulator().now() - arrive).as_millis();
      return;
    }
    bed.simulator().after(Duration::millis(5), *poll);
  };
  bed.simulator().at(arrive + Duration::millis(5), *poll);

  bed.simulator().run_for(Duration::seconds(g_total_s));

  RunResult r;
  r.events = bed.simulator().executed_events();
  r.latency_ms = latency_ms;
  r.state = bed.capture_snapshot();
  const TimePoint end = bed.simulator().now();
  double ma_sum = 0.0;
  double interval_sum_ms = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ma_sum += devices[i]->meter().average_ma(TimePoint::origin(), end);
    const ManagerStats& st = nodes[i]->manager().stats();
    r.beacons_suppressed += st.beacons_suppressed;
    r.scan_windows_skipped += st.scan_windows_skipped;
    r.beacons_received += st.beacons_received;
    interval_sum_ms +=
        nodes[i]->manager().current_beacon_interval().as_millis();
    r.ble_scan_mAs += devices[i]->meter().total_mAs(
        TimePoint::origin(), end, obs::EnergyRail::kBleScan);
  }
  r.mean_resident_ma = ma_sum / static_cast<double>(nodes.size());
  r.mean_beacon_interval_ms =
      interval_sum_ms / static_cast<double>(nodes.size());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) {
    g_warmup_s = 10.0;
    g_total_s = 20.0;
  }
  const std::vector<unsigned> thread_counts =
      smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 8};

  bench::print_heading("Discovery scheduling: fixed vs adaptive Pareto");
  bench::Table table({"regime", "policy", "events", "latency ms", "mean mA",
                      "scan mAs", "suppressed", "interval ms"});
  bench::BenchReport report("discovery");
  report.set_schema_version(1);
  report.set_meta("warmup_seconds", bench::fmt(g_warmup_s, 0));
  report.set_meta("sim_seconds", bench::fmt(g_total_s, 0));
  report.set_meta("seed", "7");

  bool pareto_ok = true;
  for (const Regime& regime : kRegimes) {
    RunResult fixed_r, adaptive_r;
    for (int adaptive = 0; adaptive <= 1; ++adaptive) {
      const DiscoveryPolicy policy = make_policy(adaptive != 0);
      RunResult base;
      for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
        RunResult r = run_regime(regime, policy, thread_counts[ti]);
        if (ti == 0) {
          base = std::move(r);
          continue;
        }
        const std::string diff = sim::diff_snapshots(
            base.state, r.state, /*ignore_threads=*/true);
        // The entrant latency is measured by the bench, outside the capture.
        if (!diff.empty() || r.latency_ms != base.latency_ms) {
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION: %s/%s at %u threads vs %u: "
                       "latency %.1f vs %.1f ms; %s\n",
                       regime.name, adaptive ? "adaptive" : "fixed",
                       thread_counts[ti], thread_counts[0], r.latency_ms,
                       base.latency_ms, diff.c_str());
          return 1;
        }
      }
      (adaptive ? adaptive_r : fixed_r) = base;
      const char* policy_name = adaptive ? "adaptive" : "fixed";
      table.add_row({regime.name, policy_name, std::to_string(base.events),
                     bench::fmt(base.latency_ms, 1),
                     bench::fmt(base.mean_resident_ma, 3),
                     bench::fmt(base.ble_scan_mAs, 1),
                     std::to_string(base.beacons_suppressed),
                     bench::fmt(base.mean_beacon_interval_ms, 0)});
      report.add_row()
          .field("regime", std::string(regime.name))
          .field("policy", std::string(policy_name))
          .field("nodes",
                 static_cast<std::uint64_t>(regime.side * regime.side + 1))
          .field("spacing_m", regime.spacing_m)
          .field("sim_seconds", g_total_s)
          .field("events", base.events)
          .field("discovery_latency_ms", base.latency_ms)
          .field("mean_resident_ma", base.mean_resident_ma)
          .field("ble_scan_mAs", base.ble_scan_mAs)
          .field("beacons_suppressed", base.beacons_suppressed)
          .field("scan_windows_skipped", base.scan_windows_skipped)
          .field("mean_beacon_interval_ms", base.mean_beacon_interval_ms)
          .field("beacons_received", base.beacons_received);
    }
    // Pareto dominance: strictly fewer events, no more scan charge, and the
    // entrant still discovered within the policy's own worst-case bound.
    // The adaptive entrant beacons at the floor until it has peers; a
    // saturated resident hears a floor-rate advertiser within a bounded run
    // of duty slots (three-distance bound of the slotted schedule), snaps
    // to the floor, and re-beacons within one floor interval — so mutual
    // discovery is bounded by a handful of floor periods plus, at the very
    // worst (duty clamped to min_scan_duty), one ceiling period of the
    // resident's backed-off cadence. Budget that bound, not a tuned magic
    // number: latency above fixed + ceiling + floor is a regression class.
    const DiscoveryPolicy budget_policy = make_policy(true);
    const Duration floor = ManagerOptions().beacon_interval;
    const double latency_budget_ms =
        fixed_r.latency_ms < 0
            ? -1
            : fixed_r.latency_ms +
                  static_cast<double>(budget_policy.ceiling.as_micros() +
                                      floor.as_micros()) /
                      1000.0;
    bool ok = adaptive_r.events < fixed_r.events &&
              adaptive_r.ble_scan_mAs <= fixed_r.ble_scan_mAs + 1e-9 &&
              adaptive_r.latency_ms >= 0 &&
              (fixed_r.latency_ms < 0 ||
               adaptive_r.latency_ms <= latency_budget_ms);
    std::printf("  %s: events %llu -> %llu (%+.1f%%), scan %0.1f -> %0.1f "
                "mAs, latency %.1f -> %.1f ms  [%s]\n",
                regime.name,
                static_cast<unsigned long long>(fixed_r.events),
                static_cast<unsigned long long>(adaptive_r.events),
                100.0 * (static_cast<double>(adaptive_r.events) /
                             static_cast<double>(fixed_r.events) -
                         1.0),
                fixed_r.ble_scan_mAs, adaptive_r.ble_scan_mAs,
                fixed_r.latency_ms, adaptive_r.latency_ms,
                ok ? "adaptive dominates" : "NOT DOMINATED");
    if (!ok) pareto_ok = false;
  }

  std::printf("\n");
  table.print();
  report.write_file();
  if (!pareto_ok) {
    std::fprintf(stderr,
                 "PARETO CHECK FAILED: adaptive must dominate fixed in every "
                 "regime\n");
    return 1;
  }
  return 0;
}
