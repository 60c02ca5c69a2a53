// Adaptive discovery scheduler (DiscoveryPolicy, ROADMAP item 4).
//
// Covers the controller's behavioral envelope and its two contracts:
//  * behavior: a dense stable clique ramps the beacon interval to the
//    ceiling, starts suppressing beacons/scan windows and cuts its
//    advertising draw, and an entrant snaps it back to the floor; an
//    isolated pair (below sparse_peers) never leaves the floor
//    (ManagerOptions::beacon_interval, which the DSL's floor= sets), so
//    entrant discovery latency stays paper-faithful where it matters;
//  * determinism: the adaptive run's end-of-run state capture (with and
//    without jitter) is identical at 1, 2 and 8 threads, and the controller
//    leaks no ops under crash/restart churn;
//  * compatibility: an explicit `discovery fixed` directive reproduces the
//    default tourist golden trace byte for byte, and the hint-scaled
//    PeerTable expiry keeps long-interval beaconers alive without touching
//    plain-ttl semantics.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/testbed.h"
#include "omni/manager_snapshot.h"
#include "omni/omni_node.h"
#include "omni/peer_table.h"
#include "scenario/scenario.h"

namespace omni {
namespace {

constexpr std::uint64_t kSeed = 20260808;

TimePoint at_s(double s) {
  return TimePoint::origin() + Duration::seconds(s);
}

DiscoveryPolicy adaptive_policy() {
  DiscoveryPolicy p;
  p.mode = DiscoveryPolicy::Mode::kAdaptive;
  return p;
}

/// A testbed with `n` full-stack nodes on a tight grid (spacing well inside
/// BLE range), all running `policy` with `floor` as their beacon interval.
/// Its captures carry the managers.
struct Clique {
  Clique(int n, const DiscoveryPolicy& policy, unsigned threads,
         double spacing_m = 10.0, Duration floor = Duration::millis(500))
      : bed(kSeed, radio::Calibration::defaults(), threads) {
    bed.set_discovery_policy(policy);
    OmniNodeOptions opts;
    opts.manager.discovery = bed.discovery_policy();
    opts.manager.beacon_interval = floor;
    int side = 1;
    while (side * side < n) ++side;
    for (int i = 0; i < n; ++i) {
      sim::Vec2 pos{spacing_m * (i % side), spacing_m * (i / side)};
      auto& dev = bed.add_device("n" + std::to_string(i), pos);
      nodes.push_back(std::make_unique<OmniNode>(dev, bed.mesh(), opts));
    }
    add_manager_snapshot_source(bed, nodes);
    for (auto& node : nodes) node->start();
  }

  net::Testbed bed;
  std::vector<std::unique_ptr<OmniNode>> nodes;
};

// A 12-clique is saturated (occupancy 11 >= dense_peers 8): after the
// neighborhood stabilizes, every node must ramp to the full ceiling, bank
// suppressed beacons, and shorten its scan windows.
TEST(DiscoveryPolicyTest, DenseCliqueConvergesToCeiling) {
  DiscoveryPolicy policy = adaptive_policy();
  Clique clique(12, policy, 1);
  clique.bed.simulator().run_for(Duration::seconds(60));
  std::uint64_t suppressed = 0;
  std::uint64_t skipped = 0;
  for (auto& node : clique.nodes) {
    EXPECT_EQ(node->manager().current_beacon_interval(), policy.ceiling);
    suppressed += node->manager().stats().beacons_suppressed;
    skipped += node->manager().stats().scan_windows_skipped;
  }
  EXPECT_GT(suppressed, 0u);
  EXPECT_GT(skipped, 0u);
}

// A clique held at the ceiling hears a new peer walk in: every member snaps
// back to the floor and restores its full listen duty, so the entrant is
// discovered at the floor rate, not at the backed-off one.
TEST(DiscoveryPolicyTest, EntrantSnapsCliqueBackToFloor) {
  const DiscoveryPolicy policy = adaptive_policy();
  Clique clique(12, policy, 1);
  OmniNodeOptions opts;
  opts.manager.discovery = policy;
  net::Device& far = clique.bed.add_device("entrant", {5000.0, 5000.0});
  OmniNode entrant(far, clique.bed.mesh(), opts);
  entrant.start();
  clique.bed.simulator().run_for(Duration::seconds(60));
  for (auto& node : clique.nodes) {
    ASSERT_EQ(node->manager().current_beacon_interval(), policy.ceiling);
  }

  // The 4x3 grid spans 30 x 20 m: its middle is in BLE range of everyone.
  // A quiet tick ramps a member up again, so sample every 100 ms.
  clique.bed.world().set_position(far.node(), {15.0, 10.0});
  std::vector<bool> snapped(clique.nodes.size(), false);
  for (int step = 0; step < 200; ++step) {
    clique.bed.simulator().run_for(Duration::millis(100));
    for (std::size_t i = 0; i < clique.nodes.size(); ++i) {
      const OmniManager& m = clique.nodes[i]->manager();
      if (m.current_beacon_interval() == Duration::millis(500) &&
          m.discovery_scan_duty() == 0.0) {
        snapped[i] = true;
      }
    }
  }
  for (std::size_t i = 0; i < clique.nodes.size(); ++i) {
    EXPECT_TRUE(snapped[i]) << "member " << i;
    EXPECT_NE(clique.nodes[i]->manager().peer_table().find(entrant.address()),
              nullptr)
        << "member " << i;
  }
}

// At the ceiling a saturated clique advertises 16x less often than at the
// floor, which shows on the BLE advertising rail (the scan draw rides
// kBleScan) against the same clique under the fixed policy.
TEST(DiscoveryPolicyTest, CeilingCliqueDrawsLessOnAdvertisingRail) {
  const TimePoint t0 = at_s(60);
  const TimePoint t1 = at_s(90);
  double adv_mAs[2] = {0.0, 0.0};
  for (int adaptive = 0; adaptive < 2; ++adaptive) {
    Clique clique(12, adaptive != 0 ? adaptive_policy() : DiscoveryPolicy{},
                  1);
    clique.bed.simulator().run_until(t1);
    for (auto& node : clique.nodes) {
      if (adaptive != 0) {
        EXPECT_EQ(node->manager().current_beacon_interval(),
                  DiscoveryPolicy{}.ceiling);
      }
      adv_mAs[adaptive] +=
          node->device().meter().total_mAs(t0, t1, obs::EnergyRail::kBle);
    }
  }
  EXPECT_GT(adv_mAs[1], 0.0);
  EXPECT_LT(adv_mAs[1] * 8, adv_mAs[0])
      << "fixed " << adv_mAs[0] << " mAs, adaptive " << adv_mAs[1] << " mAs";
}

// One neighbor is below sparse_peers: the interval must stay pinned to the
// floor forever, so a node that walks up to a lone peer is still discovered
// within one floor period. The floor is the beacon interval, whatever it is.
TEST(DiscoveryPolicyTest, IsolatedPairStaysAtFloor) {
  for (Duration floor : {Duration::millis(500), Duration::seconds(1)}) {
    Clique pair(2, adaptive_policy(), 1, 10.0, floor);
    pair.bed.simulator().run_for(Duration::seconds(60));
    for (auto& node : pair.nodes) {
      EXPECT_EQ(node->manager().peer_table().size(), 1u);
      EXPECT_EQ(node->manager().current_beacon_interval(), floor)
          << floor.as_millis() << " ms floor";
      EXPECT_EQ(node->manager().stats().beacons_suppressed, 0u);
    }
  }
}

// The DSL's floor= is every device's beacon interval. Lone devices hold the
// floor under the adaptive policy, so `discovery adaptive floor=1s` must
// report exactly what a fixed 1 s cadence reports, and every device must
// differ from the default 500 ms run.
TEST(DiscoveryPolicyTest, ScenarioFloorSetsEveryBeaconInterval) {
  const std::string devices =
      "seed 5\ndevice a 0 0\ndevice b 500 0\ndevice c 0 500\n";
  const std::string tail = "run 30s\nreport\n";
  const std::string adaptive = scenario::run_scenario_text(
      devices + "discovery adaptive floor=1s\n" + tail);
  const std::string fixed_1s = scenario::run_scenario_text(
      devices + "discovery fixed floor=1s\n" + tail);
  const std::string fixed_500ms = scenario::run_scenario_text(devices + tail);
  EXPECT_EQ(adaptive, fixed_1s);
  std::istringstream got(adaptive);
  std::istringstream base(fixed_500ms);
  std::string got_line;
  std::string base_line;
  int device_lines = 0;
  while (std::getline(got, got_line) && std::getline(base, base_line)) {
    if (got_line.rfind("  ", 0) != 0) continue;  // device lines are indented
    ++device_lines;
    EXPECT_NE(got_line, base_line);
  }
  EXPECT_EQ(device_lines, 3);
}

/// End-of-run state capture of a 45 s clique run.
sim::Snapshot run_state(const DiscoveryPolicy& policy, unsigned threads) {
  Clique clique(12, policy, threads);
  clique.bed.simulator().run_for(Duration::seconds(45));
  sim::Snapshot state = clique.bed.capture_snapshot();
  for (auto& node : clique.nodes) node->stop();
  return state;
}

// The controller's inputs are all deterministic local signals and its only
// randomness is owner-hashed counter-indexed jitter, so the run state must be
// identical at any thread count — with jitter off (the default) and on.
TEST(DiscoveryPolicyTest, AdaptiveDigestIsThreadCountInvariant) {
  DiscoveryPolicy jittered = adaptive_policy();
  jittered.jitter = 0.25;
  std::vector<sim::Snapshot> at_1t;
  for (const DiscoveryPolicy& policy : {adaptive_policy(), jittered}) {
    at_1t.push_back(run_state(policy, 1));
    for (unsigned threads : {2u, 8u}) {
      EXPECT_EQ(sim::diff_snapshots(at_1t.back(), run_state(policy, threads),
                                    /*ignore_threads=*/true),
                "")
          << "jitter " << policy.jitter << ", " << threads << " threads";
    }
  }
  // Jitter de-phases the advertising lattice, so it must actually change
  // the run (otherwise the knob is dead code).
  EXPECT_NE(sim::diff_snapshots(at_1t[0], at_1t[1]), "");
}

// Crash/restart churn plus background loss under the adaptive scheduler:
// every op still reaches a terminal status, the manager tables drain, and
// the run state stays thread-count invariant. Guards against the backoff
// timer wedging re-arms after a restart.
TEST(DiscoveryPolicyTest, AdaptiveChaosSoakIsLeakFree) {
  auto run = [](unsigned threads) {
    Clique clique(8, adaptive_policy(), threads, 15.0);
    auto& plan = clique.bed.fault_plan();
    sim::FaultPlan::LinkFault noisy;
    noisy.loss = 0.10;
    plan.add_link_fault(noisy);
    sim::FaultPlan::Crash crash;
    crash.node = clique.nodes[3]->device().node();
    crash.at = at_s(12);
    crash.restart = at_s(20);
    plan.add_crash(crash);
    clique.bed.schedule_faults();

    int callbacks = 0;
    int ops = 0;
    for (int i = 0; i < 8; ++i) {
      OmniManager& mgr = clique.nodes[i]->manager();
      OmniAddress dest = clique.nodes[(i + 1) % 8]->address();
      clique.bed.simulator().at(at_s(15.0 + 1.5 * i), [&mgr, dest, &callbacks,
                                                       &ops] {
        ++ops;
        mgr.send_data({dest}, Bytes(96, 0xD7),
                      [&callbacks](StatusCode, const ResponseInfo&) {
                        ++callbacks;
                      });
      });
    }
    clique.bed.simulator().run_for(Duration::seconds(60));

    EXPECT_EQ(callbacks, ops);
    sim::Snapshot state = clique.bed.capture_snapshot();
    for (auto& node : clique.nodes) {
      EXPECT_EQ(node->manager().pending_data_count(), 0u);
      EXPECT_EQ(node->manager().data_attempt_count(), 0u);
      EXPECT_EQ(node->manager().context_attempt_count(), 0u);
    }
    for (auto& node : clique.nodes) node->stop();
    return state;
  };
  const sim::Snapshot s1 = run(1);
  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(sim::diff_snapshots(s1, run(threads), /*ignore_threads=*/true),
              "")
        << threads << " threads";
  }
}

// `discovery fixed` must be a pure no-op: the tourist scenario with the
// directive spelled out produces the exact bytes of the directive-free run
// (which test_golden_trace pins against the checked-in golden report).
TEST(DiscoveryPolicyTest, FixedDirectiveKeepsGoldenTraceByteIdentical) {
  std::ifstream in(OMNI_REPO_DIR "/examples/scenarios/tourist.scn");
  ASSERT_TRUE(in.good());
  std::ostringstream os;
  os << in.rdbuf();
  const std::string script = os.str();

  const std::string baseline = scenario::run_scenario_text(script);
  const std::string with_directive = scenario::run_scenario_text(
      "discovery fixed floor=500ms ceiling=8s\n" + script);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(with_directive, baseline);
}

// Hint-scaled expiry: a peer advertising every 8 s (adaptive ceiling-ish)
// outlives the 10 s horizon that would falsely expire it, while a floor-rate
// peer keeps the exact plain-ttl lifetime. The default (scale 0) preserves
// the old semantics for both. The manager passes ttl/floor (20x) so a
// backed-off peer keeps the fixed baseline's missed-beacon budget; 3x here
// keeps the arithmetic small.
TEST(DiscoveryPolicyTest, ExpiryHorizonScalesWithIntervalHint) {
  const Duration ttl = Duration::seconds(10);
  const OmniAddress slow{0xA1};
  const OmniAddress fast{0xB2};
  auto build = [&] {
    PeerTable table;
    // Two sightings 8 s apart: interval_hint jumps to 8 s.
    table.observe(slow, Technology::kBle,
                  LowLevelAddress{BleAddress::from_node(1)}, at_s(8), false);
    table.observe(slow, Technology::kBle,
                  LowLevelAddress{BleAddress::from_node(1)}, at_s(16), false);
    // Floor-rate peer: hint stays 0.5 s.
    table.observe(fast, Technology::kBle,
                  LowLevelAddress{BleAddress::from_node(2)}, at_s(15.5), false);
    table.observe(fast, Technology::kBle,
                  LowLevelAddress{BleAddress::from_node(2)}, at_s(16), false);
    return table;
  };

  // t=27: both are past the plain ttl (ages 11 s). With the hint scale the
  // slow peer's horizon is max(10 s, 3 x 8 s) = 24 s, so it survives; the
  // fast peer's horizon stays 10 s and it expires.
  {
    PeerTable table = build();
    EXPECT_EQ(table.expire(at_s(27), ttl, /*hint_ttl_scale=*/3.0), 1u);
    EXPECT_NE(table.find(slow), nullptr);
    EXPECT_EQ(table.find(fast), nullptr);
  }
  // Default flag: exact plain-ttl semantics — both expire.
  {
    PeerTable table = build();
    EXPECT_EQ(table.expire(at_s(27), ttl), 2u);
    EXPECT_TRUE(table.empty());
  }
  // Even the scaled horizon ends: at t=41 the slow peer (age 25 s > 24 s)
  // goes too.
  {
    PeerTable table = build();
    EXPECT_EQ(table.expire(at_s(41), ttl, /*hint_ttl_scale=*/3.0), 2u);
    EXPECT_TRUE(table.empty());
  }
}

}  // namespace
}  // namespace omni
