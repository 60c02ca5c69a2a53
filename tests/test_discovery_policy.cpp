// Adaptive discovery scheduler (DiscoveryPolicy, ROADMAP item 4).
//
// Covers the controller's behavioral envelope and its two contracts:
//  * behavior: a dense stable clique ramps the beacon interval to the
//    ceiling and starts suppressing beacons/scan windows; an isolated pair
//    (below sparse_peers) never leaves the floor, so entrant discovery
//    latency stays paper-faithful where it matters;
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
/// BLE range), all running `policy`. Its captures carry the managers.
struct Clique {
  Clique(int n, const DiscoveryPolicy& policy, unsigned threads,
         double spacing_m = 10.0)
      : bed(kSeed, radio::Calibration::defaults(), threads) {
    bed.set_discovery_policy(policy);
    OmniNodeOptions opts;
    opts.manager.discovery = bed.discovery_policy();
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

// One neighbor is below sparse_peers: the interval must stay pinned to the
// floor forever, so a node that walks up to a lone peer is still discovered
// within one paper-default period.
TEST(DiscoveryPolicyTest, IsolatedPairStaysAtFloor) {
  DiscoveryPolicy policy = adaptive_policy();
  Clique pair(2, policy, 1);
  pair.bed.simulator().run_for(Duration::seconds(60));
  for (auto& node : pair.nodes) {
    EXPECT_EQ(node->manager().peer_table().size(), 1u);
    EXPECT_EQ(node->manager().current_beacon_interval(), policy.floor);
    EXPECT_EQ(node->manager().stats().beacons_suppressed, 0u);
  }
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
