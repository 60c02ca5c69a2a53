// Beacon fast path: deterministic perf oracles (counter-based, never
// wall-clock) for the sender-side frame cache and the amortized peer-expiry
// sweep, plus cross-thread determinism, an armed-but-empty fault plan, and
// crash/rotation relearning over the one receive path. See DESIGN.md
// "Beacon fast path".
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "net/testbed.h"
#include "obs/omniscope.h"
#include "omni/omni_node.h"

namespace omni {
namespace {

struct Fleet {
  std::unique_ptr<net::Testbed> bed;
  std::vector<std::unique_ptr<OmniNode>> nodes;

  std::uint64_t sum(std::uint64_t ManagerStats::*field) const {
    std::uint64_t total = 0;
    for (const auto& n : nodes) total += n->manager().stats().*field;
    return total;
  }
};

/// Constant-density grid (the bench_scale layout): 25 m spacing gives every
/// node BLE neighbors without anyone hearing the whole field.
Fleet make_grid(std::size_t n, unsigned threads, bool observability,
                bool arm_empty_fault_plan = false) {
  Fleet f;
  f.bed = std::make_unique<net::Testbed>(42, radio::Calibration::defaults(),
                                         threads);
  if (observability) {
    f.bed->enable_observability(/*ring_capacity=*/1 << 14, /*detail=*/false);
  }
  if (arm_empty_fault_plan) f.bed->fault_plan();
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  OmniNodeOptions options;
  f.nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    net::Device& dev = f.bed->add_device(
        "n" + std::to_string(i),
        {static_cast<double>(i % side) * 25.0,
         static_cast<double>(i / side) * 25.0});
    f.nodes.push_back(
        std::make_unique<OmniNode>(dev, f.bed->mesh(), options));
  }
  for (auto& node : f.nodes) node->start();
  return f;
}

TEST(BeaconFastPathTest, PerfOracle250Nodes) {
  // Deterministic perf oracle: instead of timing anything, assert the
  // counters that make the fast path fast. The sender-side frame cache must
  // hold encodes to a handful per node for 10 s of beaconing.
  Fleet f = make_grid(250, /*threads=*/1, /*observability=*/true);
  f.bed->simulator().run_for(Duration::seconds(10));

  const std::uint64_t beacons = f.sum(&ManagerStats::beacons_received);
  const std::uint64_t encodes = f.sum(&ManagerStats::beacon_encodes);
  const std::uint64_t sweeps = f.sum(&ManagerStats::peer_expire_sweeps);
  ASSERT_GT(beacons, 0u);
  EXPECT_LT(encodes * 8, beacons)
      << "the sender frame cache should re-encode rarely, not per beacon";
  EXPECT_GT(sweeps, 0u) << "the amortized peer-expiry sweep never ran";
}

TEST(BeaconFastPathTest, MetricsDigestInvariantAcrossThreadCounts) {
  // The fast path must not perturb cross-thread determinism: the full
  // metrics dump (every counter on every owner) is byte-identical at any
  // thread count.
  auto digest = [](unsigned threads) {
    Fleet f = make_grid(100, threads, /*observability=*/true);
    f.bed->simulator().run_for(Duration::seconds(6));
    return f.bed->observability()->metrics_dump();
  };
  std::string sequential = digest(1);
  EXPECT_EQ(sequential, digest(2));
  EXPECT_EQ(sequential, digest(8));
}

TEST(BeaconFastPathTest, ArmedEmptyFaultPlanChangesNothing) {
  // An armed plan sends every BLE fan-out through its fault checks (a
  // per-sender salt, partition, drop and corruption draws). With no fault
  // in the plan, every draw misses and the run must be byte-identical to
  // one with no plan armed (DESIGN.md "Fault injection & self-healing").
  struct Outcome {
    std::string dump;
    std::uint64_t delivered = 0;
    std::vector<std::uint64_t> beacons;
  };
  auto run = [](bool armed) {
    Fleet f = make_grid(100, /*threads=*/2, /*observability=*/true, armed);
    f.bed->simulator().run_for(Duration::seconds(6));
    Outcome out;
    out.dump = f.bed->observability()->metrics_dump();
    out.delivered = f.bed->ble_medium().delivered_count();
    for (const auto& n : f.nodes) {
      out.beacons.push_back(n->manager().stats().beacons_received);
    }
    return out;
  };
  const Outcome plain = run(false);
  const Outcome armed = run(true);
  ASSERT_GT(plain.delivered, 0u);
  EXPECT_EQ(plain.dump, armed.dump);
  EXPECT_EQ(plain.delivered, armed.delivered);
  EXPECT_EQ(plain.beacons, armed.beacons);
}

TEST(BeaconFastPathTest, RotatedAddressAfterCrashIsRelearned) {
  // Crash/restart with BLE private-address rotation: the rotated sender's
  // beacons arrive from a new link address with new frame bytes, and the
  // fresh mapping must replace the dead address.
  net::Testbed bed(71);
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode a(da, bed.mesh());
  OmniNode b(db, bed.mesh());

  auto& plan = bed.fault_plan();
  sim::FaultPlan::Crash crash;
  crash.node = db.node();
  crash.at = TimePoint::origin() + Duration::seconds(5);
  crash.restart = TimePoint::origin() + Duration::seconds(8);
  crash.rotate_addresses = true;
  plan.add_crash(crash);
  bed.schedule_faults();

  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(3));
  const PeerEntry* entry = a.manager().peer_table().find(b.address());
  ASSERT_NE(entry, nullptr);
  auto ble_it = entry->techs.find(Technology::kBle);
  ASSERT_NE(ble_it, entry->techs.end());
  const BleAddress before = std::get<BleAddress>(ble_it->second.address);

  bed.simulator().run_for(Duration::seconds(12));
  const BleAddress after = db.ble().address();
  ASSERT_NE(after, before) << "the reboot rotated the BLE address";

  entry = a.manager().peer_table().find(b.address());
  ASSERT_NE(entry, nullptr) << "the restarted node was re-learned";
  ble_it = entry->techs.find(Technology::kBle);
  ASSERT_NE(ble_it, entry->techs.end());
  EXPECT_EQ(std::get<BleAddress>(ble_it->second.address), after)
      << "the peer table still maps the pre-crash address";

  // The relearned mapping is usable end to end.
  StatusCode code = StatusCode::kSendDataFailure;
  a.manager().send_data({b.address()}, Bytes{0x42},
                        [&](StatusCode sc, const ResponseInfo&) { code = sc; });
  bed.simulator().run_for(Duration::seconds(5));
  EXPECT_EQ(code, StatusCode::kSendDataSuccess);
}

}  // namespace
}  // namespace omni
