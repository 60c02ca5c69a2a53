// Chaos soak: a 12-node neighborhood runs a full minute of virtual time
// under a composite fault schedule — background loss/corruption/latency,
// WiFi and BLE flap windows, two crash+restart cycles with address
// rotation, and a transient geometric partition — while every node keeps
// sending data around the ring.
//
// Asserts the two properties the fault engine promises:
//  * self-healing invariants: every op reaches a terminal status and all
//    manager op tables drain to empty (during the run and after stop());
//  * determinism: the end-of-run state capture (sim + managers + metrics)
//    is identical at 1, 2, and 8 threads.
//
// The checkpointed variant additionally captures the full run state every
// 10 virtual seconds; should a divergence ever appear, the first divergent
// checkpoint pins it to a 10 s window and the failure message carries the
// exact omnisnap command line that reproduces the comparison offline.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "net/testbed.h"
#include "omni/manager_snapshot.h"
#include "omni/omni_node.h"
#include "sim/snapshot.h"

namespace omni {
namespace {

constexpr int kNodes = 12;
constexpr std::uint64_t kSeed = 20260805;

struct ChaosResult {
  /// End-of-run state capture, compared across thread counts.
  sim::Snapshot state;
  int sends_ok = 0;
  int sends_failed = 0;
  sim::FaultPlan::Stats fault_stats;
  /// Checkpoint files written during the run (empty unless armed).
  std::vector<std::string> checkpoints;
};

ChaosResult run_chaos(unsigned threads, const std::string& ckpt_dir = "") {
  net::Testbed bed(kSeed, radio::Calibration::defaults(), threads);
  bed.enable_observability();  // captures then hold the metrics section
  std::vector<net::Device*> devices;
  std::vector<std::unique_ptr<OmniNode>> nodes;
  for (int i = 0; i < kNodes; ++i) {
    // Two rows of six, 15 m apart: everything inside BLE range of its
    // neighbors, the whole field inside WiFi range.
    sim::Vec2 pos{15.0 * (i % 6), 20.0 * (i / 6)};
    devices.push_back(&bed.add_device("n" + std::to_string(i), pos));
    nodes.push_back(std::make_unique<OmniNode>(*devices.back(), bed.mesh()));
  }

  auto at = [](double s) {
    return TimePoint::origin() + Duration::seconds(s);
  };
  auto& plan = bed.fault_plan();
  // Background degradation on every link for the entire run. Corruption is
  // kept low: every corrupted frame is a decoder WARN line.
  sim::FaultPlan::LinkFault noisy;
  noisy.loss = 0.15;
  noisy.corrupt = 0.01;
  noisy.extra_latency = Duration::millis(2);
  plan.add_link_fault(noisy);
  // Radio flap windows.
  sim::FaultPlan::Blackout wifi_flap;
  wifi_flap.node = devices[2]->node();
  wifi_flap.radio = sim::FaultRadio::kWifi;
  wifi_flap.start = at(10);
  wifi_flap.end = at(30);
  wifi_flap.period = Duration::seconds(3);
  wifi_flap.off_fraction = 0.5;
  plan.add_blackout(wifi_flap);
  sim::FaultPlan::Blackout ble_flap;
  ble_flap.node = devices[5]->node();
  ble_flap.radio = sim::FaultRadio::kBle;
  ble_flap.start = at(15);
  ble_flap.end = at(35);
  ble_flap.period = Duration::seconds(4);
  ble_flap.off_fraction = 0.4;
  plan.add_blackout(ble_flap);
  // Crash/restart churn with BLE address rotation.
  sim::FaultPlan::Crash crash1;
  crash1.node = devices[3]->node();
  crash1.at = at(12);
  crash1.restart = at(20);
  plan.add_crash(crash1);
  sim::FaultPlan::Crash crash2;
  crash2.node = devices[8]->node();
  crash2.at = at(25);
  crash2.restart = at(33);
  plan.add_crash(crash2);
  // Transient partition cutting the field at x = 40.
  sim::FaultPlan::Partition split;
  split.start = at(20);
  split.end = at(35);
  split.a = 1.0;
  split.b = 0.0;
  split.c = 40.0;
  plan.add_partition(split);
  bed.schedule_faults();

  // Captures carry the managers (deep peer tables). Auto-checkpointing
  // captures every 10 virtual seconds; checkpoint capture is itself an
  // event, so only runs with the same cadence compare.
  add_manager_snapshot_source(bed, nodes);
  if (!ckpt_dir.empty()) bed.checkpoint_every(Duration::seconds(10), ckpt_dir);

  for (auto& n : nodes) n->start();

  // Ring traffic: node i sends to node (i+1) twice, staggered, with a mix
  // of BLE-sized and WiFi-sized payloads.
  // Completion callbacks run on each sender's owner context, so with
  // threads > 1 they fire concurrently across shards; the tallies must be
  // atomic (the totals are order-independent, so still deterministic).
  ChaosResult result;
  std::atomic<int> callbacks{0};
  std::atomic<int> sends_ok{0};
  std::atomic<int> sends_failed{0};
  int ops = 0;
  auto count = [&](StatusCode code, const ResponseInfo&) {
    callbacks.fetch_add(1, std::memory_order_relaxed);
    if (code == StatusCode::kSendDataSuccess) {
      sends_ok.fetch_add(1, std::memory_order_relaxed);
    } else {
      sends_failed.fetch_add(1, std::memory_order_relaxed);
    }
  };
  for (int i = 0; i < kNodes; ++i) {
    OmniManager& mgr = nodes[i]->manager();
    OmniAddress dest = nodes[(i + 1) % kNodes]->address();
    std::size_t bytes = (i % 3 == 0) ? 150'000 : 60 + i;
    bed.simulator().at(at(8.0 + 1.5 * i), [&mgr, dest, bytes, &count, &ops] {
      ++ops;
      mgr.send_data({dest}, Bytes(bytes, 0xC4), count);
    });
    bed.simulator().at(at(28.0 + 1.5 * i), [&mgr, dest, &count, &ops] {
      ++ops;
      mgr.send_data({dest}, Bytes(96, 0xC5), count);
    });
  }

  bed.simulator().run_for(Duration::seconds(60));

  // Invariant: every op reached a terminal status and nothing leaked.
  result.sends_ok = sends_ok.load(std::memory_order_relaxed);
  result.sends_failed = sends_failed.load(std::memory_order_relaxed);
  EXPECT_EQ(callbacks.load(std::memory_order_relaxed), ops);
  for (auto& n : nodes) {
    EXPECT_EQ(n->manager().pending_data_count(), 0u);
    EXPECT_EQ(n->manager().data_attempt_count(), 0u);
    EXPECT_EQ(n->manager().context_attempt_count(), 0u);
  }

  result.fault_stats = plan.stats();
  result.state = bed.capture_snapshot();
  result.checkpoints = bed.checkpoints();
  EXPECT_GT(result.fault_stats.drops, 0u);

  for (auto& n : nodes) n->stop();
  bed.simulator().run_for(Duration::seconds(1));
  for (auto& n : nodes) {
    EXPECT_EQ(n->manager().pending_data_count(), 0u);
    EXPECT_EQ(n->manager().data_attempt_count(), 0u);
    EXPECT_EQ(n->manager().context_attempt_count(), 0u);
  }
  return result;
}

TEST(ChaosSoakTest, FaultsActuallyInject) {
  ChaosResult r = run_chaos(1);
  EXPECT_GT(r.fault_stats.drops, 0u);
  EXPECT_GT(r.fault_stats.corruptions, 0u);
  EXPECT_GT(r.fault_stats.delays, 0u);
  EXPECT_GT(r.fault_stats.partition_drops, 0u);
  // The schedule is harsh but the neighborhood still mostly works.
  EXPECT_GT(r.sends_ok, 0);
  EXPECT_GT(r.sends_ok + r.sends_failed, 0);
}

// Checkpointed soak at two thread counts: every pair of same-instant
// checkpoints, and the end-of-run captures, must be identical apart from the
// manifest's capturing thread count. If a divergence ever slips in, the
// failure message names the first divergent checkpoint — bounding the bug to
// one 10 s window — and carries the omnisnap command line that reproduces
// the comparison offline.
TEST(ChaosSoakTest, CheckpointBisectionPinpointsDivergence) {
  namespace fs = std::filesystem;
  const fs::path base = fs::temp_directory_path() /
                        ("omni_chaos_bisect_" + std::to_string(::getpid()));
  const std::string dir1 = (base / "t1").string();
  const std::string dir8 = (base / "t8").string();
  ChaosResult r1 = run_chaos(1, dir1);
  ChaosResult r8 = run_chaos(8, dir8);
  EXPECT_EQ(sim::diff_snapshots(r1.state, r8.state, /*ignore_threads=*/true),
            "");
  ASSERT_EQ(r1.checkpoints.size(), r8.checkpoints.size());
  ASSERT_GE(r1.checkpoints.size(), 5u);  // 60 s run, 10 s cadence

  bool diverged = false;
  for (std::size_t i = 0; i < r1.checkpoints.size(); ++i) {
    auto a = sim::read_snapshot_file(r1.checkpoints[i]);
    auto b = sim::read_snapshot_file(r8.checkpoints[i]);
    ASSERT_TRUE(a.is_ok()) << a.error_message();
    ASSERT_TRUE(b.is_ok()) << b.error_message();
    const std::string diff =
        sim::diff_snapshots(a.value(), b.value(), /*ignore_threads=*/true);
    if (!diff.empty()) {
      char window[64];
      std::snprintf(window, sizeof window, "(%zus, %zus]", 10 * i,
                    10 * (i + 1));
      ADD_FAILURE() << "first divergent checkpoint pins the bug to "
                    << window << "\n"
                    << diff << "\nreproduce offline with:\n  omnisnap diff "
                    << "--state " << r1.checkpoints[i] << " "
                    << r8.checkpoints[i];
      diverged = true;
      break;
    }
  }
  if (!diverged) fs::remove_all(base);
}

TEST(ChaosSoakTest, DigestIsThreadCountInvariant) {
  ChaosResult r1 = run_chaos(1);
  ASSERT_NE(r1.state.find(sim::kSecMetrics), nullptr);
  for (unsigned threads : {2u, 8u}) {
    ChaosResult r = run_chaos(threads);
    EXPECT_EQ(sim::diff_snapshots(r1.state, r.state, /*ignore_threads=*/true),
              "")
        << threads << " threads";
    // Callback tallies live in the test, not in the capture.
    EXPECT_EQ(r1.sends_ok, r.sends_ok);
    EXPECT_EQ(r1.sends_failed, r.sends_failed);
  }
}

}  // namespace
}  // namespace omni
