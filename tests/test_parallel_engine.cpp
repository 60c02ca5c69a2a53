// Parallel engine determinism: the sharded simulator must produce
// bit-identical results at every thread count.
//
// Two oracles:
//   * The Figure 3 tourist scenario — the repo's golden trace — run at
//     1/2/8 threads. threads=1 is the sequential engine (single shard
//     executed inline on the driving thread), so equality across the sweep
//     also proves the parallel runs match the sequential one.
//   * A churn stress: a 5x5 grid of full-stack nodes beaconing and
//     engaging while a rolling subset stops and restarts mid-run. Churn
//     exercises the barrier-deferred scan-state snapshot, owner teardown,
//     and mailbox merge under maximum contention. The end-of-run state
//     capture (pending events, RNG streams, managers, metrics) must match
//     across thread counts, and so must the engine counters the capture
//     does not hold and the merged flight-recorder record stream.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/testbed.h"
#include "obs/omniscope.h"
#include "obs/trace_file.h"
#include "omni/manager_snapshot.h"
#include "omni/omni_node.h"
#include "scenario/scenario.h"
#include "sim/snapshot.h"

namespace omni {
namespace {

constexpr const char* kScenarioPath =
    OMNI_REPO_DIR "/examples/scenarios/tourist.scn";

std::string read_scenario() {
  std::ifstream in(kScenarioPath);
  EXPECT_TRUE(in.good()) << "cannot open " << kScenarioPath;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ParallelEngineTest, TouristScenarioBitIdenticalAcrossThreadCounts) {
  std::string script = read_scenario();
  std::string sequential = scenario::run_scenario_text(script, 1);
  EXPECT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, scenario::run_scenario_text(script, 2));
  EXPECT_EQ(sequential, scenario::run_scenario_text(script, 8));
}

struct ChurnRun {
  /// End-of-run state capture.
  sim::Snapshot state;
  /// BLE deliveries, windows and mailbox posts: engine counters outside the
  /// capture.
  std::string engine;
  /// Record count and hash of the merged flight-recorder stream.
  std::string trace;
};

/// Run the churn stress at `threads`.
ChurnRun run_churn(unsigned threads) {
  constexpr std::size_t kSide = 5;
  constexpr std::size_t kNodes = kSide * kSide;
  constexpr double kSpacingM = 25.0;

  net::Testbed bed(7, radio::Calibration::defaults(), threads);
  // Observability rides along: the metric aggregates and the canonical
  // record multiset must be as partition-invariant as the simulation
  // itself. The ring is sized so nothing drops (drops are per-lane and
  // would legitimately differ across partitions).
  obs::Omniscope& scope = bed.enable_observability(/*ring_capacity=*/1 << 20);
  std::vector<std::unique_ptr<OmniNode>> nodes;
  nodes.reserve(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    double x = static_cast<double>(i % kSide) * kSpacingM;
    double y = static_cast<double>(i / kSide) * kSpacingM;
    net::Device& dev = bed.add_device("n" + std::to_string(i), {x, y});
    nodes.push_back(std::make_unique<OmniNode>(dev, bed.mesh()));
  }
  add_manager_snapshot_source(bed, nodes);
  for (auto& node : nodes) {
    node->start();
    node->manager().add_context(ContextParams{}, Bytes{0x51}, nullptr);
  }

  // Rolling churn: every 2 s one node drops; it rejoins 3 s later. Start
  // and stop mutate radios and manager state, so they run as global
  // (barrier-serialized) events — the same path scenario scripts use.
  sim::Simulator& sim = bed.simulator();
  for (std::size_t i = 0; i < kNodes; i += 3) {
    OmniNode* node = nodes[i].get();
    sim.after_global(Duration::seconds(2.0 + static_cast<double>(i) * 0.4),
                     [node] { node->stop(); });
    sim.after_global(Duration::seconds(5.0 + static_cast<double>(i) * 0.4),
                     [node] { node->start(); });
  }

  sim.run_for(Duration::seconds(30));

  ChurnRun run;
  run.state = bed.capture_snapshot();
  run.engine = "delivered=" +
               std::to_string(bed.ble_medium().delivered_count()) +
               " windows=" + std::to_string(sim.windows_run()) +
               " posts=" + std::to_string(sim.mailbox_posts());

  obs::TraceCapture cap = obs::capture(scope);
  EXPECT_EQ(cap.dropped, 0u) << "ring too small for a lossless capture";
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const obs::TraceRecord& r : cap.records) {
    mix(static_cast<std::uint64_t>(r.t_us));
    mix(r.owner);
    mix(r.cat);
    mix(r.phase);
    mix(r.a0);
    mix(r.a1);
    mix(r.tech);
  }
  run.trace = "trace_records=" + std::to_string(cap.records.size()) +
              " trace_hash=" + std::to_string(h);
  return run;
}

void expect_same_run(const ChurnRun& a, const ChurnRun& b) {
  EXPECT_EQ(sim::diff_snapshots(a.state, b.state, /*ignore_threads=*/true),
            "");
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(ParallelEngineTest, ChurnStressDigestInvariantAcrossThreadCounts) {
  const ChurnRun sequential = run_churn(1);
  ASSERT_NE(sequential.state.find(sim::kSecMetrics), nullptr);
  for (unsigned threads : {2u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    expect_same_run(sequential, run_churn(threads));
  }
}

TEST(ParallelEngineTest, ChurnStressIsRunToRunDeterministicAt8Threads) {
  expect_same_run(run_churn(8), run_churn(8));
}

}  // namespace
}  // namespace omni
