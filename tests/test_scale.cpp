// Scale and determinism: a 20-device Omni neighborhood with contexts, data
// traffic, and churn must (a) fully converge, (b) stay affordable in event
// count, and (c) be bit-for-bit reproducible under a fixed seed.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "net/testbed.h"
#include "omni/omni_node.h"

namespace omni {
namespace {

struct ScaleRun {
  std::size_t min_peers = SIZE_MAX;
  std::uint64_t total_contexts = 0;
  std::uint64_t total_data = 0;
  std::uint64_t events = 0;
  double energy_sum_ma = 0;
};

ScaleRun run_neighborhood(std::uint64_t seed) {
  net::Testbed bed(seed);
  constexpr int kNodes = 20;
  std::vector<net::Device*> devices;
  std::vector<std::unique_ptr<OmniNode>> nodes;
  std::uint64_t contexts = 0, data = 0;
  for (int i = 0; i < kNodes; ++i) {
    // A 30 m disc: everyone within BLE range of everyone.
    double angle = i * 6.283185 / kNodes;
    devices.push_back(&bed.add_device(
        "n" + std::to_string(i),
        {15 + 14 * std::cos(angle), 15 + 14 * std::sin(angle)}));
    nodes.push_back(std::make_unique<OmniNode>(*devices.back(), bed.mesh()));
    OmniManager& m = nodes.back()->manager();
    m.request_context(
        [&contexts](const OmniAddress&, const Bytes&) { ++contexts; });
    m.request_data([&data](const OmniAddress&, BytesView) { ++data; });
  }
  for (auto& n : nodes) n->start();

  // Every node shares a small context; node i sends data to node (i+1)%N
  // every 2 seconds.
  for (auto& n : nodes) {
    n->manager().add_context(ContextParams{}, Bytes{0x10}, nullptr);
  }
  for (int round = 0; round < 5; ++round) {
    bed.simulator().run_for(Duration::seconds(2));
    for (int i = 0; i < kNodes; ++i) {
      nodes[i]->manager().send_data(
          {nodes[(i + 1) % kNodes]->address()},
          Bytes(1000 + 100 * static_cast<std::size_t>(round), 0x42), nullptr);
    }
  }
  bed.simulator().run_for(Duration::seconds(10));

  ScaleRun result;
  for (int i = 0; i < kNodes; ++i) {
    result.min_peers = std::min(result.min_peers,
                                nodes[i]->manager().peer_table().size());
    result.energy_sum_ma += devices[i]->meter().average_ma(
        TimePoint::origin(), bed.simulator().now());
  }
  result.total_contexts = contexts;
  result.total_data = data;
  result.events = bed.simulator().executed_events();
  return result;
}

TEST(ScaleTest, TwentyNodeNeighborhoodConverges) {
  ScaleRun r = run_neighborhood(1234);
  EXPECT_EQ(r.min_peers, 19u);          // full mutual discovery
  EXPECT_EQ(r.total_data, 20u * 5u);    // every send delivered
  EXPECT_GT(r.total_contexts, 20u * 19u);  // context flows continuously
  // Event budget sanity: a 20-node, 20-second run should stay well under a
  // million events (it is a middleware simulation, not a packet simulator).
  EXPECT_LT(r.events, 1'000'000u);
}

TEST(ScaleTest, DeterministicUnderSeed) {
  ScaleRun a = run_neighborhood(777);
  ScaleRun b = run_neighborhood(777);
  EXPECT_EQ(a.total_contexts, b.total_contexts);
  EXPECT_EQ(a.total_data, b.total_data);
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.energy_sum_ma, b.energy_sum_ma);
}

TEST(ScaleTest, DifferentSeedsDiffer) {
  ScaleRun a = run_neighborhood(777);
  ScaleRun b = run_neighborhood(778);
  // Capture probabilities differ, so the context totals should too (the
  // data totals stay equal: delivery is reliable).
  EXPECT_NE(a.total_contexts, b.total_contexts);
  EXPECT_EQ(a.total_data, b.total_data);
}

}  // namespace
}  // namespace omni
