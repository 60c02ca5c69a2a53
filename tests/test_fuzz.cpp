// Randomized churn fuzzing: a neighborhood subjected to random sends, power
// flaps, mobility jumps, and context churn. Checks the middleware's two
// strongest liveness/safety invariants under chaos:
//   * every send_data callback fires exactly once per destination;
//   * the simulation never crashes, wedges, or leaks pending operations
//     unboundedly.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "net/testbed.h"
#include "omni/omni_node.h"

namespace omni {
namespace {

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, ChurnPreservesCallbackContract) {
  net::Testbed bed(static_cast<std::uint64_t>(GetParam()));
  auto& rng = bed.simulator().rng();

  constexpr int kNodes = 6;
  std::vector<net::Device*> devices;
  std::vector<std::unique_ptr<OmniNode>> nodes;
  for (int i = 0; i < kNodes; ++i) {
    devices.push_back(&bed.add_device("n" + std::to_string(i),
                                      {rng.uniform(0, 25),
                                       rng.uniform(0, 25)}));
    OmniNodeOptions options;
    options.wifi_multicast = rng.chance(0.5);
    nodes.push_back(
        std::make_unique<OmniNode>(*devices.back(), bed.mesh(), options));
    nodes.back()->start();
  }
  bed.simulator().run_for(Duration::seconds(3));

  // Track per-send callback counts.
  std::map<int, int> callbacks;  // send id -> count
  int next_send = 0;

  for (int round = 0; round < 40; ++round) {
    int action = static_cast<int>(rng.uniform_int(0, 5));
    int who = static_cast<int>(rng.uniform_int(0, kNodes - 1));
    int other = static_cast<int>(rng.uniform_int(0, kNodes - 1));
    switch (action) {
      case 0:
      case 1: {  // random-size send (bias toward sends)
        std::size_t size =
            static_cast<std::size_t>(rng.uniform_int(1, 200'000));
        int id = next_send++;
        callbacks[id] = 0;
        nodes[who]->manager().send_data(
            {nodes[other]->address()}, Bytes(size, 0x11),
            [&callbacks, id](StatusCode, const ResponseInfo&) {
              ++callbacks[id];
            });
        break;
      }
      case 2: {  // teleport somewhere (possibly far away)
        double spread = rng.chance(0.3) ? 500.0 : 25.0;
        bed.world().set_position(devices[who]->node(),
                                 {rng.uniform(0, spread),
                                  rng.uniform(0, spread)});
        break;
      }
      case 3: {  // power flap a radio
        if (rng.chance(0.5)) {
          devices[who]->ble().set_powered(!devices[who]->ble().powered());
        } else {
          devices[who]->wifi().set_powered(
              !devices[who]->wifi().powered());
        }
        break;
      }
      case 4: {  // context churn
        nodes[who]->manager().add_context(
            ContextParams{Duration::millis(
                static_cast<std::int64_t>(rng.uniform_int(100, 2000)))},
            Bytes(static_cast<std::size_t>(rng.uniform_int(1, 15)), 0x22),
            nullptr);
        break;
      }
      case 5: {  // self-send to an unknown address
        int id = next_send++;
        callbacks[id] = 0;
        nodes[who]->manager().send_data(
            {OmniAddress{rng.next() | 1}}, Bytes{1},
            [&callbacks, id](StatusCode, const ResponseInfo&) {
              ++callbacks[id];
            });
        break;
      }
    }
    bed.simulator().run_for(Duration::millis(
        static_cast<std::int64_t>(rng.uniform_int(50, 1500))));
  }

  // Drain everything in flight (rituals can take seconds; timeouts too).
  bed.simulator().run_for(Duration::seconds(30));

  for (const auto& [id, count] : callbacks) {
    EXPECT_EQ(count, 1) << "send " << id
                        << " callback fired " << count << " times (seed "
                        << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(9000, 9012));

}  // namespace
}  // namespace omni
