// PROPHET routing: the three predictability rules, summary encoding under
// BLE constraints, forwarding decisions, and end-to-end DTN delivery with
// mobility.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "apps/prophet.h"
#include "baselines/omni_stack.h"
#include "net/testbed.h"
#include "omni/omni_node.h"

namespace omni::apps {
namespace {

class ProphetTest : public ::testing::Test {
 protected:
  struct Actor {
    std::unique_ptr<OmniNode> node;
    std::unique_ptr<baselines::OmniStack> stack;
    std::unique_ptr<ProphetNode> prophet;
  };

  Actor make_actor(const std::string& name, sim::Vec2 pos,
                   ProphetConfig config = {}) {
    auto& dev = bed.add_device(name, pos);
    Actor actor;
    actor.node = std::make_unique<OmniNode>(dev, bed.mesh());
    actor.stack = std::make_unique<baselines::OmniStack>(*actor.node);
    actor.prophet =
        std::make_unique<ProphetNode>(*actor.stack, bed.simulator(), config);
    return actor;
  }

  net::Testbed bed{53};
};

TEST_F(ProphetTest, EncounterRaisesPredictability) {
  auto a = make_actor("a", {0, 0});
  auto b = make_actor("b", {10, 0});
  a.prophet->start();
  b.prophet->start();
  bed.simulator().run_for(Duration::seconds(3));
  // P = 0 + (1-0)*0.75 after the first encounter; subsequent adverts only
  // push it higher.
  EXPECT_GE(a.prophet->predictability(b.stack->self()), 0.75);
  EXPECT_GE(b.prophet->predictability(a.stack->self()), 0.75);
  EXPECT_LE(a.prophet->predictability(b.stack->self()), 1.0);
}

TEST_F(ProphetTest, PredictabilityAges) {
  auto a = make_actor("a", {0, 0});
  a.prophet->start();
  a.prophet->seed_predictability(0x1234, 0.8);
  double p0 = a.prophet->predictability(0x1234);
  EXPECT_DOUBLE_EQ(p0, 0.8);
  bed.simulator().run_for(Duration::seconds(10));
  double p10 = a.prophet->predictability(0x1234);
  EXPECT_NEAR(p10, 0.8 * std::pow(0.98, 10.0), 1e-9);
}

TEST_F(ProphetTest, TransitivityLearnsRemoteDestinations) {
  auto a = make_actor("a", {0, 0});
  auto b = make_actor("b", {10, 0});
  a.prophet->start();
  b.prophet->start();
  const ProphetNode::PeerId kRemote = 0xFEED;
  b.prophet->seed_predictability(kRemote, 0.9);
  bed.simulator().run_for(Duration::seconds(3));
  // P(a, remote) >= P(a,b) * P(b,remote) * beta > 0.
  double p = a.prophet->predictability(kRemote);
  EXPECT_GT(p, 0.1);
  EXPECT_LT(p, 0.9);  // strictly weaker than b's own knowledge
}

TEST_F(ProphetTest, DirectDeliveryToNeighbor) {
  auto a = make_actor("a", {0, 0});
  auto b = make_actor("b", {10, 0});
  int delivered = 0;
  b.prophet->set_delivered_handler(
      [&](std::uint32_t, ProphetNode::PeerId source) {
        EXPECT_EQ(source, a.stack->self());
        ++delivered;
      });
  a.prophet->start();
  b.prophet->start();
  bed.simulator().run_for(Duration::seconds(2));
  a.prophet->originate(b.stack->self(), 500);
  bed.simulator().run_for(Duration::seconds(3));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(b.prophet->delivered_count(), 1u);
}

TEST_F(ProphetTest, LifecycleEventsLandOnOmniscope) {
  obs::Omniscope& scope = bed.enable_observability();
  auto a = make_actor("a", {0, 0});
  auto b = make_actor("b", {10, 0});
  a.prophet->start();
  b.prophet->start();
  bed.simulator().run_for(Duration::seconds(2));
  const std::uint32_t id = a.prophet->originate(b.stack->self(), 500);
  bed.simulator().run_for(Duration::seconds(3));
  ASSERT_EQ(b.prophet->delivered_count(), 1u);

  const obs::MetricsRegistry& m = scope.metrics();
  auto total = [&m](const char* name) {
    const obs::MetricId mid = m.find(name);
    EXPECT_NE(mid, obs::kInvalidMetric) << name;
    return mid == obs::kInvalidMetric ? 0 : m.counter_total(mid);
  };
  EXPECT_EQ(total("prophet.originate"), 1u);
  EXPECT_GE(total("prophet.deliver_attempt"), 1u);
  EXPECT_EQ(total("prophet.delivered"), 1u);
  EXPECT_EQ(total("prophet.buffered"), 0u);

  // The delivery instant carries the message id.
  obs::TraceCapture cap = obs::capture(scope);
  bool saw_delivery = false;
  for (const obs::TraceRecord& r : cap.records) {
    if (cap.category_name(r.cat) == "prophet.delivered") {
      EXPECT_EQ(r.a0, id);
      saw_delivery = true;
    }
  }
  EXPECT_TRUE(saw_delivery);
}

TEST_F(ProphetTest, DeliveryIsIdempotent) {
  auto a = make_actor("a", {0, 0});
  auto b = make_actor("b", {10, 0});
  int delivered = 0;
  b.prophet->set_delivered_handler(
      [&](std::uint32_t, ProphetNode::PeerId) { ++delivered; });
  a.prophet->start();
  b.prophet->start();
  bed.simulator().run_for(Duration::seconds(2));
  a.prophet->originate(b.stack->self(), 500);
  bed.simulator().run_for(Duration::seconds(20));  // many advert rounds
  EXPECT_EQ(delivered, 1);  // duplicates suppressed by the seen-set
}

TEST_F(ProphetTest, NoForwardToWorseCarrier) {
  auto a = make_actor("a", {0, 0});
  auto b = make_actor("b", {10, 0});
  const ProphetNode::PeerId kRemote = 0xBEEF;
  a.prophet->start();
  b.prophet->start();
  // a knows the destination well; b does not: the message stays at a.
  a.prophet->seed_predictability(kRemote, 0.9);
  bed.simulator().run_for(Duration::seconds(2));
  a.prophet->originate(kRemote, 500);
  bed.simulator().run_for(Duration::seconds(5));
  EXPECT_EQ(a.prophet->buffered_messages(), 1u);
  EXPECT_EQ(b.prophet->buffered_messages(), 0u);
}

TEST_F(ProphetTest, RelayThroughMobileCarrier) {
  // The paper's Figure 7 scenario shape: A -> B -> C with B mobile.
  auto a = make_actor("a", {0, 0});
  auto b = make_actor("b", {20, 0});
  auto c = make_actor("c", {400, 0});
  TimePoint delivered_at = TimePoint::max();
  c.prophet->set_delivered_handler([&](std::uint32_t, ProphetNode::PeerId) {
    delivered_at = bed.simulator().now();
  });
  a.prophet->start();
  b.prophet->start();
  c.prophet->start();
  b.prophet->seed_predictability(c.stack->self(), 0.9);
  bed.simulator().run_for(Duration::seconds(2));

  TimePoint originated = bed.simulator().now();
  a.prophet->originate(c.stack->self(), 1000);
  // Five seconds later the carrier (node id 1) walks over to c.
  bed.simulator().after(Duration::seconds(5), [&] {
    bed.world().set_position(1, {380, 0});
  });
  bed.simulator().run_for(Duration::seconds(30));
  ASSERT_NE(delivered_at, TimePoint::max());
  double latency = (delivered_at - originated).as_seconds();
  EXPECT_GT(latency, 5.0);
  EXPECT_LT(latency, 7.0);
}

TEST_F(ProphetTest, SummaryFitsBleBudget) {
  ProphetConfig config;
  auto a = make_actor("a", {0, 0}, config);
  a.prophet->start();
  for (std::uint64_t i = 1; i <= 10; ++i) {
    a.prophet->seed_predictability(0x1000 + i, 0.5);
  }
  bed.simulator().run_for(Duration::seconds(2));
  // With 10 entries known but two entries per summary, the encoded summary must
  // stay within a BLE context payload (<= 21 bytes after Omni's header).
  // Indirectly verified: the advert context is accepted by the BLE tech
  // (an oversized one would fail over or fail, leaving no advertisement).
  auto& dev = *a.node;
  EXPECT_EQ(dev.device().ble().active_advertisements(), 2u);
}

TEST_F(ProphetTest, MessageTooSmallForHeaderRejected) {
  auto a = make_actor("a", {0, 0});
  a.prophet->start();
  EXPECT_DEATH(a.prophet->originate(0x1, 3), "header");
}


TEST_F(ProphetTest, BufferCapacityEvictsOldest) {
  ProphetConfig config;
  config.buffer_capacity = 3;
  auto a = make_actor("a", {0, 0}, config);
  a.prophet->start();
  bed.simulator().run_for(Duration::seconds(1));
  for (int i = 0; i < 5; ++i) {
    a.prophet->originate(0x9000 + i, 500);
  }
  EXPECT_EQ(a.prophet->buffered_messages(), 3u);
  EXPECT_EQ(a.prophet->dropped_capacity(), 2u);
}

TEST_F(ProphetTest, ExpiredMessagesPurgedNotForwarded) {
  ProphetConfig config;
  config.message_ttl = Duration::seconds(5);
  auto a = make_actor("a", {0, 0}, config);
  auto b = make_actor("b", {500, 0}, config);  // out of range initially
  int delivered = 0;
  b.prophet->set_delivered_handler(
      [&](std::uint32_t, ProphetNode::PeerId) { ++delivered; });
  a.prophet->start();
  b.prophet->start();
  bed.simulator().run_for(Duration::seconds(1));
  a.prophet->originate(b.stack->self(), 500);
  // b only comes into range after the TTL has passed.
  bed.simulator().run_for(Duration::seconds(10));
  bed.world().set_position(1, {10, 0});
  bed.simulator().run_for(Duration::seconds(10));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(a.prophet->buffered_messages(), 0u);
  EXPECT_EQ(a.prophet->expired_messages(), 1u);
}

}  // namespace
}  // namespace omni::apps
