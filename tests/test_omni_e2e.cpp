// End-to-end middleware tests: two Omni devices discover each other via BLE
// address beacons, exchange context, and transfer data over the technology
// the manager selects.
#include <gtest/gtest.h>

#include "baselines/omni_stack.h"
#include "net/testbed.h"
#include "omni/omni_node.h"

namespace omni {
namespace {

class OmniE2eTest : public ::testing::Test {
 protected:
  net::Testbed bed{42};
};

TEST_F(OmniE2eTest, DiscoversPeerViaBleAddressBeacon) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  OmniNode na(a, bed.mesh());
  OmniNode nb(b, bed.mesh());
  na.start();
  nb.start();

  bed.simulator().run_for(Duration::seconds(5));

  const PeerEntry* peer = na.manager().peer_table().find(nb.address());
  ASSERT_NE(peer, nullptr);
  EXPECT_TRUE(peer->reachable_on(Technology::kBle));
  // The BLE address beacon carries the mesh address, so the WiFi mapping is
  // known without any WiFi traffic — and it is fresh (no ritual needed).
  ASSERT_TRUE(peer->reachable_on(Technology::kWifiUnicast));
  EXPECT_FALSE(peer->techs.at(Technology::kWifiUnicast).requires_refresh);
  EXPECT_EQ(peer->techs.at(Technology::kWifiUnicast).address,
            LowLevelAddress{b.wifi().address()});
}

TEST_F(OmniE2eTest, ContextAddUpdateRemoveLifecycle) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  OmniNode na(a, bed.mesh());
  OmniNode nb(b, bed.mesh());

  std::vector<std::pair<OmniAddress, Bytes>> received;
  nb.manager().request_context(
      [&](const OmniAddress& source, const Bytes& context) {
        received.emplace_back(source, context);
      });

  na.start();
  nb.start();

  ContextId ctx = kInvalidContext;
  std::vector<StatusCode> codes;
  na.manager().add_context(
      ContextParams{Duration::millis(500)}, Bytes{1, 2, 3},
      [&](StatusCode code, const ResponseInfo& info) {
        codes.push_back(code);
        ctx = info.context_id;
      });

  bed.simulator().run_for(Duration::seconds(3));
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0], StatusCode::kAddContextSuccess);
  ASSERT_NE(ctx, kInvalidContext);
  ASSERT_FALSE(received.empty());
  EXPECT_EQ(received[0].first, na.address());
  EXPECT_EQ(received[0].second, (Bytes{1, 2, 3}));

  // Update changes the payload carried by subsequent transmissions.
  na.manager().update_context(
      ctx, ContextParams{Duration::millis(500)}, Bytes{9, 9},
      [&](StatusCode code, const ResponseInfo&) { codes.push_back(code); });
  bed.simulator().run_for(Duration::seconds(2));
  ASSERT_GE(codes.size(), 2u);
  EXPECT_EQ(codes[1], StatusCode::kUpdateContextSuccess);
  EXPECT_EQ(received.back().second, (Bytes{9, 9}));

  // Remove stops the transmissions.
  na.manager().remove_context(
      ctx, [&](StatusCode code, const ResponseInfo&) {
        codes.push_back(code);
      });
  bed.simulator().run_for(Duration::seconds(1));
  ASSERT_GE(codes.size(), 3u);
  EXPECT_EQ(codes[2], StatusCode::kRemoveContextSuccess);
  std::size_t count_after_remove = received.size();
  bed.simulator().run_for(Duration::seconds(3));
  EXPECT_EQ(received.size(), count_after_remove);
}

TEST_F(OmniE2eTest, SendsSmallDataOverDiscoveredPeer) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  OmniNode na(a, bed.mesh());
  OmniNode nb(b, bed.mesh());

  std::vector<Bytes> data_received;
  OmniAddress data_source;
  nb.manager().request_data(
      [&](const OmniAddress& source, BytesView data) {
        data_source = source;
        data_received.emplace_back(data.begin(), data.end());
      });

  na.start();
  nb.start();
  bed.simulator().run_for(Duration::seconds(5));  // discovery

  std::vector<StatusCode> codes;
  na.manager().send_data({nb.address()}, Bytes{7, 7, 7},
                         [&](StatusCode code, const ResponseInfo&) {
                           codes.push_back(code);
                         });
  bed.simulator().run_for(Duration::seconds(2));

  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0], StatusCode::kSendDataSuccess);
  ASSERT_EQ(data_received.size(), 1u);
  EXPECT_EQ(data_received[0], (Bytes{7, 7, 7}));
  EXPECT_EQ(data_source, na.address());
}

TEST_F(OmniE2eTest, SendsLargeDataOverWifiUnicast) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  OmniNode na(a, bed.mesh());
  OmniNode nb(b, bed.mesh());

  std::size_t received_size = 0;
  nb.manager().request_data(
      [&](const OmniAddress&, BytesView data) {
        received_size = data.size();
      });

  na.start();
  nb.start();
  bed.simulator().run_for(Duration::seconds(5));

  // 1 MB cannot ride BLE: the manager must choose WiFi unicast.
  const std::size_t kSize = 1'000'000;
  bool ok = false;
  TimePoint t0 = bed.simulator().now();
  TimePoint t_done;
  na.manager().send_data({nb.address()}, Bytes(kSize, 0x5A),
                         [&](StatusCode code, const ResponseInfo&) {
                           ok = code == StatusCode::kSendDataSuccess;
                           t_done = bed.simulator().now();
                         });
  bed.simulator().run_for(Duration::seconds(5));

  ASSERT_TRUE(ok);
  EXPECT_GE(received_size, kSize);
  // ~16 ms setup + 1 MB / 8.1 MB/s ~ 140 ms.
  double secs = (t_done - t0).as_seconds();
  EXPECT_GT(secs, 0.05);
  EXPECT_LT(secs, 0.5);
}

TEST_F(OmniE2eTest, SendToUnknownPeerFailsAsync) {
  auto& a = bed.add_device("a", {0, 0});
  OmniNode na(a, bed.mesh());
  na.start();
  bed.simulator().run_for(Duration::seconds(1));

  std::vector<StatusCode> codes;
  na.manager().send_data({OmniAddress{0xDEAD}}, Bytes{1},
                         [&](StatusCode code, const ResponseInfo& info) {
                           codes.push_back(code);
                           EXPECT_FALSE(info.failure_description.empty());
                         });
  EXPECT_TRUE(codes.empty());  // asynchronous
  bed.simulator().run_for(Duration::seconds(1));
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0], StatusCode::kSendDataFailure);
}

TEST_F(OmniE2eTest, DataFailsOverToBleWhenWifiDies) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  OmniNode na(a, bed.mesh());
  OmniNode nb(b, bed.mesh());

  Bytes got;
  nb.manager().request_data(
      [&](const OmniAddress&, BytesView data) {
        got.assign(data.begin(), data.end());
      });

  na.start();
  nb.start();
  bed.simulator().run_for(Duration::seconds(5));

  // Kill b's WiFi: the TCP attempt fails, and the manager retries on BLE
  // without surfacing a failure to the application.
  b.wifi().set_powered(false);

  bool ok = false;
  na.manager().send_data({nb.address()}, Bytes{4, 2},
                         [&](StatusCode code, const ResponseInfo&) {
                           ok = code == StatusCode::kSendDataSuccess;
                         });
  bed.simulator().run_for(Duration::seconds(5));
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, (Bytes{4, 2}));
  EXPECT_GE(na.manager().stats().data_failovers, 0u);
}

}  // namespace
}  // namespace omni
