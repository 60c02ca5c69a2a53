// The paper's Figure 3 smart-city tourism scenario as a verified
// integration test: a guide, landmark beacons offering a visualization
// service, and walking tourists whose devices discover, express interest,
// and receive streamed media — all via the Developer API, with the
// technology choices asserted (context over BLE, media over WiFi TCP).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "net/testbed.h"
#include "omni/omni_node.h"
#include "omni/service.h"

namespace omni {
namespace {

class TouristScenarioTest : public ::testing::Test {
 protected:
  net::Testbed bed{808};
};

TEST_F(TouristScenarioTest, Figure3EndToEnd) {
  auto& sim = bed.simulator();

  // --- The landmark beacon with its visualization service.
  auto& landmark_dev = bed.add_device("landmark", {60, 5});
  OmniNode landmark(landmark_dev, bed.mesh());
  std::map<OmniAddress, int> streams_started;
  landmark.manager().request_context(
      [&](const OmniAddress& source, const Bytes& context) {
        if (!ServiceDescriptor::looks_like_service(context)) {
          // An interest context from a tourist.
          std::string s(context.begin(), context.end());
          if (s == "interest:viz" && streams_started[source]++ == 0) {
            Bytes viz(1'500'000, 0x56);
            landmark.manager().send_data({source}, std::move(viz), nullptr);
          }
        }
      });
  landmark.start();
  ServicePublisher landmark_service(landmark.manager());
  ServiceDescriptor descriptor;
  descriptor.service_type = service_types::kVisualization;
  descriptor.name = "townhall";
  landmark_service.publish(descriptor);

  // --- Two tourists, initially out of the landmark's BLE range.
  struct Tourist {
    net::Device* dev;
    std::unique_ptr<OmniNode> node;
    std::unique_ptr<ServiceBrowser> browser;
    std::uint64_t media = 0;
    TimePoint media_at = TimePoint::max();
  };
  Tourist tourists[2];
  for (int i = 0; i < 2; ++i) {
    tourists[i].dev =
        &bed.add_device("tourist" + std::to_string(i), {i * 3.0, 0});
    tourists[i].node = std::make_unique<OmniNode>(*tourists[i].dev,
                                                  bed.mesh());
    auto* t = &tourists[i];
    t->node->manager().request_data(
        [t, &sim](const OmniAddress&, BytesView data) {
          t->media += data.size();
          if (t->media_at == TimePoint::max()) t->media_at = sim.now();
        });
    t->node->start();
    t->browser = std::make_unique<ServiceBrowser>(t->node->manager(), sim);
    t->node->manager().add_context(
        ContextParams{},
        Bytes{'i', 'n', 't', 'e', 'r', 'e', 's', 't', ':', 'v', 'i', 'z'},
        nullptr);
  }

  // Before the walk: nobody sees the landmark (60 m > BLE range).
  sim.run_for(Duration::seconds(4));
  EXPECT_TRUE(tourists[0].browser->services().empty());

  // --- The tour: walk past the landmark at strolling pace.
  for (int i = 0; i < 2; ++i) {
    bed.world().move_to(tourists[i].dev->node(), {55.0 + i * 3, 0}, 1.4);
  }
  sim.run_for(Duration::seconds(60));

  // Both tourists discovered the typed service...
  for (int i = 0; i < 2; ++i) {
    auto services = tourists[i].browser->services();
    ASSERT_EQ(services.size(), 1u) << "tourist " << i;
    EXPECT_EQ(services[0].descriptor.name, "townhall");
    EXPECT_EQ(services[0].provider, landmark.address());
    // ...and received the 1.5 MB visualization, exactly once.
    EXPECT_EQ(tourists[i].media, 1'500'000u) << "tourist " << i;
  }
  EXPECT_EQ(streams_started.size(), 2u);

  // Technology assertions: the tourists heard the landmark on BLE (context)
  // and the media moved at TCP speed (a 1.5 MB transfer completes in
  // ~200 ms; multicast would need ~10 s).
  const PeerEntry* lm =
      tourists[0].node->manager().peer_table().find(landmark.address());
  ASSERT_NE(lm, nullptr);
  EXPECT_TRUE(lm->reachable_on(Technology::kBle));
  EXPECT_TRUE(lm->reachable_on(Technology::kWifiUnicast));
  EXPECT_FALSE(lm->techs.at(Technology::kWifiUnicast).requires_refresh);

  // Energy sanity: a tourist's draw stays within the idle-Omni envelope
  // (BLE scan + beacons + one short burst), far from multicast territory.
  double avg = tourists[0].dev->meter().average_ma(TimePoint::origin(),
                                                   sim.now()) -
               bed.calibration().wifi_standby_ma;
  EXPECT_LT(avg, 15.0);
  EXPECT_GT(avg, 5.0);
}

TEST_F(TouristScenarioTest, LeavingRangeLosesTheService) {
  auto& landmark_dev = bed.add_device("landmark", {0, 0});
  OmniNode landmark(landmark_dev, bed.mesh());
  landmark.start();
  ServicePublisher publisher(landmark.manager());
  ServiceDescriptor d;
  d.service_type = service_types::kVisualization;
  d.name = "fountain";
  publisher.publish(d);

  auto& tourist_dev = bed.add_device("tourist", {10, 0});
  OmniNode tourist(tourist_dev, bed.mesh());
  tourist.start();
  ServiceBrowser browser(tourist.manager(), bed.simulator());
  int lost = 0;
  browser.on_lost([&](const ServiceBrowser::Entry&) { ++lost; });

  bed.simulator().run_for(Duration::seconds(3));
  ASSERT_EQ(browser.services().size(), 1u);

  // The tourist walks on; the directory ages the service out.
  bed.world().set_position(tourist_dev.node(), {1000, 0});
  bed.simulator().run_for(Duration::seconds(20));
  EXPECT_TRUE(browser.services().empty());
  EXPECT_EQ(lost, 1);
}

}  // namespace
}  // namespace omni
