// The Disseminate-like application: chunk bookkeeping, metadata-driven
// exchange, infrastructure backfill policy, and full-file completion over
// both unicast and broadcast sharing.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "apps/disseminate.h"
#include "baselines/omni_stack.h"
#include "baselines/sp_wifi_node.h"
#include "net/infra.h"
#include "net/testbed.h"
#include "omni/omni_node.h"

namespace omni::apps {
namespace {

TEST(ChunkStoreTest, Basics) {
  ChunkStore store(1'000'000, 300'000);
  EXPECT_EQ(store.chunk_count(), 4u);  // 300+300+300+100
  EXPECT_EQ(store.size_of(0), 300'000u);
  EXPECT_EQ(store.size_of(3), 100'000u);
  EXPECT_FALSE(store.complete());
  EXPECT_TRUE(store.add(1));
  EXPECT_FALSE(store.add(1));  // duplicate
  EXPECT_TRUE(store.has(1));
  EXPECT_EQ(store.have_count(), 1u);
  EXPECT_EQ(store.first_missing(), 0u);
  EXPECT_EQ(store.first_missing(1), 2u);
  EXPECT_EQ(store.missing().size(), 3u);
}

TEST(ChunkStoreTest, BitmapRoundTrip) {
  ChunkStore store(10 * 100, 100);  // 10 chunks
  store.add(0);
  store.add(3);
  store.add(9);
  Bytes bm = store.bitmap();
  EXPECT_EQ(bm.size(), 2u);
  auto parsed = ChunkStore::parse_bitmap(bm, 10);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(parsed[i], store.has(i)) << "chunk " << i;
  }
}

TEST(ChunkStoreTest, ParseShortBitmapIsSafe) {
  auto parsed = ChunkStore::parse_bitmap(Bytes{0xFF}, 16);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(parsed[i]);
  for (int i = 8; i < 16; ++i) EXPECT_FALSE(parsed[i]);
}

TEST(ChunkStoreTest, CompleteFile) {
  ChunkStore store(500, 100);
  for (std::uint64_t i = 0; i < 5; ++i) store.add(i);
  EXPECT_TRUE(store.complete());
  EXPECT_EQ(store.first_missing(), std::nullopt);
}

class DisseminateAppTest : public ::testing::Test {
 protected:
  DisseminateAppTest() : infra(bed.simulator(), bed.calibration()) {}

  DisseminateConfig small_config() {
    DisseminateConfig config;
    config.file_bytes = 2'000'000;  // 8 chunks of 250 KB
    config.chunk_bytes = 250'000;
    config.infra_rate_Bps = 500e3;
    return config;
  }

  net::Testbed bed{41};
  net::InfraNetwork infra;
};

TEST_F(DisseminateAppTest, TwoOmniDevicesCompleteViaExchange) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode na(da, bed.mesh());
  OmniNode nb(db, bed.mesh());
  baselines::OmniStack sa(na), sb(nb);

  DisseminateConfig config = small_config();
  DisseminateApp app_a(sa, infra, da.wifi(), bed.simulator(), config, 0, 4);
  DisseminateApp app_b(sb, infra, db.wifi(), bed.simulator(), config, 4, 4);
  app_a.start();
  app_b.start();
  bed.simulator().run_for(Duration::seconds(60));

  EXPECT_TRUE(app_a.complete());
  EXPECT_TRUE(app_b.complete());
  // Each device pulled (at most) its half from infra and got the rest D2D.
  EXPECT_GE(app_a.chunks_from_d2d(), 3u);
  EXPECT_GE(app_b.chunks_from_d2d(), 3u);
  // Completion near the 2 s assigned-download time, not the 4 s solo time.
  EXPECT_LT(app_a.completed_at().as_seconds(), 3.5);
}

TEST_F(DisseminateAppTest, ChunkEventsLandOnOmniscope) {
  obs::Omniscope& scope = bed.enable_observability();
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode na(da, bed.mesh());
  OmniNode nb(db, bed.mesh());
  baselines::OmniStack sa(na), sb(nb);
  DisseminateConfig config = small_config();
  DisseminateApp app_a(sa, infra, da.wifi(), bed.simulator(), config, 0, 4);
  DisseminateApp app_b(sb, infra, db.wifi(), bed.simulator(), config, 4, 4);
  app_a.start();
  app_b.start();
  bed.simulator().run_for(Duration::seconds(60));
  ASSERT_TRUE(app_a.complete());
  ASSERT_TRUE(app_b.complete());

  const obs::MetricsRegistry& m = scope.metrics();
  auto total = [&m](const char* name) {
    const obs::MetricId id = m.find(name);
    EXPECT_NE(id, obs::kInvalidMetric) << name;
    return id == obs::kInvalidMetric ? 0 : m.counter_total(id);
  };
  EXPECT_EQ(total("disseminate.chunk_infra"),
            app_a.chunks_from_infra() + app_b.chunks_from_infra());
  EXPECT_EQ(total("disseminate.chunk_d2d"),
            app_a.chunks_from_d2d() + app_b.chunks_from_d2d());
  EXPECT_EQ(total("disseminate.complete"), 2u);

  // Every stored chunk is also an instant under its interned category,
  // carrying the chunk id.
  obs::TraceCapture cap = obs::capture(scope);
  ASSERT_EQ(cap.dropped, 0u);
  std::set<std::uint64_t> ids;
  std::size_t records = 0;
  for (const obs::TraceRecord& r : cap.records) {
    const std::string name = cap.category_name(r.cat);
    if (name == "disseminate.chunk_infra" || name == "disseminate.chunk_d2d") {
      ++records;
      ids.insert(r.a0);
    }
  }
  EXPECT_EQ(records, 2 * config.file_bytes / config.chunk_bytes);
  EXPECT_EQ(ids.size(), config.file_bytes / config.chunk_bytes);
}

TEST_F(DisseminateAppTest, SoloDeviceFallsBackToInfraEntirely) {
  auto& da = bed.add_device("a", {0, 0});
  OmniNode na(da, bed.mesh());
  baselines::OmniStack sa(na);
  DisseminateConfig config = small_config();
  // Assigned only the first half; backfill must fetch the rest.
  DisseminateApp app(sa, infra, da.wifi(), bed.simulator(), config, 0, 4);
  app.start();
  bed.simulator().run_for(Duration::seconds(60));
  EXPECT_TRUE(app.complete());
  EXPECT_EQ(app.chunks_from_infra(), 8u);
  EXPECT_EQ(app.chunks_from_d2d(), 0u);
}

TEST_F(DisseminateAppTest, BackfillDisabledLeavesFileIncomplete) {
  auto& da = bed.add_device("a", {0, 0});
  OmniNode na(da, bed.mesh());
  baselines::OmniStack sa(na);
  DisseminateConfig config = small_config();
  config.infra_backfill = false;
  DisseminateApp app(sa, infra, da.wifi(), bed.simulator(), config, 0, 4);
  app.start();
  bed.simulator().run_for(Duration::seconds(60));
  EXPECT_FALSE(app.complete());
  EXPECT_EQ(app.store().have_count(), 4u);
}

TEST_F(DisseminateAppTest, HealthyD2dSuppressesBackfill) {
  // Two devices with fast TCP sharing: nobody should re-download a peer's
  // chunk from the infrastructure.
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode na(da, bed.mesh());
  OmniNode nb(db, bed.mesh());
  baselines::OmniStack sa(na), sb(nb);
  DisseminateConfig config = small_config();
  DisseminateApp app_a(sa, infra, da.wifi(), bed.simulator(), config, 0, 4);
  DisseminateApp app_b(sb, infra, db.wifi(), bed.simulator(), config, 4, 4);
  app_a.start();
  app_b.start();
  bed.simulator().run_for(Duration::seconds(60));
  EXPECT_TRUE(app_a.complete());
  EXPECT_LE(app_a.chunks_from_infra(), 5u);  // its 4 + at most one backfill
}

TEST_F(DisseminateAppTest, BroadcastSharingCompletesOverSpWifi) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  baselines::SpWifiNode sa(da, bed.mesh()), sb(db, bed.mesh());
  DisseminateConfig config = small_config();
  config.share_via_broadcast = true;
  config.infra_backfill = false;  // force pure multicast sharing
  DisseminateApp app_a(sa, infra, da.wifi(), bed.simulator(), config, 0, 4);
  DisseminateApp app_b(sb, infra, db.wifi(), bed.simulator(), config, 4, 4);
  app_a.start();
  app_b.start();
  bed.simulator().run_for(Duration::seconds(60));
  EXPECT_TRUE(app_a.complete());
  EXPECT_TRUE(app_b.complete());
  EXPECT_GE(app_a.chunks_from_d2d(), 4u);
  // Multicast sharing is slow: completion takes far longer than the 2 s of
  // assigned downloading.
  EXPECT_GT(app_a.completed_at().as_seconds(), 6.0);
}

TEST_F(DisseminateAppTest, DuplicateChunksAreCountedNotDoubleStored) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  auto& dc = bed.add_device("c", {20, 0});
  OmniNode na(da, bed.mesh()), nb(db, bed.mesh()), nc(dc, bed.mesh());
  baselines::OmniStack sa(na), sb(nb), sc(nc);
  DisseminateConfig config = small_config();
  // a and b both assigned the SAME range: their pushes to c duplicate.
  DisseminateApp app_a(sa, infra, da.wifi(), bed.simulator(), config, 0, 8);
  DisseminateApp app_b(sb, infra, db.wifi(), bed.simulator(), config, 0, 8);
  DisseminateApp app_c(sc, infra, dc.wifi(), bed.simulator(), config, 0, 0);
  app_a.start();
  app_b.start();
  app_c.start();
  bed.simulator().run_for(Duration::seconds(120));
  EXPECT_TRUE(app_c.complete());
  EXPECT_EQ(app_c.store().have_count(), 8u);
  EXPECT_GT(app_c.duplicate_chunks(), 0u);
}


TEST_F(DisseminateAppTest, RarestFirstStillCompletes) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  auto& dc = bed.add_device("c", {20, 0});
  OmniNode na(da, bed.mesh()), nb(db, bed.mesh()), nc(dc, bed.mesh());
  baselines::OmniStack sa(na), sb(nb), sc(nc);
  DisseminateConfig config = small_config();
  config.push_order = DisseminateConfig::PushOrder::kRarestFirst;
  DisseminateApp app_a(sa, infra, da.wifi(), bed.simulator(), config, 0, 3);
  DisseminateApp app_b(sb, infra, db.wifi(), bed.simulator(), config, 3, 3);
  DisseminateApp app_c(sc, infra, dc.wifi(), bed.simulator(), config, 6, 2);
  app_a.start();
  app_b.start();
  app_c.start();
  bed.simulator().run_for(Duration::seconds(60));
  EXPECT_TRUE(app_a.complete());
  EXPECT_TRUE(app_b.complete());
  EXPECT_TRUE(app_c.complete());
}

TEST_F(DisseminateAppTest, RarestFirstPrefersUnreplicatedChunks) {
  // Construct the scoring directly: one peer holds chunk 0, nobody holds
  // chunk 1 -> rarest-first must pick chunk 1 first, sequential chunk 0.
  auto& da = bed.add_device("a", {0, 0});
  OmniNode na(da, bed.mesh());
  baselines::OmniStack sa(na);
  DisseminateConfig config = small_config();
  DisseminateApp app(sa, infra, da.wifi(), bed.simulator(), config, 0, 0);
  // (White-box check via behavior would need peers; the completion tests
  // above cover integration. Here we at least pin the config plumbing.)
  EXPECT_EQ(config.push_order, DisseminateConfig::PushOrder::kSequential);
  config.push_order = DisseminateConfig::PushOrder::kRarestFirst;
  EXPECT_EQ(config.push_order, DisseminateConfig::PushOrder::kRarestFirst);
}

}  // namespace
}  // namespace omni::apps
