// Failure injection across the stack: mid-transfer range loss with
// technology failover, radio flapping, mobility churn, silently stalled
// technologies, and crash/restart churn. Exercises the paper's §3.3
// "Handling Failures" behavior end to end.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/testbed.h"
#include "omni/omni_node.h"

namespace omni {
namespace {

class FailureInjectionTest : public ::testing::Test {
 protected:
  net::Testbed bed{71};
};

/// A data technology that accepts every request and never responds: the
/// "silently stalled" plugin the manager's op deadlines exist for. It keeps
/// every request it swallows.
class StallTech final : public CommTechnology {
 public:
  EnableResult enable(const TechQueues& queues) override {
    queues_ = queues;
    enabled_ = true;
    queues_.send->set_consumer([this] {
      while (auto request = queues_.send->try_pop()) {
        swallowed_.push_back(std::move(*request));
      }
    });
    return EnableResult{Technology::kWifiUnicast,
                        LowLevelAddress{MeshAddress{0xBEEF}}};
  }
  void disable() override {
    queues_.send->clear_consumer();
    enabled_ = false;
  }
  Technology type() const override { return Technology::kWifiUnicast; }
  bool enabled() const override { return enabled_; }
  bool supports_context() const override { return false; }
  bool supports_data() const override { return true; }
  std::size_t max_context_payload() const override { return 0; }
  std::size_t max_data_payload() const override { return 0; }
  Duration estimate_data_time(std::size_t, bool) const override {
    return Duration::millis(20);
  }
  void set_engaged(bool engaged) override { engaged_ = engaged; }
  bool engaged() const override { return engaged_; }

  /// Fabricate an address-beacon sighting so the manager learns `peer`.
  void inject_beacon(OmniAddress peer, MeshAddress from) {
    AddressBeaconInfo info;
    info.mesh = from;
    auto frame = std::make_shared<const Bytes>(
        PackedStruct::address_beacon(peer, info).encode());
    queues_.receive->push(ReceivedPacket{
        Technology::kWifiUnicast, LowLevelAddress{from}, frame, *frame});
  }

  std::uint64_t swallowed() const { return swallowed_.size(); }
  const std::vector<SendRequest>& kept() const { return swallowed_; }

 private:
  TechQueues queues_;
  bool enabled_ = false;
  bool engaged_ = false;
  std::vector<SendRequest> swallowed_;
};

/// A context technology whose first `fail_first` beacon adds fail (the
/// radio hiccuped), exercising the beacon re-arm backoff path.
class FlakyBeaconTech final : public CommTechnology {
 public:
  explicit FlakyBeaconTech(int fail_first) : fail_first_(fail_first) {}

  EnableResult enable(const TechQueues& queues) override {
    queues_ = queues;
    enabled_ = true;
    queues_.send->set_consumer([this] {
      while (auto request = queues_.send->try_pop()) {
        bool ok = true;
        if (request->op == SendOp::kAddContext) {
          ok = add_attempts_++ >= fail_first_;
        }
        queues_.response->push(TechResponse::result(
            Technology::kBle, *request, ok, ok ? "" : "radio hiccup"));
      }
    });
    return EnableResult{Technology::kBle,
                        LowLevelAddress{BleAddress::from_node(7)}};
  }
  void disable() override {
    queues_.send->clear_consumer();
    enabled_ = false;
  }
  Technology type() const override { return Technology::kBle; }
  bool enabled() const override { return enabled_; }
  bool supports_context() const override { return true; }
  bool supports_data() const override { return false; }
  std::size_t max_context_payload() const override { return 10'000; }
  std::size_t max_data_payload() const override { return 0; }
  Duration estimate_data_time(std::size_t, bool) const override {
    return Duration::millis(50);
  }
  void set_engaged(bool engaged) override { engaged_ = engaged; }
  bool engaged() const override { return engaged_; }

  int add_attempts() const { return add_attempts_; }

 private:
  TechQueues queues_;
  int fail_first_;
  int add_attempts_ = 0;
  bool enabled_ = false;
  bool engaged_ = false;
};

TEST(SelfHealingTest, SilentlyStalledTechFailsOverByDeadline) {
  sim::Simulator sim(9);
  StallTech stall;
  OmniManager manager(sim, OmniAddress{0xA11CE});
  manager.add_technology(stall);
  manager.start();

  OmniAddress peer{0xB0B};
  stall.inject_beacon(peer, MeshAddress{0xD00D});
  sim.run_for(Duration::millis(10));
  ASSERT_NE(manager.peer_table().find(peer), nullptr);

  StatusCode code = StatusCode::kSendDataSuccess;
  std::string why;
  manager.send_data({peer}, Bytes{0x55},
                    [&](StatusCode c, const ResponseInfo& info) {
                      code = c;
                      why = info.failure_description;
                    });
  sim.run_for(Duration::millis(500));
  // The technology swallowed the request; nothing has failed yet.
  EXPECT_GE(stall.swallowed(), 1u);
  EXPECT_EQ(manager.pending_data_count(), 1u);
  EXPECT_EQ(manager.data_attempt_count(), 1u);

  // The deadline (>= kMinOpDeadline) fires and, with no alternative
  // technology, the application hears a terminal failure. Tables drain.
  sim.run_for(Duration::seconds(5));
  EXPECT_EQ(code, StatusCode::kSendDataFailure);
  EXPECT_GE(manager.stats().deadline_failovers, 1u);
  EXPECT_EQ(manager.pending_data_count(), 0u);
  EXPECT_EQ(manager.data_attempt_count(), 0u);
  EXPECT_EQ(manager.context_attempt_count(), 0u);
  manager.stop();
  sim.run_for(Duration::seconds(1));
}

TEST(SelfHealingTest, DataSendToTwoPeersSharesOneEncodedBuffer) {
  sim::Simulator sim(9);
  StallTech stall;
  const OmniAddress self{0xA11CE};
  OmniManager manager(sim, self);
  manager.add_technology(stall);
  manager.start();

  const OmniAddress p1{0xB0B};
  const OmniAddress p2{0xC0C};
  stall.inject_beacon(p1, MeshAddress{0xD00D});
  stall.inject_beacon(p2, MeshAddress{0xE00E});
  sim.run_for(Duration::millis(10));

  const Bytes payload(4096, 0x5A);
  manager.send_data({p1, p2}, payload, nullptr);
  sim.run_for(Duration::millis(10));

  ASSERT_EQ(stall.kept().size(), 2u);
  const SharedBytes& buffer = stall.kept()[0].packed;
  ASSERT_NE(buffer, nullptr);
  EXPECT_EQ(stall.kept()[1].packed.get(), buffer.get());
  EXPECT_EQ(*buffer, PackedStruct::data(self, payload).encode());
  // Both pending ops and both attempts hold the one encode.
  EXPECT_EQ(buffer.use_count(), 4);
  manager.stop();
  sim.run_for(Duration::seconds(1));
}

TEST(SelfHealingTest, BeaconRearmRetriesAfterBeaconOpFailure) {
  sim::Simulator sim(11);
  FlakyBeaconTech flaky(/*fail_first=*/1);
  OmniManager manager(sim, OmniAddress{0xA11CE});
  manager.add_technology(flaky);
  manager.start();

  // The first beacon add fails: beaconing drops and a backoff re-arm is
  // scheduled instead of going dark forever.
  sim.run_for(Duration::millis(100));
  EXPECT_FALSE(manager.technology_beaconing(Technology::kBle));
  EXPECT_GE(manager.stats().beacon_rearms, 1u);

  // After the backoff (500 ms +/- jitter) the retry succeeds.
  sim.run_for(Duration::seconds(2));
  EXPECT_TRUE(manager.technology_beaconing(Technology::kBle));
  EXPECT_GE(flaky.add_attempts(), 2);
  manager.stop();
  sim.run_for(Duration::seconds(1));
}

TEST(SelfHealingTest, OverloadShedsBeyondMaxPendingOps) {
  sim::Simulator sim(13);
  StallTech stall;
  OmniManager manager(sim, OmniAddress{0xA11CE});
  manager.add_technology(stall);
  manager.start();
  OmniAddress peer{0xB0B};
  stall.inject_beacon(peer, MeshAddress{0xD00D});
  sim.run_for(Duration::millis(10));

  // Fill every pending slot with an op the stalled technology never
  // answers, then offer four more.
  constexpr std::size_t kCap = OmniManager::kMaxPendingOps;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < kCap + 4; ++i) {
    manager.send_data({peer}, Bytes{0x55},
                      [&](StatusCode c, const ResponseInfo&) {
                        if (c == StatusCode::kSendDataFailure) ++failures;
                      });
  }
  sim.run_for(Duration::millis(10));
  EXPECT_EQ(manager.pending_data_count(), kCap);
  EXPECT_EQ(manager.stats().overload_rejections, 4u);
  EXPECT_EQ(failures, 4u);  // the shed ops failed immediately
  manager.stop();
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(manager.pending_data_count(), 0u);
  EXPECT_EQ(failures, kCap + 4);  // stop() failed the queued ops too
}

TEST_F(FailureInjectionTest, MidTransferRangeLossFailsOverToBle) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode a(da, bed.mesh());
  OmniNode b(db, bed.mesh());
  Bytes got;
  b.manager().request_data(
      [&](const OmniAddress&, BytesView d) { got.assign(d.begin(), d.end()); });
  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(3));

  // Small payload that BLE *could* carry: a long WiFi transfer is forced by
  // queueing a big one first... simpler: break WiFi right as the send
  // starts, so the TCP attempt fails and the manager retries on BLE.
  StatusCode final_code = StatusCode::kSendDataFailure;
  a.manager().send_data({b.address()}, Bytes{0x77},
                        [&](StatusCode code, const ResponseInfo&) {
                          final_code = code;
                        });
  // Move b out of WiFi range but inside BLE range is impossible (BLE range
  // is shorter), so instead kill b's mesh membership: TCP fails, BLE works.
  db.wifi().leave();
  bed.simulator().run_for(Duration::seconds(10));
  EXPECT_EQ(final_code, StatusCode::kSendDataSuccess);
  EXPECT_EQ(got, (Bytes{0x77}));
  EXPECT_GE(a.manager().stats().data_failovers, 1u);
}

TEST_F(FailureInjectionTest, TotalRangeLossEventuallyFailsRequest) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode a(da, bed.mesh());
  OmniNode b(db, bed.mesh());
  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(3));

  // b walks away entirely mid-transfer.
  StatusCode final_code = StatusCode::kSendDataSuccess;
  a.manager().send_data({b.address()}, Bytes(5'000'000, 1),
                        [&](StatusCode code, const ResponseInfo&) {
                          final_code = code;
                        });
  bed.simulator().after(Duration::millis(200), [&] {
    bed.world().set_position(db.node(), {5000, 0});
  });
  bed.simulator().run_for(Duration::seconds(20));
  EXPECT_EQ(final_code, StatusCode::kSendDataFailure);
}

TEST_F(FailureInjectionTest, BleRadioFlappingRecoversBeacons) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode a(da, bed.mesh());
  OmniNode b(db, bed.mesh());
  a.start();
  b.start();
  bed.simulator().run_for(Duration::seconds(3));
  ASSERT_NE(b.manager().peer_table().find(a.address()), nullptr);

  // Flap a's BLE radio a few times.
  for (int i = 0; i < 3; ++i) {
    da.ble().set_powered(false);
    bed.simulator().run_for(Duration::seconds(1));
    da.ble().set_powered(true);
    bed.simulator().run_for(Duration::seconds(1));
  }
  // After recovery the beacon advertisement is re-established and b keeps
  // hearing a (its mapping stays fresh past the original TTL).
  bed.simulator().run_for(Duration::seconds(8));
  const PeerEntry* entry = b.manager().peer_table().find(a.address());
  ASSERT_NE(entry, nullptr);
  EXPECT_GE(entry->last_seen,
            bed.simulator().now() - Duration::seconds(2));
}

TEST_F(FailureInjectionTest, MobilityChurnKeepsTableConsistent) {
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode a(da, bed.mesh());
  OmniNode b(db, bed.mesh());
  a.start();
  b.start();

  // b oscillates in and out of all radio range every 6 s.
  for (int cycle = 0; cycle < 4; ++cycle) {
    bed.world().set_position(db.node(), {10, 0});
    bed.simulator().run_for(Duration::seconds(6));
    EXPECT_NE(a.manager().peer_table().find(b.address()), nullptr)
        << "cycle " << cycle;
    bed.world().set_position(db.node(), {5000, 0});
    bed.simulator().run_for(Duration::seconds(15));  // > peer TTL
    EXPECT_EQ(a.manager().peer_table().find(b.address()), nullptr)
        << "cycle " << cycle;
  }
}

TEST_F(FailureInjectionTest, ConnectionlessContextSurvivesMeshCollapse) {
  // Paper §3.3: "connection-less technologies by design have no connections
  // to break". Killing the whole mesh must not interrupt context delivery.
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  OmniNode a(da, bed.mesh());
  OmniNode b(db, bed.mesh());
  int contexts = 0;
  b.manager().request_context(
      [&](const OmniAddress&, const Bytes&) { ++contexts; });
  a.start();
  b.start();
  a.manager().add_context(ContextParams{}, Bytes{1}, nullptr);
  bed.simulator().run_for(Duration::seconds(3));
  int before = contexts;
  ASSERT_GT(before, 0);

  da.wifi().set_powered(false);
  db.wifi().set_powered(false);
  bed.simulator().run_for(Duration::seconds(3));
  EXPECT_GT(contexts, before + 3) << "context harvest continues over BLE";
}

TEST_F(FailureInjectionTest, PendingTablesDrainUnderRandomizedFaults) {
  // Leak invariant: whatever a randomized fault schedule does to the
  // network, every op table drains once every operation has completed or
  // timed out — no pending_data_/attempt entries may survive.
  auto& da = bed.add_device("a", {0, 0});
  auto& db = bed.add_device("b", {10, 0});
  auto& dc = bed.add_device("c", {20, 0});
  OmniNode a(da, bed.mesh());
  OmniNode b(db, bed.mesh());
  OmniNode c(dc, bed.mesh());

  auto& plan = bed.fault_plan();
  sim::FaultPlan::LinkFault noisy;
  noisy.loss = 0.3;
  noisy.corrupt = 0.02;
  noisy.extra_latency = Duration::millis(5);
  plan.add_link_fault(noisy);
  sim::FaultPlan::Blackout flap;
  flap.node = db.node();
  flap.radio = sim::FaultRadio::kWifi;
  flap.start = TimePoint::origin() + Duration::seconds(6);
  flap.end = TimePoint::origin() + Duration::seconds(14);
  flap.period = Duration::seconds(2);
  flap.off_fraction = 0.5;
  plan.add_blackout(flap);
  bed.schedule_faults();

  a.start();
  b.start();
  c.start();
  bed.simulator().run_for(Duration::seconds(4));

  int callbacks = 0;
  auto count = [&](StatusCode, const ResponseInfo&) { ++callbacks; };
  int ops = 0;
  for (int round = 0; round < 5; ++round) {
    bed.simulator().run_for(Duration::seconds(2));
    a.manager().send_data({b.address()}, Bytes(40 + round, 1), count);
    b.manager().send_data({c.address()}, Bytes(200'000, 2), count);
    c.manager().send_data({a.address()}, Bytes(64, 3), count);
    ops += 3;
  }
  bed.simulator().run_for(Duration::seconds(40));

  EXPECT_EQ(callbacks, ops) << "every op reached a terminal status";
  for (OmniNode* n : {&a, &b, &c}) {
    EXPECT_EQ(n->manager().pending_data_count(), 0u);
    EXPECT_EQ(n->manager().data_attempt_count(), 0u);
    EXPECT_EQ(n->manager().context_attempt_count(), 0u);
  }
  EXPECT_GT(plan.stats().drops, 0u) << "the schedule actually injected";

  a.stop();
  b.stop();
  c.stop();
  bed.simulator().run_for(Duration::seconds(1));
  for (OmniNode* n : {&a, &b, &c}) {
    EXPECT_EQ(n->manager().pending_data_count(), 0u);
    EXPECT_EQ(n->manager().data_attempt_count(), 0u);
    EXPECT_EQ(n->manager().context_attempt_count(), 0u);
  }
}

TEST_F(FailureInjectionTest, CrashRestartChurnRelearnsRotatedAddress) {
  // A crashed node that reboots with fresh link-layer addresses (BLE
  // private-address rotation) must be re-learned under the same omni
  // address — the stale mapping gets overwritten, not shadowed.
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
  EXPECT_EQ(before, db.ble().address());

  // Through the crash, the restart, and a few beacon intervals.
  bed.simulator().run_for(Duration::seconds(12));
  const BleAddress after = db.ble().address();
  EXPECT_NE(after, before) << "the reboot rotated the BLE address";

  entry = a.manager().peer_table().find(b.address());
  ASSERT_NE(entry, nullptr) << "the restarted node was re-learned";
  ble_it = entry->techs.find(Technology::kBle);
  ASSERT_NE(ble_it, entry->techs.end());
  EXPECT_EQ(std::get<BleAddress>(ble_it->second.address), after)
      << "the mapping tracks the fresh address, not the stale one";
  EXPECT_GE(entry->last_seen,
            bed.simulator().now() - Duration::seconds(2));

  // And the mapping is actually usable: a data send lands.
  StatusCode code = StatusCode::kSendDataFailure;
  a.manager().send_data({b.address()}, Bytes{0x42},
                        [&](StatusCode sc, const ResponseInfo&) {
                          code = sc;
                        });
  bed.simulator().run_for(Duration::seconds(5));
  EXPECT_EQ(code, StatusCode::kSendDataSuccess);
}

TEST_F(FailureInjectionTest, ManagerStopIsClean) {
  auto& da = bed.add_device("a", {0, 0});
  OmniNode a(da, bed.mesh());
  a.start();
  a.manager().add_context(ContextParams{}, Bytes{1}, nullptr);
  bed.simulator().run_for(Duration::seconds(2));
  a.stop();
  // Advertisements are withdrawn; the remaining event queue drains without
  // touching freed state.
  bed.simulator().run_for(Duration::seconds(5));
  EXPECT_EQ(da.ble().active_advertisements(), 0u);
}

}  // namespace
}  // namespace omni
