// Technology plugins driven directly through the Communication Technology
// API (paper §3.2): queues in, queues out — no OmniManager involved. This
// pins down the plugin contract itself: enable/disable, context ops,
// per-request responses carrying the forwarded callback, and the original
// request echoed back on failure for manager-side failover.
#include <gtest/gtest.h>

#include <memory>

#include "net/link_frame.h"
#include "net/testbed.h"
#include "omni/ble_tech.h"
#include "omni/packed_struct.h"
#include "omni/wifi_multicast_tech.h"
#include "omni/wifi_unicast_tech.h"

namespace omni {
namespace {

class TechHarness {
 public:
  explicit TechHarness(sim::Simulator& sim)
      : send(sim, sim::kGlobalOwner),
        receive(sim, sim::kGlobalOwner),
        response(sim, sim::kGlobalOwner) {}

  TechQueues queues() { return TechQueues{&send, &receive, &response}; }

  std::vector<TechResponse> drain_responses() {
    std::vector<TechResponse> out;
    while (auto r = response.try_pop()) out.push_back(std::move(*r));
    return out;
  }
  std::vector<ReceivedPacket> drain_received() {
    std::vector<ReceivedPacket> out;
    while (auto r = receive.try_pop()) out.push_back(std::move(*r));
    return out;
  }

  SimQueue<SendRequest> send;
  SimQueue<ReceivedPacket> receive;
  SimQueue<TechResponse> response;
};

Bytes copy_of(BytesView view) { return Bytes(view.begin(), view.end()); }

SendRequest add_context_request(ContextId id, Bytes packed,
                                Duration interval = Duration::millis(500)) {
  SendRequest req;
  req.request_id = id;  // reuse for easy matching
  req.op = SendOp::kAddContext;
  req.context_id = id;
  req.interval = interval;
  req.packed = std::make_shared<const Bytes>(std::move(packed));
  return req;
}

class BleTechTest : public ::testing::Test {
 protected:
  net::Testbed bed{201};
};

TEST_F(BleTechTest, EnableReturnsTypeAndAddress) {
  auto& dev = bed.add_device("a", {0, 0});
  BleTech tech(dev.ble());
  TechHarness h(bed.simulator());
  EnableResult result = tech.enable(h.queues());
  EXPECT_EQ(result.type, Technology::kBle);
  EXPECT_EQ(std::get<BleAddress>(result.address), dev.ble().address());
  EXPECT_TRUE(tech.enabled());
  EXPECT_TRUE(dev.ble().scanning());
}

TEST_F(BleTechTest, ContextLifecycleThroughQueues) {
  auto& dev = bed.add_device("a", {0, 0});
  auto& peer = bed.add_device("b", {10, 0});
  BleTech tech(dev.ble());
  BleTech peer_tech(peer.ble());
  TechHarness h(bed.simulator()), hp(bed.simulator());
  tech.enable(h.queues());
  peer_tech.enable(hp.queues());

  Bytes packed = PackedStruct::context(OmniAddress{0x11}, Bytes{7}).encode();
  h.send.push(add_context_request(1, packed));
  bed.simulator().run_for(Duration::seconds(2));

  auto responses = h.drain_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].success);
  EXPECT_EQ(responses[0].op, SendOp::kAddContext);
  EXPECT_EQ(responses[0].context_id, 1u);

  // The peer's technology pushed the reception onto the shared queue.
  auto received = hp.drain_received();
  ASSERT_GE(received.size(), 1u);
  EXPECT_EQ(received[0].tech, Technology::kBle);
  EXPECT_EQ(std::get<BleAddress>(received[0].from), dev.ble().address());
  EXPECT_EQ(copy_of(received[0].packed), packed);
  // The packet views the delivered frame, after the broadcast link header.
  EXPECT_EQ(received[0].packed.data(),
            received[0].frame->data() + kBleBroadcastFrameOverhead);

  // Remove stops transmissions.
  SendRequest remove;
  remove.request_id = 2;
  remove.op = SendOp::kRemoveContext;
  remove.context_id = 1;
  h.send.push(std::move(remove));
  bed.simulator().run_for(Duration::millis(100));
  hp.drain_received();
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_TRUE(hp.drain_received().empty());
}

TEST_F(BleTechTest, ReceiversShareTheAdvertisersFrame) {
  auto& dev = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  auto& c = bed.add_device("c", {0, 10});
  BleTech tech(dev.ble()), tb(b.ble()), tc(c.ble());
  TechHarness h(bed.simulator()), hb(bed.simulator()), hc(bed.simulator());
  tb.set_engaged(true);
  tc.set_engaged(true);
  tech.enable(h.queues());
  tb.enable(hb.queues());
  tc.enable(hc.queues());

  Bytes packed = PackedStruct::context(OmniAddress{0x11}, Bytes{7}).encode();
  h.send.push(add_context_request(1, packed));
  bed.simulator().run_for(Duration::seconds(2));

  auto at_b = hb.drain_received();
  auto at_c = hc.drain_received();
  ASSERT_FALSE(at_b.empty());
  ASSERT_FALSE(at_c.empty());
  // Both receivers queued the one frame the advertisement broadcasts.
  EXPECT_EQ(at_b[0].frame, at_c[0].frame);
  EXPECT_EQ(copy_of(at_c[0].packed), packed);
}

TEST_F(BleTechTest, OversizedContextFailsWithOriginalEchoed) {
  auto& dev = bed.add_device("a", {0, 0});
  BleTech tech(dev.ble());
  TechHarness h(bed.simulator());
  tech.enable(h.queues());

  Bytes big = PackedStruct::context(OmniAddress{0x11}, Bytes(100, 1)).encode();
  h.send.push(add_context_request(5, big));
  bed.simulator().run_for(Duration::millis(100));
  auto responses = h.drain_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].success);
  EXPECT_FALSE(responses[0].failure_reason.empty());
  // Paper §3.2: on failure, the technology echoes the full request so the
  // manager can retry elsewhere.
  ASSERT_NE(responses[0].original, nullptr);
  EXPECT_EQ(*responses[0].original->packed, big);
  EXPECT_EQ(responses[0].original->op, SendOp::kAddContext);
}

TEST_F(BleTechTest, DataToWrongAddressTypeFails) {
  auto& dev = bed.add_device("a", {0, 0});
  BleTech tech(dev.ble());
  TechHarness h(bed.simulator());
  tech.enable(h.queues());
  SendRequest req;
  req.request_id = 9;
  req.op = SendOp::kSendData;
  req.dest = LowLevelAddress{MeshAddress::from_node(1)};  // wrong tech
  req.packed = std::make_shared<const Bytes>(
      PackedStruct::data(OmniAddress{1}, Bytes{1}).encode());
  h.send.push(std::move(req));
  bed.simulator().run_for(Duration::millis(100));
  auto responses = h.drain_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].success);
}

TEST_F(BleTechTest, DisableDrainsQueueGracefully) {
  auto& dev = bed.add_device("a", {0, 0});
  BleTech tech(dev.ble());
  TechHarness h(bed.simulator());
  tech.enable(h.queues());
  // Queue a request, then disable before the event loop runs: the contract
  // says pending requests are processed and answered.
  h.send.push(add_context_request(
      1, PackedStruct::context(OmniAddress{1}, Bytes{1}).encode()));
  tech.disable();
  EXPECT_FALSE(tech.enabled());
  auto responses = h.drain_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].success);
  EXPECT_EQ(dev.ble().active_advertisements(), 0u);  // withdrawn on disable
}

class WifiUnicastTechTest : public ::testing::Test {
 protected:
  net::Testbed bed{202};
};

TEST_F(WifiUnicastTechTest, SendsDataOverFlow) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  WifiUnicastTech ta(a.wifi(), bed.mesh());
  WifiUnicastTech tb(b.wifi(), bed.mesh());
  TechHarness ha(bed.simulator()), hb(bed.simulator());
  ta.enable(ha.queues());
  tb.enable(hb.queues());
  bed.simulator().run_for(Duration::seconds(1));  // joins complete

  Bytes packed = PackedStruct::data(OmniAddress{0x22}, Bytes(5000, 9)).encode();
  SendRequest req;
  req.request_id = 1;
  req.op = SendOp::kSendData;
  req.dest = LowLevelAddress{b.wifi().address()};
  req.packed = std::make_shared<const Bytes>(packed);
  const Bytes* sent = req.packed.get();
  ha.send.push(std::move(req));
  bed.simulator().run_for(Duration::seconds(2));

  auto responses = ha.drain_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].success);
  auto received = hb.drain_received();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].tech, Technology::kWifiUnicast);
  EXPECT_EQ(copy_of(received[0].packed), packed);
  // The receiver's packet is the sender's buffer itself, not a copy.
  EXPECT_EQ(received[0].frame.get(), sent);
  EXPECT_EQ(received[0].packed.data(), sent->data());
}

TEST_F(WifiUnicastTechTest, FailureEchoSharesTheRequestBuffer) {
  auto& a = bed.add_device("a", {0, 0});
  WifiUnicastTech ta(a.wifi(), bed.mesh());
  TechHarness ha(bed.simulator());
  ta.enable(ha.queues());
  bed.simulator().run_for(Duration::seconds(1));  // join completes

  auto packed = std::make_shared<const Bytes>(
      PackedStruct::data(OmniAddress{0x22}, Bytes(5000, 9)).encode());
  SendRequest req;
  req.request_id = 4;
  req.op = SendOp::kSendData;
  req.dest = LowLevelAddress{BleAddress::from_node(1)};  // not a mesh peer
  req.packed = packed;
  ha.send.push(std::move(req));
  bed.simulator().run_for(Duration::millis(100));

  auto responses = ha.drain_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].success);
  // Paper §3.2: the failure echoes the whole request. The echo references
  // the request's payload instead of copying it.
  ASSERT_NE(responses[0].original, nullptr);
  EXPECT_EQ(responses[0].original->packed.get(), packed.get());
}

TEST_F(WifiUnicastTechTest, RequestsBeforeJoinAreHeld) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  WifiUnicastTech tb(b.wifi(), bed.mesh());
  TechHarness hb(bed.simulator());
  tb.enable(hb.queues());
  bed.simulator().run_for(Duration::seconds(1));

  WifiUnicastTech ta(a.wifi(), bed.mesh());
  TechHarness ha(bed.simulator());
  ta.enable(ha.queues());
  // Push immediately: a's join (250 ms) is still in flight.
  SendRequest req;
  req.request_id = 1;
  req.op = SendOp::kSendData;
  req.dest = LowLevelAddress{b.wifi().address()};
  req.packed = std::make_shared<const Bytes>(
      PackedStruct::data(OmniAddress{1}, Bytes{1}).encode());
  ha.send.push(std::move(req));
  bed.simulator().run_for(Duration::seconds(2));
  auto responses = ha.drain_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].success) << responses[0].failure_reason;
}

TEST_F(WifiUnicastTechTest, ContextOpsRejected) {
  auto& a = bed.add_device("a", {0, 0});
  WifiUnicastTech ta(a.wifi(), bed.mesh());
  TechHarness ha(bed.simulator());
  ta.enable(ha.queues());
  bed.simulator().run_for(Duration::seconds(1));
  ha.send.push(add_context_request(
      1, PackedStruct::context(OmniAddress{1}, Bytes{1}).encode()));
  bed.simulator().run_for(Duration::millis(100));
  auto responses = ha.drain_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].success);
  EXPECT_FALSE(ta.supports_context());
}

class WifiMulticastTechTest : public ::testing::Test {
 protected:
  net::Testbed bed{203};
};

TEST_F(WifiMulticastTechTest, AggregatesSameTickContexts) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  WifiMulticastTech ta(a.wifi(), bed.mesh());
  WifiMulticastTech tb(b.wifi(), bed.mesh());
  ta.set_engaged(true);
  tb.set_engaged(true);
  TechHarness ha(bed.simulator()), hb(bed.simulator());
  ta.enable(ha.queues());
  tb.enable(hb.queues());
  bed.simulator().run_for(Duration::seconds(1));

  // Two contexts at the same 500 ms interval: they must coalesce into one
  // datagram per tick (one driver burst), yet arrive as two packets.
  ha.send.push(add_context_request(
      1, PackedStruct::context(OmniAddress{1}, Bytes{1}).encode()));
  ha.send.push(add_context_request(
      2, PackedStruct::context(OmniAddress{1}, Bytes{2}).encode()));
  TimePoint t0 = bed.simulator().now();
  bed.simulator().run_for(Duration::millis(600));

  auto received = hb.drain_received();
  ASSERT_EQ(received.size(), 2u);  // both context packs delivered
  // Both packets view their own part of the one aggregate frame.
  EXPECT_EQ(received[0].frame, received[1].frame);
  EXPECT_EQ(copy_of(received[0].packed),
            PackedStruct::context(OmniAddress{1}, Bytes{1}).encode());
  EXPECT_EQ(copy_of(received[1].packed),
            PackedStruct::context(OmniAddress{1}, Bytes{2}).encode());

  // Energy check: exactly one multicast send burst was paid in the window.
  const auto& cal = bed.calibration();
  double mAs = a.meter().total_mAs(t0, bed.simulator().now()) -
               cal.wifi_standby_ma *
                   (bed.simulator().now() - t0).as_seconds();
  double one_burst =
      cal.wifi_multicast_send_burst.as_seconds() * cal.wifi_send_ma;
  EXPECT_NEAR(mAs, one_burst, one_burst * 0.25);
}

TEST_F(WifiMulticastTechTest, DisengagedProbesOnlyPeriodically) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  WifiMulticastTech ta(a.wifi(), bed.mesh());
  WifiMulticastTech tb(b.wifi(), bed.mesh());
  ta.set_engaged(true);   // sender beacons
  tb.set_engaged(false);  // receiver probe-listens
  TechHarness ha(bed.simulator()), hb(bed.simulator());
  ta.enable(ha.queues());
  tb.enable(hb.queues());
  bed.simulator().run_for(Duration::seconds(1));

  ha.send.push(add_context_request(
      1, PackedStruct::context(OmniAddress{1}, Bytes{3}).encode()));
  bed.simulator().run_for(Duration::seconds(20));
  // 40 beacons were sent, but the probe window (600 ms every 5 s) lets only
  // ~12% through.
  std::size_t heard = hb.drain_received().size();
  EXPECT_GE(heard, 2u);
  EXPECT_LE(heard, 12u);
}

TEST_F(WifiMulticastTechTest, BulkDataDeliveredWithUnicastFraming) {
  auto& a = bed.add_device("a", {0, 0});
  auto& b = bed.add_device("b", {10, 0});
  auto& c = bed.add_device("c", {20, 0});
  WifiMulticastTech ta(a.wifi(), bed.mesh());
  WifiMulticastTech tb(b.wifi(), bed.mesh());
  WifiMulticastTech tc(c.wifi(), bed.mesh());
  for (auto* t : {&ta, &tb, &tc}) t->set_engaged(true);
  TechHarness ha(bed.simulator()), hb(bed.simulator()), hc(bed.simulator());
  ta.enable(ha.queues());
  tb.enable(hb.queues());
  tc.enable(hc.queues());
  bed.simulator().run_for(Duration::seconds(1));

  SendRequest req;
  req.request_id = 1;
  req.op = SendOp::kSendData;
  req.dest = LowLevelAddress{b.wifi().address()};  // addressed to b only
  req.packed = std::make_shared<const Bytes>(
      PackedStruct::data(OmniAddress{1}, Bytes(4000, 7)).encode());
  ha.send.push(std::move(req));
  bed.simulator().run_for(Duration::seconds(2));

  EXPECT_EQ(hb.drain_received().size(), 1u);  // the addressee got it
  EXPECT_EQ(hc.drain_received().size(), 0u);  // bystander filtered the frame
  auto responses = ha.drain_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].success);
}

}  // namespace
}  // namespace omni
