#include "baselines/sp_ble_node.h"

#include "baselines/wire.h"

namespace omni::baselines {

void SpBleNode::start() {
  if (started_) return;
  started_ = true;
  // Hand-coded single-technology app: WiFi is not used, so it is off
  // entirely (the paper's negative relative energy).
  device_.wifi().set_powered(false);
  device_.ble().set_powered(true);
  device_.ble().set_receive_handler(
      [this](const BleAddress& from, const SharedBytes& frame) {
        on_receive(from, *frame);
      });
  device_.ble().set_scanning(true, kIdleScanDuty);
}

void SpBleNode::stop() {
  if (!started_) return;
  stop_advertising();
  device_.ble().set_scanning(false);
  device_.ble().set_receive_handler(nullptr);
  started_ = false;
}

void SpBleNode::advertise(Bytes info, Duration interval) {
  OMNI_CHECK_MSG(started_, "start() first");
  Bytes frame = frame_broadcast(with_id(self(), info));
  if (advert_ != 0) {
    Status s = device_.ble().update_advertising(advert_, std::move(frame),
                                                interval);
    OMNI_CHECK_MSG(s.is_ok(), s.message());
    return;
  }
  auto adv = device_.ble().start_advertising(std::move(frame), interval);
  OMNI_CHECK_MSG(adv.is_ok(), adv.error_message());
  advert_ = adv.value();
}

void SpBleNode::stop_advertising() {
  if (advert_ == 0) return;
  device_.ble().stop_advertising(advert_);
  advert_ = 0;
}

void SpBleNode::send(PeerId dest, Bytes data, SendDoneFn done) {
  OMNI_CHECK_MSG(started_, "start() first");
  auto it = peers_.find(dest);
  if (it == peers_.end()) {
    if (done) done(Status::error("unknown peer"));
    return;
  }
  Bytes frame = frame_unicast_ble(it->second.address, with_id(self(), data));
  Status s = device_.ble().send_datagram(
      std::move(frame), [done = std::move(done)](Status st) {
        if (done) done(std::move(st));
      });
  if (!s.is_ok()) {
    OMNI_CHECK_MSG(false, "BLE datagram rejected: " + s.message());
  }
}

std::vector<D2dStack::PeerId> SpBleNode::known_peers() const {
  std::vector<PeerId> out;
  TimePoint now = device_.meter().simulator().now();
  for (const auto& [id, peer] : peers_) {
    if (now - peer.last_seen <= kBaselinePeerTtl) out.push_back(id);
  }
  return out;
}

void SpBleNode::on_receive(const BleAddress& from, const Bytes& frame) {
  auto unframed = unframe_ble_view(frame, device_.ble().address());
  if (!unframed) return;
  bool is_broadcast = !frame.empty() && frame[0] == kFrameBroadcast;
  auto parsed = split_id(*unframed);
  if (!parsed) return;
  auto [peer_id, payload] = *parsed;
  if (peer_id == self()) return;
  peers_[peer_id] = Peer{from, device_.meter().simulator().now()};
  if (is_broadcast) {
    if (on_advert_) on_advert_(peer_id, Bytes(payload.begin(), payload.end()));
  } else {
    if (on_data_) on_data_(peer_id, payload);
  }
}

}  // namespace omni::baselines
