#include "baselines/sa_node.h"

#include "baselines/wire.h"

namespace omni::baselines {

SaNode::SaNode(net::Device& device, radio::MeshNetwork& mesh,
               Directory& directory, Options options)
    : device_(device), mesh_(mesh), directory_(directory), options_(options) {
  OMNI_CHECK_MSG(options_.enable_ble || options_.enable_wifi,
                 "SA node needs at least one technology");
}

SaNode::~SaNode() { stop(); }

void SaNode::start() {
  if (started_) return;
  started_ = true;
  if (options_.enable_ble) {
    device_.ble().set_powered(true);
    device_.ble().set_receive_handler(
        [this](const BleAddress& from, const SharedBytes& frame) {
          if (started_) on_ble_receive(from, *frame);
        });
    // The overlay listens continuously on every technology.
    device_.ble().set_scanning(true, 1.0);
  } else {
    device_.ble().set_powered(false);
  }
  if (options_.enable_wifi) {
    device_.wifi().set_powered(true);
    directory_.register_node(self(), device_.wifi().address());
    datagram_handler_ = device_.wifi().add_datagram_handler(
        [this](const MeshAddress& from, const SharedBytes& frame,
               bool multicast) {
          if (started_) on_wifi_datagram(from, *frame, multicast);
        });
    device_.wifi().join(mesh_,
                        [this, alive = std::weak_ptr<bool>(alive_)](Status s) {
                          if (alive.expired()) return;  // destroyed mid-join
                          joined_ = s.is_ok();
                        });
    wifi_advert_load_ =
        mesh_.register_periodic_multicast(options_.overlay_interval);
    schedule_wifi_advert(options_.overlay_interval);
    // First rescan at half period, de-phasing it from other periodic work.
    schedule_maintenance(
        device_.wifi().calibration().wifi_maintenance_scan_period / 2);
  }
  refresh_overlay_adverts();
}

void SaNode::stop() {
  if (!started_) return;
  started_ = false;
  wifi_advert_event_.cancel();
  maintenance_event_.cancel();
  if (wifi_advert_load_ != 0) {
    mesh_.unregister_periodic_multicast(wifi_advert_load_);
    wifi_advert_load_ = 0;
  }
  if (ble_advert_ != 0) {
    device_.ble().stop_advertising(ble_advert_);
    ble_advert_ = 0;
  }
  // Withdraw the [this] handlers: the device may outlive this node, and a
  // later start() registers them afresh. The overlay's scan stops with it;
  // WiFi stays powered and joined (D2dStack::stop()).
  if (options_.enable_ble) {
    device_.ble().set_scanning(false);
    device_.ble().set_receive_handler(nullptr);
  }
  device_.wifi().remove_handler(datagram_handler_);  // no-op for id 0
  datagram_handler_ = 0;
}

void SaNode::schedule_maintenance(Duration delay) {
  maintenance_event_ = device_.meter().simulator().after(delay, [this] {
    if (!started_) return;
    device_.wifi().scan([](std::vector<radio::MeshNetwork*>) {});
    schedule_maintenance(
        device_.wifi().calibration().wifi_maintenance_scan_period);
  });
}

void SaNode::refresh_overlay_adverts() {
  if (!options_.enable_ble) return;
  // Overlay beacon = app id + service info (possibly empty). Sent via BLE
  // advertising; the WiFi copy goes out in fire_wifi_advert().
  Bytes frame = frame_broadcast(with_id(self(), advert_info_));
  if (frame.size() > device_.ble().max_payload()) {
    // Service info too large for a BLE advert: the overlay still announces
    // presence (id only) — matching middleware that degrades to presence
    // beacons on constrained links.
    frame = frame_broadcast(with_id(self(), {}));
  }
  if (ble_advert_ == 0) {
    auto adv = device_.ble().start_advertising(std::move(frame),
                                               options_.overlay_interval);
    OMNI_CHECK_MSG(adv.is_ok(), adv.error_message());
    ble_advert_ = adv.value();
  } else {
    Status s = device_.ble().update_advertising(ble_advert_, std::move(frame),
                                                options_.overlay_interval);
    OMNI_CHECK_MSG(s.is_ok(), s.message());
  }
}

void SaNode::schedule_wifi_advert(Duration delay) {
  wifi_advert_event_ = device_.meter().simulator().after(
      delay, [this] { fire_wifi_advert(); });
}

void SaNode::fire_wifi_advert() {
  if (!started_) return;
  if (joined_) {
    mesh_.multicast_datagram(device_.wifi(),
                             frame_broadcast(with_id(self(), advert_info_)));
  }
  schedule_wifi_advert(options_.overlay_interval);
}

void SaNode::advertise(Bytes info, Duration interval) {
  OMNI_CHECK_MSG(started_, "start() first");
  advert_info_ = std::move(info);
  options_.overlay_interval = interval;
  refresh_overlay_adverts();
}

void SaNode::stop_advertising() {
  advert_info_.clear();
  if (started_) refresh_overlay_adverts();
}

void SaNode::send(PeerId dest, Bytes data, SendDoneFn done) {
  OMNI_CHECK_MSG(started_, "start() first");
  auto it = peers_.find(dest);
  if (it == peers_.end()) {
    if (done) done(Status::error("unknown peer"));
    return;
  }
  // QoS-based selection: WiFi when available (throughput), BLE otherwise.
  if (options_.enable_wifi && options_.data_over_wifi) {
    send_via_wifi(dest, std::move(data), std::move(done));
    return;
  }
  send_via_ble(dest, std::move(data), std::move(done));
}

void SaNode::send_via_wifi(PeerId dest, Bytes data, SendDoneFn done) {
  Peer& peer = peers_.at(dest);
  if (peer.on_wifi && peer.wifi_validated) {
    do_wifi_unicast(dest, std::move(data), std::move(done));
    return;
  }
  // No integrated neighbor discovery: resolve the peer at the WiFi level.
  // Sends issued while a resolution is already in flight wait for it rather
  // than spawning rituals of their own.
  auto& waiting = pending_resolution_[dest];
  waiting.emplace_back(std::move(data), std::move(done));
  if (waiting.size() > 1) return;

  // If the service was already discovered over BLE, only the address needs
  // resolving; otherwise the next periodic advertisement must be awaited.
  bool skip_advert_wait = peer.on_ble;
  net::run_discovery_ritual(
      device_.wifi(), mesh_,
      net::RitualOptions{/*wait_for_advertisement=*/!skip_advert_wait},
      [this, dest, alive = std::weak_ptr<bool>(alive_)](Status s) {
        if (alive.expired()) return;  // node destroyed mid-resolution
        auto pending_it = pending_resolution_.find(dest);
        std::vector<PendingSend> pending;
        if (pending_it != pending_resolution_.end()) {
          pending = std::move(pending_it->second);
          pending_resolution_.erase(pending_it);
        }
        auto fail_all = [&](const std::string& why) {
          for (auto& [data, done] : pending) {
            if (done) done(Status::error(why));
          }
        };
        if (!s.is_ok()) {
          fail_all(s.message());
          return;
        }
        auto it = peers_.find(dest);
        if (it == peers_.end()) {
          fail_all("peer vanished during resolution");
          return;
        }
        // The resolve query's response carries the peer's mesh address.
        auto resolved = directory_.lookup(dest);
        if (!resolved) {
          fail_all("peer did not answer resolution");
          return;
        }
        it->second.on_wifi = true;
        it->second.mesh_address = *resolved;
        it->second.wifi_validated = true;
        for (auto& [data, done] : pending) {
          do_wifi_unicast(dest, std::move(data), std::move(done));
        }
      });
}

void SaNode::do_wifi_unicast(PeerId dest, Bytes data, SendDoneFn done) {
  Peer& peer = peers_.at(dest);
  if (!joined_) {
    if (done) done(Status::error("not joined to mesh"));
    return;
  }
  Bytes payload = frame_unicast_mesh(peer.mesh_address, with_id(self(), data));
  // Evaluate before the call: std::move(payload) below must not race the
  // size() read (argument evaluation order is unspecified).
  std::uint64_t payload_size = payload.size();
  auto shared_done = std::make_shared<SendDoneFn>(std::move(done));
  auto flow = mesh_.open_flow(
      device_.wifi(), peer.mesh_address, payload_size,
      [shared_done](Status s) {
        if (*shared_done) (*shared_done)(std::move(s));
      },
      nullptr, std::make_shared<const Bytes>(std::move(payload)));
  if (!flow.is_ok() && *shared_done) {
    (*shared_done)(Status::error(flow.error_message()));
  }
}

void SaNode::send_via_ble(PeerId dest, Bytes data, SendDoneFn done) {
  Peer& peer = peers_.at(dest);
  if (!peer.on_ble) {
    if (done) done(Status::error("peer not reachable over BLE"));
    return;
  }
  Bytes frame = frame_unicast_ble(peer.ble_address, with_id(self(), data));
  Status s = device_.ble().send_datagram(
      std::move(frame), [done = std::move(done)](Status st) {
        if (done) done(std::move(st));
      });
  OMNI_CHECK_MSG(s.is_ok(), s.message());
}

void SaNode::broadcast_data(Bytes data, SendDoneFn done) {
  OMNI_CHECK_MSG(started_, "start() first");
  if (!options_.enable_wifi || !joined_) {
    if (done) done(Status::error("WiFi multicast unavailable"));
    return;
  }
  Bytes payload = frame_broadcast_data(with_id(self(), data));
  std::uint64_t payload_size = payload.size();
  Status s = mesh_.multicast_bulk(
      device_.wifi(), payload_size, std::move(payload),
      [done = std::move(done)](std::vector<radio::WifiRadio*> receivers) {
        if (!done) return;
        if (receivers.empty()) {
          done(Status::error("no multicast receivers"));
        } else {
          done(Status::ok());
        }
      });
  if (!s.is_ok() && done) done(std::move(s));
}

std::vector<D2dStack::PeerId> SaNode::known_peers() const {
  std::vector<PeerId> out;
  TimePoint now = device_.meter().simulator().now();
  for (const auto& [id, peer] : peers_) {
    if (now - peer.last_seen <= kBaselinePeerTtl) out.push_back(id);
  }
  return out;
}

void SaNode::on_ble_receive(const BleAddress& from, const Bytes& frame) {
  auto unframed = unframe_ble_view(frame, device_.ble().address());
  if (!unframed) return;
  auto parsed = split_id(*unframed);
  if (!parsed) return;
  auto [peer_id, payload] = *parsed;
  if (peer_id == self()) return;
  Peer& peer = peers_[peer_id];
  peer.on_ble = true;
  peer.ble_address = from;
  peer.last_seen = device_.meter().simulator().now();
  bool is_advert = !frame.empty() && frame[0] == kFrameBroadcast;
  if (is_advert) {
    if (on_advert_) on_advert_(peer_id, Bytes(payload.begin(), payload.end()));
  } else {
    if (on_data_) on_data_(peer_id, payload);
  }
}

void SaNode::on_wifi_datagram(const MeshAddress& from, const Bytes& frame,
                              bool multicast) {
  auto unframed = unframe_mesh_view(frame, device_.wifi().address());
  if (!unframed) return;
  auto parsed = split_id(*unframed);
  if (!parsed) return;
  auto [peer_id, payload] = *parsed;
  if (peer_id == self()) return;
  Peer& peer = peers_[peer_id];
  peer.on_wifi = true;
  peer.mesh_address = from;
  peer.last_seen = device_.meter().simulator().now();
  if (!multicast) peer.wifi_validated = true;
  bool is_advert = !frame.empty() && frame[0] == kFrameBroadcast;
  if (is_advert) {
    if (on_advert_) on_advert_(peer_id, Bytes(payload.begin(), payload.end()));
  } else {
    if (on_data_) on_data_(peer_id, payload);
  }
}

}  // namespace omni::baselines
