#include "baselines/sp_wifi_node.h"

#include "baselines/wire.h"

namespace omni::baselines {

SpWifiNode::~SpWifiNode() { stop(); }

void SpWifiNode::start() {
  if (started_) return;
  started_ = true;
  device_.ble().set_powered(false);  // single-technology app
  device_.wifi().set_powered(true);
  datagram_handler_ = device_.wifi().add_datagram_handler(
      [this](const MeshAddress& from, const SharedBytes& frame,
             bool multicast) {
        if (started_) on_datagram(from, *frame, multicast);
      });
  device_.wifi().join(mesh_,
                      [this, alive = std::weak_ptr<bool>(alive_)](Status s) {
                        if (alive.expired()) return;  // destroyed mid-join
                        joined_ = s.is_ok();
                      });
  // First rescan at half period, de-phasing it from other periodic work.
  schedule_maintenance(
      device_.wifi().calibration().wifi_maintenance_scan_period / 2);
}

void SpWifiNode::stop() {
  if (!started_) return;
  stop_advertising();
  advert_event_.cancel();
  maintenance_event_.cancel();
  // The device may outlive this node, and a later start() registers the
  // handler afresh.
  device_.wifi().remove_handler(datagram_handler_);
  datagram_handler_ = 0;
  started_ = false;
}

void SpWifiNode::schedule_maintenance(Duration delay) {
  maintenance_event_ = device_.meter().simulator().after(delay, [this] {
    if (!started_) return;
    device_.wifi().scan([](std::vector<radio::MeshNetwork*>) {});
    schedule_maintenance(
        device_.wifi().calibration().wifi_maintenance_scan_period);
  });
}

void SpWifiNode::advertise(Bytes info, Duration interval) {
  OMNI_CHECK_MSG(started_, "start() first");
  OMNI_CHECK_MSG(interval > Duration::zero(), "advert interval must be > 0");
  advert_info_ = std::move(info);
  bool was_advertising = advert_interval_ > Duration::zero();
  advert_interval_ = interval;
  if (!was_advertising) {
    advert_load_ = mesh_.register_periodic_multicast(interval);
    schedule_advert(interval);
  }
}

void SpWifiNode::stop_advertising() {
  advert_event_.cancel();
  if (advert_load_ != 0) {
    mesh_.unregister_periodic_multicast(advert_load_);
    advert_load_ = 0;
  }
  advert_interval_ = Duration::zero();
}

void SpWifiNode::schedule_advert(Duration delay) {
  advert_event_ =
      device_.meter().simulator().after(delay, [this] { fire_advert(); });
}

void SpWifiNode::fire_advert() {
  if (!started_ || advert_interval_ <= Duration::zero()) return;
  if (joined_) {
    mesh_.multicast_datagram(device_.wifi(),
                             frame_broadcast(with_id(self(), advert_info_)));
  }
  schedule_advert(advert_interval_);
}

void SpWifiNode::send(PeerId dest, Bytes data, SendDoneFn done) {
  OMNI_CHECK_MSG(started_, "start() first");
  auto it = peers_.find(dest);
  if (it == peers_.end()) {
    if (done) done(Status::error("unknown peer"));
    return;
  }
  if (it->second.validated) {
    do_unicast(dest, std::move(data), std::move(done));
    return;
  }
  // Application-level multicast discovery: the mapping must be re-validated
  // (scan + join + advert wait) before a connection can be formed. Sends
  // issued while a ritual is in flight wait for it.
  auto& waiting = pending_validation_[dest];
  waiting.emplace_back(std::move(data), std::move(done));
  if (waiting.size() > 1) return;
  net::run_discovery_ritual(
      device_.wifi(), mesh_,
      net::RitualOptions{/*wait_for_advertisement=*/true},
      [this, dest, alive = std::weak_ptr<bool>(alive_)](Status s) {
        if (alive.expired()) return;  // node destroyed mid-discovery
        auto pending_it = pending_validation_.find(dest);
        std::vector<PendingSend> pending;
        if (pending_it != pending_validation_.end()) {
          pending = std::move(pending_it->second);
          pending_validation_.erase(pending_it);
        }
        auto it = peers_.find(dest);
        if (!s.is_ok() || it == peers_.end()) {
          for (auto& [data, done] : pending) {
            if (done) {
              done(s.is_ok() ? Status::error("peer vanished during discovery")
                             : s);
            }
          }
          return;
        }
        it->second.validated = true;
        for (auto& [data, done] : pending) {
          do_unicast(dest, std::move(data), std::move(done));
        }
      });
}

void SpWifiNode::do_unicast(PeerId dest, Bytes data, SendDoneFn done) {
  const Peer& peer = peers_.at(dest);
  Bytes payload = frame_unicast_mesh(peer.address, with_id(self(), data));
  // Evaluate before the call: std::move(payload) below must not race the
  // size() read (argument evaluation order is unspecified).
  std::uint64_t payload_size = payload.size();
  auto shared_done = std::make_shared<SendDoneFn>(std::move(done));
  auto flow = mesh_.open_flow(
      device_.wifi(), peer.address, payload_size,
      [shared_done](Status s) {
        if (*shared_done) (*shared_done)(std::move(s));
      },
      nullptr, std::make_shared<const Bytes>(std::move(payload)));
  if (!flow.is_ok() && *shared_done) {
    (*shared_done)(Status::error(flow.error_message()));
  }
}

void SpWifiNode::broadcast_data(Bytes data, SendDoneFn done) {
  OMNI_CHECK_MSG(started_, "start() first");
  if (!joined_) {
    if (done) done(Status::error("not joined"));
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

std::vector<D2dStack::PeerId> SpWifiNode::known_peers() const {
  std::vector<PeerId> out;
  TimePoint now = device_.meter().simulator().now();
  for (const auto& [id, peer] : peers_) {
    if (now - peer.last_seen <= kBaselinePeerTtl) out.push_back(id);
  }
  return out;
}

void SpWifiNode::on_datagram(const MeshAddress& from, const Bytes& frame,
                             bool multicast) {
  auto unframed = unframe_mesh_view(frame, device_.wifi().address());
  if (!unframed) return;
  auto parsed = split_id(*unframed);
  if (!parsed) return;
  auto [peer_id, payload] = *parsed;
  if (peer_id == self()) return;
  Peer& peer = peers_[peer_id];
  peer.address = from;
  peer.last_seen = device_.meter().simulator().now();
  bool is_advert_frame = !frame.empty() && frame[0] == kFrameBroadcast;
  if (!multicast) peer.validated = true;  // unicast exchange proves the path
  if (is_advert_frame) {
    if (on_advert_) on_advert_(peer_id, Bytes(payload.begin(), payload.end()));
  } else {
    if (on_data_) on_data_(peer_id, payload);
  }
}

}  // namespace omni::baselines
