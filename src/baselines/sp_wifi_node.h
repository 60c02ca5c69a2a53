// State of the Practice, WiFi-only variant.
//
// The application is hand-coded against WiFi-Mesh: discovery and
// advertisement ride application-level multicast (the paper: "application-
// level multicast is used for address discovery"), so before any unicast
// transfer the node pays the full discovery ritual — periodic scan, join,
// and waiting out the peer's next advertisement. Bulk dissemination uses
// multicast directly (the Disseminate SP configuration).
#pragma once

#include <map>
#include <memory>

#include "baselines/d2d_stack.h"
#include "net/device.h"
#include "net/discovery_ritual.h"
#include "net/link_frame.h"
#include "radio/mesh.h"

namespace omni::baselines {

class SpWifiNode final : public D2dStack {
 public:
  SpWifiNode(net::Device& device, radio::MeshNetwork& mesh)
      : device_(device), mesh_(mesh) {}
  ~SpWifiNode() override;

  void start() override;
  void stop() override;
  PeerId self() const override { return device_.omni_address().value; }

  void set_advert_handler(AdvertFn fn) override { on_advert_ = std::move(fn); }
  void set_data_handler(DataFn fn) override { on_data_ = std::move(fn); }

  void advertise(Bytes info, Duration interval) override;
  void stop_advertising() override;
  void send(PeerId dest, Bytes data, SendDoneFn done) override;
  bool supports_broadcast_data() const override { return true; }
  void broadcast_data(Bytes data, SendDoneFn done) override;
  std::vector<PeerId> known_peers() const override;
  const char* name() const override { return "SP(WiFi)"; }

 private:
  struct Peer {
    MeshAddress address;
    TimePoint last_seen;
    /// Proven by a unicast exchange; stale mappings pay the ritual.
    bool validated = false;
  };

  void on_datagram(const MeshAddress& from, const Bytes& frame,
                   bool multicast);
  void fire_advert();
  void schedule_advert(Duration delay);
  void schedule_maintenance(Duration delay);
  void do_unicast(PeerId dest, Bytes data, SendDoneFn done);

  net::Device& device_;
  radio::MeshNetwork& mesh_;
  bool started_ = false;
  bool joined_ = false;
  AdvertFn on_advert_;
  DataFn on_data_;

  Bytes advert_info_;
  Duration advert_interval_ = Duration::zero();
  sim::EventHandle advert_event_;
  sim::EventHandle maintenance_event_;
  radio::PeriodicLoadId advert_load_ = 0;
  /// The WiFi datagram handler registered by start(), withdrawn by stop().
  radio::WifiRadio::HandlerId datagram_handler_ = 0;
  /// Expires with the node: join and discovery completions outlive it.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::map<PeerId, Peer> peers_;
  /// Sends parked behind an in-flight validation ritual, per destination.
  using PendingSend = std::pair<Bytes, SendDoneFn>;
  std::map<PeerId, std::vector<PendingSend>> pending_validation_;
};

}  // namespace omni::baselines
