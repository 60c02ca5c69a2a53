// State of the Art: a generalized multi-radio middleware baseline in the
// mold of ubiSOAP / Haggle (paper §4: "we implement a generalized
// multi-radio approach that contains the relevant features to operate in our
// setting ... but adopts the paradigms specific to these approaches").
//
// Defining paradigms, per the paper:
//   * advertisements are sent at the application level on ALL active
//     technologies (BLE advertising + WiFi multicast), every interval — the
//     overlay maintenance that costs ~16 mA of continuous multicast energy;
//   * no integration with low-level neighbor discovery: a BLE advert carries
//     service info but NOT the peer's WiFi address, so before WiFi data
//     transfer the node must resolve the peer at the WiFi level
//     (scan + join + query — the ~2.8 s penalty), though it skips the
//     advert wait when the service itself was already discovered over BLE;
//   * data technology is chosen by QoS: WiFi TCP when available, BLE
//     datagrams otherwise.
#pragma once

#include <map>
#include <memory>

#include "baselines/d2d_stack.h"
#include "baselines/directory.h"
#include "net/device.h"
#include "net/discovery_ritual.h"
#include "net/link_frame.h"
#include "radio/mesh.h"

namespace omni::baselines {

class SaNode final : public D2dStack {
 public:
  struct Options {
    bool enable_ble = true;
    bool enable_wifi = true;
    /// QoS preference: route data over WiFi TCP when available. Disabled in
    /// configurations where the experiment pins data to BLE.
    bool data_over_wifi = true;
    /// Overlay maintenance interval (address + service info on all
    /// technologies), paper-fixed at 500 ms.
    Duration overlay_interval = Duration::millis(500);
  };

  SaNode(net::Device& device, radio::MeshNetwork& mesh, Directory& directory)
      : SaNode(device, mesh, directory, Options{}) {}
  SaNode(net::Device& device, radio::MeshNetwork& mesh, Directory& directory,
         Options options);
  ~SaNode() override;

  void start() override;
  void stop() override;
  PeerId self() const override { return device_.omni_address().value; }

  void set_advert_handler(AdvertFn fn) override { on_advert_ = std::move(fn); }
  void set_data_handler(DataFn fn) override { on_data_ = std::move(fn); }

  void advertise(Bytes info, Duration interval) override;
  void stop_advertising() override;
  void send(PeerId dest, Bytes data, SendDoneFn done) override;
  bool supports_broadcast_data() const override {
    return options_.enable_wifi;
  }
  void broadcast_data(Bytes data, SendDoneFn done) override;
  std::vector<PeerId> known_peers() const override;
  const char* name() const override { return "SA(multi-radio)"; }

 private:
  struct Peer {
    bool on_ble = false;
    BleAddress ble_address;
    bool on_wifi = false;
    MeshAddress mesh_address;
    bool wifi_validated = false;
    TimePoint last_seen;
  };

  void refresh_overlay_adverts();
  void fire_wifi_advert();
  void schedule_wifi_advert(Duration delay);
  void schedule_maintenance(Duration delay);
  void on_ble_receive(const BleAddress& from, const Bytes& frame);
  void on_wifi_datagram(const MeshAddress& from, const Bytes& frame,
                        bool multicast);
  void send_via_wifi(PeerId dest, Bytes data, SendDoneFn done);
  void do_wifi_unicast(PeerId dest, Bytes data, SendDoneFn done);
  void send_via_ble(PeerId dest, Bytes data, SendDoneFn done);

  net::Device& device_;
  radio::MeshNetwork& mesh_;
  Directory& directory_;
  Options options_;
  bool started_ = false;
  bool joined_ = false;
  AdvertFn on_advert_;
  DataFn on_data_;

  Bytes advert_info_;  // empty until advertise(); overlay beacons still flow
  radio::AdvertisementId ble_advert_ = 0;
  sim::EventHandle wifi_advert_event_;
  sim::EventHandle maintenance_event_;
  radio::PeriodicLoadId wifi_advert_load_ = 0;
  /// The WiFi datagram handler registered by start(), withdrawn by stop().
  radio::WifiRadio::HandlerId datagram_handler_ = 0;
  /// Expires with the node: join and resolution completions outlive it.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::map<PeerId, Peer> peers_;
  /// Sends parked behind an in-flight WiFi resolution, per destination.
  using PendingSend = std::pair<Bytes, SendDoneFn>;
  std::map<PeerId, std::vector<PendingSend>> pending_resolution_;
};

}  // namespace omni::baselines
