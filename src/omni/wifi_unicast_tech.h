// WiFi-Mesh unicast TCP technology plugin: Omni's high-throughput data
// carrier (paper §3.2, "Technologies for Distributing Data").
//
// At enable time the radio is powered and peered into the mesh once, giving
// the device a reachable address in standby (what the paper calls having
// "some ip address to be reachable"). Data sends open a fluid TCP flow. If
// the manager flags the peer mapping as multicast-derived (needs_refresh),
// the discovery ritual (scan + join + resolve) runs first — this is the
// multi-second penalty Omni avoids whenever the mapping came from BLE
// address beacons.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "net/discovery_ritual.h"
#include "omni/comm_tech.h"
#include "radio/mesh.h"
#include "radio/wifi_radio.h"

namespace omni {

class WifiUnicastTech final : public CommTechnology {
 public:
  WifiUnicastTech(radio::WifiRadio& radio, radio::MeshNetwork& mesh);
  /// Withdraws the radio handlers of a plugin destroyed while enabled.
  ~WifiUnicastTech() override;

  EnableResult enable(const TechQueues& queues) override;
  void disable() override;

  Technology type() const override { return Technology::kWifiUnicast; }
  bool enabled() const override { return enabled_; }

  bool supports_context() const override { return false; }
  bool supports_data() const override { return true; }
  std::size_t max_context_payload() const override { return 0; }
  std::size_t max_data_payload() const override { return 0; }  // unbounded
  Duration estimate_data_time(std::size_t bytes,
                              bool needs_refresh) const override;

  void set_engaged(bool engaged) override { engaged_ = engaged; }
  bool engaged() const override { return engaged_; }
  /// The mesh's fluid-flow state spans every member node: requests must be
  /// processed barrier-serialized (global owner) under the parallel engine.
  bool uses_shared_medium() const override { return true; }

  bool joined() const { return joined_; }

 private:
  void drain_send_queue();
  void process(SendRequest request);
  void do_send(std::shared_ptr<SendRequest> request);
  void respond(const SendRequest& request, bool success,
               std::string failure = {});
  /// Remove the datagram and power handlers enable() registered.
  void release_radio();

  radio::WifiRadio& radio_;
  radio::MeshNetwork& mesh_;
  TechQueues queues_;
  radio::WifiRadio::HandlerId datagram_handler_ = 0;
  radio::WifiRadio::HandlerId power_handler_ = 0;
  bool enabled_ = false;
  bool engaged_ = false;
  bool joined_ = false;
  /// Requests arriving before the initial mesh join completes.
  std::vector<SendRequest> waiting_for_join_;
  /// Requests parked inside the discovery ritual (scan/join/resolve). The
  /// ritual holds its callback in simulator events that may outlive a
  /// disable(): each entry is answered terminally at disable() and the
  /// late callback, finding its token gone, becomes a no-op.
  std::map<std::uint64_t, std::shared_ptr<SendRequest>> in_ritual_;
  std::uint64_t next_ritual_token_ = 1;
  /// Liveness token for callbacks that can outlive the plugin itself: mesh
  /// join completions and discovery-ritual completions.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  /// Flows this plugin opened that have not completed. The mesh outlives
  /// the plugin, so disable() must withdraw these flows' completion
  /// callbacks — a flow failing later (radio teardown, membership loss)
  /// would otherwise call back into freed memory.
  std::map<radio::FlowId, std::shared_ptr<SendRequest>> open_flows_;
};

}  // namespace omni
