// WiFi-Mesh UDP-multicast technology plugin (paper §3.2: provided "as a
// proof of concept since it is one of the primary technologies used by state
// of the art solutions for address sharing and service discovery").
//
// Context packs are sent as periodic multicast datagrams; data goes out as
// fragmented bulk multicast at the 802.11 base rate. Each periodic context
// registers its airtime load with the mesh so concurrent TCP flows feel the
// impediment the paper measures in Table 5.
//
// Engagement semantics: engaged, all multicast receptions are forwarded to
// the manager; disengaged, the plugin probe-listens — a window of one beacon
// interval every probe period, charged at WiFi-receive draw — which is how
// the Omni Manager "listens on each of the other available context D2D
// technologies" (paper §3.3) without paying for continuous multicast
// reception.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "net/discovery_ritual.h"
#include "omni/comm_tech.h"
#include "radio/mesh.h"
#include "radio/wifi_radio.h"
#include "sim/event_queue.h"

namespace omni {

class WifiMulticastTech final : public CommTechnology {
 public:
  WifiMulticastTech(radio::WifiRadio& radio, radio::MeshNetwork& mesh)
      : radio_(radio), mesh_(mesh) {}
  /// Cancels the plugin's timers and withdraws the radio handlers of a
  /// plugin destroyed while enabled.
  ~WifiMulticastTech() override;

  EnableResult enable(const TechQueues& queues) override;
  void disable() override;

  Technology type() const override { return Technology::kWifiMulticast; }
  bool enabled() const override { return enabled_; }

  bool supports_context() const override { return true; }
  bool supports_data() const override { return true; }
  std::size_t max_context_payload() const override;
  std::size_t max_data_payload() const override { return 0; }  // unbounded
  Duration estimate_data_time(std::size_t bytes,
                              bool needs_refresh) const override;

  void set_engaged(bool engaged) override;
  bool engaged() const override { return engaged_; }
  /// Multicast airtime accounting lives in the shared mesh: requests must be
  /// processed barrier-serialized (global owner) under the parallel engine.
  bool uses_shared_medium() const override { return true; }

  bool joined() const { return joined_; }

 private:
  /// Probe listen window while disengaged, opened every kProbeInterval
  /// (>= one beacon interval, so a probing device reliably hears periodic
  /// beacons).
  static constexpr Duration kProbeWindow = Duration::millis(600);

  // Periodic contexts are coalesced: every tick, all transmissions that are
  // due go out as ONE aggregate multicast datagram (beacon aggregation —
  // address beacons and service contexts share a single 500 ms stream, as on
  // the paper's prototype).
  struct ContextEntry {
    SharedBytes packed;  ///< the request's buffer, shared
    Duration interval;
    TimePoint last_sent;
  };

  void drain_send_queue();
  void process(SendRequest request);
  void reschedule_tick();
  void fire_tick();
  void update_periodic_load();
  void do_send_data(std::shared_ptr<SendRequest> request);
  void schedule_probe();
  void schedule_maintenance_scan(Duration delay);
  void probe_fired();
  void on_multicast(const MeshAddress& from, const SharedBytes& frame);
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
  std::map<ContextId, ContextEntry> contexts_;
  std::vector<SendRequest> waiting_for_join_;
  TimePoint probe_window_until_ = TimePoint::origin();
  sim::EventHandle tick_event_;
  radio::PeriodicLoadId aggregate_load_ = 0;
  sim::EventHandle probe_event_;
  sim::EventHandle maintenance_event_;
  /// Liveness token for callbacks that can outlive the plugin: engagement
  /// syncs, mesh join completions, and ritual and bulk-send completions.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace omni
