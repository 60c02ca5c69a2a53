// BLE technology plugin: periodic context via advertisements, small data via
// fast-advertising datagrams (paper §3.2, "Technologies for Distributing
// Context").
//
// The lowest-energy technology in the stack; Omni's default carrier for
// address beacons and context. Payloads are bounded by the 31-byte legacy
// advertisement (or 255-byte Bluetooth 5 extended advertising when the
// calibration enables it — the paper's future-work item).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "omni/comm_tech.h"
#include "radio/ble.h"

namespace omni {

class BleTech final : public CommTechnology {
 public:
  explicit BleTech(radio::BleRadio& radio) : radio_(radio) {}
  /// Withdraws the radio handlers of a plugin destroyed while enabled.
  ~BleTech() override;

  EnableResult enable(const TechQueues& queues) override;
  void disable() override;

  Technology type() const override { return Technology::kBle; }
  bool enabled() const override { return enabled_; }

  bool supports_context() const override { return true; }
  bool supports_data() const override { return true; }
  std::size_t max_context_payload() const override;
  std::size_t max_data_payload() const override;
  Duration estimate_data_time(std::size_t bytes,
                              bool needs_refresh) const override;

  void set_engaged(bool engaged) override;
  bool engaged() const override { return engaged_; }

  /// Discovery-policy listen scheduling: the manager caps the scan duty when
  /// the neighborhood is saturated and stable, and clears the cap (duty = 0)
  /// when it changes. Applies to both engaged (default duty 1.0) and probe
  /// (kProbeScanDuty) listening; data datagrams ride reliable bursts and are
  /// unaffected.
  void set_discovery_scan_duty(double duty) override;
  /// The duty the scanner currently runs at (tests / benches).
  double effective_scan_duty() const;

 private:
  /// Scanner duty while disengaged (probe listening).
  static constexpr double kProbeScanDuty = 0.1;

  void drain_send_queue();
  void process(SendRequest request);
  void on_radio_receive(const BleAddress& from, const SharedBytes& frame);
  void respond(const SendRequest& request, bool success,
               std::string failure = {});
  /// Clear every handler enable() registered on the radio.
  void release_radio();

  radio::BleRadio& radio_;
  TechQueues queues_;
  bool enabled_ = false;
  bool engaged_ = true;
  /// Discovery-policy duty cap; 0 = none (see set_discovery_scan_duty).
  double scan_duty_override_ = 0.0;
  std::map<ContextId, radio::AdvertisementId> context_advs_;
  /// Liveness token for datagram completions that outlive the plugin.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace omni
