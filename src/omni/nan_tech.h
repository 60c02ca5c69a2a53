// WiFi-Aware technology plugin: the paper's anticipated successor to
// multicast as the WiFi-side *context* carrier (§3.2).
//
// Context packs publish as NAN service discovery frames (up to 255 bytes —
// an order of magnitude more than a legacy BLE advertisement, at WiFi
// range); small data rides follow-up datagrams. Crucially, NAN is
// device-level discovery: mappings learned through it are ND-integrated and
// never require the scan/join re-validation ritual — which is exactly why
// the paper wanted it.
#pragma once

#include <map>
#include <memory>

#include "omni/comm_tech.h"
#include "radio/nan.h"

namespace omni {

class NanTech final : public CommTechnology {
 public:
  explicit NanTech(radio::NanRadio& radio) : radio_(radio) {}
  /// Withdraws the receive handler of a plugin destroyed while enabled.
  ~NanTech() override;

  EnableResult enable(const TechQueues& queues) override;
  void disable() override;

  Technology type() const override { return Technology::kWifiAware; }
  bool enabled() const override { return enabled_; }

  bool supports_context() const override { return true; }
  bool supports_data() const override { return true; }
  std::size_t max_context_payload() const override;
  std::size_t max_data_payload() const override;
  Duration estimate_data_time(std::size_t bytes,
                              bool needs_refresh) const override;

  void set_engaged(bool engaged) override;
  bool engaged() const override { return engaged_; }

 private:
  /// Window attendance while disengaged (probe-listening): attend one DW in
  /// this many.
  static constexpr std::uint32_t kProbeAttendance = 10;

  void drain_send_queue();
  void process(SendRequest request);
  void on_receive(const NanAddress& from, const SharedBytes& frame);
  void respond(const SendRequest& request, bool success,
               std::string failure = {});

  radio::NanRadio& radio_;
  TechQueues queues_;
  bool enabled_ = false;
  bool engaged_ = false;
  std::map<ContextId, radio::NanRadio::PublishId> context_publishes_;
  /// Liveness token for follow-up completions that outlive the plugin.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace omni
