// OmniNode: a device running the Omni middleware.
//
// Bundles a simulated Device with the selected technology plugins and an
// OmniManager; this is the top-level object examples and experiments
// instantiate per device.
#pragma once

#include <memory>
#include <vector>

#include "net/device.h"
#include "omni/ble_tech.h"
#include "omni/manager.h"
#include "omni/nan_tech.h"
#include "omni/wifi_multicast_tech.h"
#include "omni/wifi_unicast_tech.h"
#include "radio/mesh.h"

namespace omni {

struct OmniNodeOptions {
  /// Which technology plugins to instantiate. The paper's configurations:
  /// BLE-context rows run {ble, wifi_unicast}; WiFi-context rows run
  /// {wifi_multicast, wifi_unicast}; full deployments run all three.
  /// wifi_aware adds the paper's anticipated NAN context carrier.
  bool ble = true;
  bool wifi_unicast = true;
  bool wifi_multicast = false;
  bool wifi_aware = false;

  /// Keep the WiFi radio powered (standby draw) even when no WiFi technology
  /// is registered — matching the paper's measurement convention, where the
  /// WiFi radio stays on unless the configuration turns it off outright.
  bool wifi_standby = true;

  ManagerOptions manager;
};

class OmniNode {
 public:
  OmniNode(net::Device& device, radio::MeshNetwork& mesh,
           OmniNodeOptions options = {});
  OmniNode(const OmniNode&) = delete;
  OmniNode& operator=(const OmniNode&) = delete;

  /// Enable all technologies and start the manager.
  void start();
  void stop();

  OmniManager& manager() { return *manager_; }
  net::Device& device() { return device_; }
  OmniAddress address() const { return device_.omni_address(); }

  BleTech* ble_tech() { return ble_tech_.get(); }
  WifiUnicastTech* wifi_unicast_tech() { return unicast_tech_.get(); }
  WifiMulticastTech* wifi_multicast_tech() { return multicast_tech_.get(); }
  NanTech* nan_tech() { return nan_tech_.get(); }

 private:
  net::Device& device_;
  OmniNodeOptions options_;
  std::unique_ptr<BleTech> ble_tech_;
  std::unique_ptr<NanTech> nan_tech_;
  std::unique_ptr<WifiUnicastTech> unicast_tech_;
  std::unique_ptr<WifiMulticastTech> multicast_tech_;
  std::unique_ptr<OmniManager> manager_;
};

}  // namespace omni
