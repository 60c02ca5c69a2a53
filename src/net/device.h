// A simulated device: one energy meter plus one radio per technology.
//
// Matches the paper's testbed unit — a Raspberry Pi 3 with an onboard BLE
// controller and a USB 802.11n adapter, metered as a whole.
#pragma once

#include <string>

#include "common/hash.h"
#include "common/types.h"
#include "radio/ble.h"
#include "radio/energy_meter.h"
#include "radio/nan.h"
#include "radio/wifi_radio.h"
#include "radio/wifi_system.h"
#include "sim/world.h"

namespace omni::net {

class Device {
 public:
  Device(sim::World& world, radio::BleMedium& ble_medium,
         radio::WifiSystem& wifi_system, radio::NanSystem& nan_system,
         NodeId node)
      : node_(node),
        world_(world),
        meter_(world.simulator()),
        ble_(ble_medium, world.simulator(), meter_, node,
             ble_medium.calibration()),
        wifi_(wifi_system, meter_, node),
        nan_(nan_system, world.simulator(), meter_, node,
             ble_medium.calibration()),
        omni_address_(derive_omni_address(ble_.address(), wifi_.address())) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  NodeId node() const { return node_; }
  sim::World& world() { return world_; }
  radio::EnergyMeter& meter() { return meter_; }
  radio::BleRadio& ble() { return ble_; }
  radio::WifiRadio& wifi() { return wifi_; }
  radio::NanRadio& nan() { return nan_; }

  /// The device's technology-agnostic identity: the hash of its *hardware*
  /// addresses, fixed at manufacture (paper §3.3). BLE privacy rotation
  /// changes the on-air link address but never this identity.
  OmniAddress omni_address() const { return omni_address_; }

 private:
  NodeId node_;
  sim::World& world_;
  radio::EnergyMeter meter_;
  radio::BleRadio ble_;
  radio::WifiRadio wifi_;
  radio::NanRadio nan_;
  OmniAddress omni_address_;
};

}  // namespace omni::net
