// Registry tying together WiFi radios and mesh networks.
//
// Owns the mesh networks, resolves which meshes a scanning radio can see
// (any mesh with a member inside WiFi range), and provides the world/clock
// context shared by the 802.11 models.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "radio/calibration.h"
#include "sim/simulator.h"
#include "sim/world.h"

namespace omni::radio {

class WifiRadio;
class MeshNetwork;

class WifiSystem {
 public:
  WifiSystem(sim::World& world, const Calibration& cal);
  WifiSystem(const WifiSystem&) = delete;
  WifiSystem& operator=(const WifiSystem&) = delete;
  ~WifiSystem();

  /// Create a mesh network; the system owns it.
  MeshNetwork& create_mesh(std::string name);

  const std::vector<std::unique_ptr<MeshNetwork>>& meshes() const {
    return meshes_;
  }

  void attach(WifiRadio* radio) { radios_.push_back(radio); }
  void detach(WifiRadio* radio);

  /// Meshes visible to `from`: those with >= 1 powered member in WiFi range.
  std::vector<MeshNetwork*> visible_meshes(const WifiRadio& from) const;

  sim::World& world() { return world_; }
  sim::Simulator& simulator() { return world_.simulator(); }
  const Calibration& calibration() const { return cal_; }

 private:
  sim::World& world_;
  const Calibration& cal_;
  std::vector<std::unique_ptr<MeshNetwork>> meshes_;
  std::vector<WifiRadio*> radios_;
  mutable std::vector<NodeId> scratch_nodes_;  // reused range-query buffer
};

}  // namespace omni::radio
