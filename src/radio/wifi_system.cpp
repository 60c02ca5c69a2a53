#include "radio/wifi_system.h"

#include <algorithm>
#include <iterator>

#include "radio/mesh.h"
#include "radio/wifi_radio.h"

namespace omni::radio {

WifiSystem::WifiSystem(sim::World& world, const Calibration& cal)
    : world_(world), cal_(cal) {}

WifiSystem::~WifiSystem() = default;

MeshNetwork& WifiSystem::create_mesh(std::string name) {
  meshes_.push_back(std::make_unique<MeshNetwork>(*this, std::move(name)));
  return *meshes_.back();
}

void WifiSystem::detach(WifiRadio* radio) {
  // Search from the back: a Testbed tears devices down newest-first, so
  // each radio is found and erased at the end.
  auto it = std::find(radios_.rbegin(), radios_.rend(), radio);
  if (it != radios_.rend()) radios_.erase(std::next(it).base());
}

std::vector<MeshNetwork*> WifiSystem::visible_meshes(
    const WifiRadio& from) const {
  std::vector<MeshNetwork*> out;
  // One grid query covers every mesh: a mesh is visible iff some candidate
  // node in WiFi range hosts one of its powered members.
  world_.nodes_near(from.node(), cal_.wifi_range_m, scratch_nodes_);
  for (const auto& m : meshes_) {
    for (NodeId node : scratch_nodes_) {
      const std::vector<WifiRadio*>* members = m->members_on_node(node);
      if (members == nullptr) continue;
      bool visible = false;
      for (WifiRadio* member : *members) {
        if (member != &from && member->powered()) {
          visible = true;
          break;
        }
      }
      if (visible) {
        out.push_back(m.get());
        break;
      }
    }
  }
  return out;
}

}  // namespace omni::radio
