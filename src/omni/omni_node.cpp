#include "omni/omni_node.h"

namespace omni {

OmniNode::OmniNode(net::Device& device, radio::MeshNetwork& mesh,
                   OmniNodeOptions options)
    : device_(device), options_(options) {
  // Pin the manager's timers and node-local queues to the hosting node's
  // shard so independent devices execute in parallel under the engine.
  options_.manager.owner = device_.node();
  // Discovery scheduler density signal (only consulted under kAdaptive).
  options_.manager.world = &device_.world();
  manager_ = std::make_unique<OmniManager>(device_.meter().simulator(),
                                           device_.omni_address(),
                                           options_.manager);
  if (options_.ble) {
    ble_tech_ = std::make_unique<BleTech>(device_.ble());
    manager_->add_technology(*ble_tech_);
  }
  if (options_.wifi_aware) {
    nan_tech_ = std::make_unique<NanTech>(device_.nan());
    manager_->add_technology(*nan_tech_);
  }
  if (options_.wifi_multicast) {
    multicast_tech_ =
        std::make_unique<WifiMulticastTech>(device_.wifi(), mesh);
    manager_->add_technology(*multicast_tech_);
  }
  if (options_.wifi_unicast) {
    unicast_tech_ =
        std::make_unique<WifiUnicastTech>(device_.wifi(), mesh);
    manager_->add_technology(*unicast_tech_);
  }
}

void OmniNode::start() {
  if (options_.wifi_standby) device_.wifi().set_powered(true);
  manager_->start();
}

void OmniNode::stop() { manager_->stop(); }

}  // namespace omni
