// Resolution directory for the SA baseline.
//
// The SA stack's WiFi-level resolve query ("who has application id X?") is
// answered by the target device itself on the real testbed. The ritual
// (net/discovery_ritual) models the query's time and energy; this directory
// models the *content* of the response: every SA node registers its
// id -> mesh address mapping at start, and a node that has completed the
// ritual may look a peer up here.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "common/types.h"

namespace omni::baselines {

class Directory {
 public:
  void register_node(std::uint64_t app_id, MeshAddress address) {
    entries_[app_id] = address;
  }

  std::optional<MeshAddress> lookup(std::uint64_t app_id) const {
    auto it = entries_.find(app_id);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::map<std::uint64_t, MeshAddress> entries_;
};

}  // namespace omni::baselines
