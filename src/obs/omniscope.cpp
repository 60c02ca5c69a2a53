#include "obs/omniscope.h"

#include <algorithm>
#include <array>

#include "common/result.h"

namespace omni::obs {

Omniscope::Omniscope() = default;

Omniscope::~Omniscope() { detach(); }

void Omniscope::attach(sim::Simulator& sim, std::size_t ring_capacity) {
  OMNI_CHECK_MSG(sim_ == nullptr || sim_ == &sim,
                 "Omniscope is already attached to another simulator");
  sim_ = &sim;

  // Lanes: one per shard plus the global/setup lane (current_shard_index()
  // returns threads() outside windows).
  const std::size_t lanes = static_cast<std::size_t>(sim.threads()) + 1;
  recorder_.configure(lanes, ring_capacity);

  // Core metrics, registered once (registration is idempotent by name).
  static constexpr std::array<double, 10> kLatencyBoundsMs = {
      1, 5, 10, 25, 50, 100, 250, 500, 1000, 5000};
  core_.data_ok = metrics_.counter("mgr.data_ok");
  core_.data_failed = metrics_.counter("mgr.data_failed");
  core_.data_latency_ms =
      metrics_.histogram("mgr.data_latency_ms", kLatencyBoundsMs);
  static constexpr std::array<double, 7> kIntervalBoundsMs = {
      250, 500, 1000, 2000, 4000, 8000, 16000};
  core_.beacon_interval_ms =
      metrics_.histogram("mgr.beacon_interval_ms", kIntervalBoundsMs);
  core_.tech_send[0] = metrics_.counter("tech.ble.sends");
  core_.tech_send[1] = metrics_.counter("tech.nan.sends");
  core_.tech_send[2] = metrics_.counter("tech.wifi_multicast.sends");
  core_.tech_send[3] = metrics_.counter("tech.wifi_unicast.sends");
  core_.ble_adv = metrics_.counter("radio.ble.adv_events");
  core_.ble_rx = metrics_.counter("radio.ble.rx");
  core_.wifi_scans = metrics_.counter("radio.wifi.scans");
  core_.mesh_tx = metrics_.counter("radio.mesh.tx");
  core_.nan_dw = metrics_.counter("radio.nan.dw");
  core_.engine_events = metrics_.gauge("engine.events");
  core_.engine_windows = metrics_.gauge("engine.windows");
  core_.engine_global_events = metrics_.gauge("engine.global_events");
  core_.engine_mailbox_posts = metrics_.gauge("engine.mailbox_posts");

  metrics_.shape(std::max<std::size_t>(metrics_.owner_capacity(), 1), lanes);
  sim.set_scope(this);
}

void Omniscope::detach() {
  if (sim_ != nullptr && sim_->scope() == this) sim_->set_scope(nullptr);
  sim_ = nullptr;
}

void Omniscope::ensure_owner_capacity(std::size_t owner_count) {
  const std::size_t lanes =
      sim_ != nullptr ? static_cast<std::size_t>(sim_->threads()) + 1
                      : std::max<std::size_t>(metrics_.lane_count(), 1);
  if (owner_count + 1 > metrics_.owner_capacity() ||
      lanes > metrics_.lane_count()) {
    metrics_.shape(owner_count, lanes);
  }
}

AppEvent Omniscope::app_event(std::string_view name) {
  AppEvent ev;
  ev.counter = metrics_.counter(std::string(name));
  ev.cat = static_cast<Cat>(labels_.intern(name));
  return ev;
}

void Omniscope::set_owner_name(sim::OwnerId owner, std::string name) {
  auto [it, fresh] = owner_name_index_.try_emplace(owner, owner_names_.size());
  if (fresh) {
    owner_names_.emplace_back(owner, std::move(name));
  } else {
    owner_names_[it->second].second = std::move(name);
  }
}

void Omniscope::flush() {
  if (sim_ == nullptr) return;
  for (auto& hook : flush_hooks_) hook();
  // Engine telemetry is pulled from the simulator's counters rather than
  // pushed from barrier hooks: the simulator never calls into the scope.
  const std::size_t ln = lane();  // global lane outside windows
  const std::int64_t stamp = sim_->now().as_micros();
  metrics_.set_gauge(ln, core_.engine_events, sim::kGlobalOwner,
                     sim_->executed_events(), stamp);
  metrics_.set_gauge(ln, core_.engine_windows, sim::kGlobalOwner,
                     sim_->windows_run(), stamp);
  metrics_.set_gauge(ln, core_.engine_global_events, sim::kGlobalOwner,
                     sim_->global_events_run(), stamp);
  metrics_.set_gauge(ln, core_.engine_mailbox_posts, sim::kGlobalOwner,
                     sim_->mailbox_posts(), stamp);
}

std::string Omniscope::metrics_dump() {
  flush();
  return metrics_.dump();
}

}  // namespace omni::obs
