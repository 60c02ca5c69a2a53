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
  core_.data_ops = metrics_.counter("mgr.data_ops");
  core_.data_ok = metrics_.counter("mgr.data_ok");
  core_.data_failed = metrics_.counter("mgr.data_failed");
  core_.data_failovers = metrics_.counter("mgr.data_failovers");
  core_.deadline_failovers = metrics_.counter("mgr.deadline_failovers");
  core_.quarantines = metrics_.counter("mgr.quarantines");
  core_.beacon_rx = metrics_.counter("mgr.beacon_rx");
  core_.context_rx = metrics_.counter("mgr.context_rx");
  core_.data_rx = metrics_.counter("mgr.data_rx");
  core_.engagements = metrics_.counter("mgr.engagements");
  core_.data_latency_ms =
      metrics_.histogram("mgr.data_latency_ms", kLatencyBoundsMs);
  core_.beacon_encodes = metrics_.counter("mgr.beacon_encodes");
  core_.beacon_frames_cached = metrics_.counter("mgr.beacon_frames_cached");
  core_.beacon_decode_skips = metrics_.counter("mgr.beacon_decode_skips");
  core_.peer_expire_sweeps = metrics_.counter("mgr.peer_expire_sweeps");
  static constexpr std::array<double, 7> kIntervalBoundsMs = {
      250, 500, 1000, 2000, 4000, 8000, 16000};
  core_.beacons_suppressed = metrics_.counter("mgr.beacons_suppressed");
  core_.scan_windows_skipped = metrics_.counter("mgr.scan_windows_skipped");
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
  core_.fault_drops = metrics_.counter("fault.drops");
  core_.fault_corruptions = metrics_.counter("fault.corruptions");
  core_.fault_delays = metrics_.counter("fault.delays");
  core_.fault_partition_drops = metrics_.counter("fault.partition_drops");
  core_.engine_events = metrics_.gauge("engine.events");
  core_.engine_windows = metrics_.gauge("engine.windows");
  core_.engine_global_events = metrics_.gauge("engine.global_events");
  core_.engine_mailbox_posts = metrics_.gauge("engine.mailbox_posts");
  energy_.bind(metrics_);

  metrics_.shape(std::max<std::size_t>(metrics_.owner_capacity(), 1), lanes);
  sim.set_scope(this);
  recording_ = true;
}

void Omniscope::detach() {
  if (sim_ != nullptr && sim_->scope() == this) sim_->set_scope(nullptr);
  sim_ = nullptr;
  recording_ = false;
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
  for (auto& [o, n] : owner_names_) {
    if (o == owner) {
      n = std::move(name);
      return;
    }
  }
  owner_names_.emplace_back(owner, std::move(name));
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
