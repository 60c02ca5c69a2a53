// Testbed: one-stop assembly of simulator, world, media, and devices.
//
// Mirrors the paper's physical testbed setup: a room of Raspberry Pis with
// BLE and WiFi-Mesh radios plus one shared mesh network. Tests, examples,
// and benches build scenarios from this.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "net/device.h"
#include "obs/trace_file.h"
#include "obs/omniscope.h"
#include "omni/discovery_policy.h"
#include "obs/perfetto.h"
#include "radio/ble.h"
#include "radio/calibration.h"
#include "radio/mesh.h"
#include "radio/nan.h"
#include "radio/wifi_system.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"
#include "sim/world.h"

namespace omni::net {

class Testbed {
 public:
  /// `threads` > 1 runs the parallel sharded engine; results are
  /// bit-identical at any thread count.
  explicit Testbed(std::uint64_t seed = 1,
                   radio::Calibration cal = radio::Calibration::defaults(),
                   unsigned threads = 1)
      : cal_(cal),
        sim_(seed, threads),
        // Grid cells sized to the smallest radio range: BLE beacons are by
        // far the most frequent queries, and matching their 40 m disc keeps
        // candidate sets tight. Longer-range queries (WiFi/NAN) just probe a
        // few more cells — the disc query is exact at any cell size.
        world_(sim_, std::min({cal.ble_range_m, cal.wifi_range_m,
                               cal.nan_range_m})),
        ble_medium_(world_, cal_),
        wifi_system_(world_, cal_),
        nan_system_(world_, cal_),
        mesh_(&wifi_system_.create_mesh("omni-mesh")) {
    // Conservative lookahead: BLE advertising is the fastest cross-node
    // path any sharded (node-owned) event can take, so its event interval
    // bounds how far shards may run ahead of each other. WiFi/NAN fan-out
    // is barrier-serialized (global owner) and does not constrain this.
    sim_.set_lookahead(ble_medium_.min_latency());
  }

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  ~Testbed() {
    if (crash_dumps_armed_) clear_crash_dump_hook();
    // Newest-first: each radio then detaches from the back of its medium's
    // and mesh's lists, so teardown is linear in devices. Construction
    // order must stay as it is, because the media iterate it.
    while (!devices_.empty()) devices_.pop_back();
  }

  /// Add a device at a position. Radios start in their default states
  /// (BLE powered, WiFi off).
  Device& add_device(const std::string& name, sim::Vec2 position = {}) {
    NodeId id = world_.add_node(name, position);
    devices_.push_back(std::make_unique<Device>(world_, ble_medium_,
                                                wifi_system_, nan_system_,
                                                id));
    if (scope_) {
      scope_->ensure_owner_capacity(world_.node_count());
      scope_->set_owner_name(id, name);
    }
    return *devices_.back();
  }

  /// Add a background-population node: world-resident only (queries see it,
  /// nothing runs on it). City-scale benches use these for the crowd around
  /// a core of full-stack devices. Returns the node id.
  NodeId add_crowd_node(const std::string& name, sim::Vec2 position = {}) {
    return world_.add_crowd_node(name, position);
  }

  /// Attach an Omniscope to the simulator: metrics and flight recorder
  /// come alive, and each device's energy meter shows up as per-rail
  /// `energy.<rail>.uAs` gauges. Idempotent; call any time during setup
  /// (devices added before or after are both covered). Costs one predicted
  /// branch per instrumentation site when off — see obs/omniscope.h.
  /// `detail` gates per-frame trace records (counters are unconditional);
  /// turn it off for large fleets where only aggregates matter.
  obs::Omniscope& enable_observability(std::size_t ring_capacity = 1 << 16,
                                       bool detail = true) {
    if (!scope_) {
      scope_ = std::make_unique<obs::Omniscope>();
      scope_->attach(sim_, ring_capacity);
      scope_->set_detail(detail);
      // The meters keep the only energy count. Each flush reads every
      // rail's total over [origin, now], in micro-amp-seconds, so the
      // integer gauges aggregate the same at any thread count.
      std::array<obs::MetricId, obs::kEnergyRailCount> rails;
      for (std::size_t r = 0; r < rails.size(); ++r) {
        rails[r] = scope_->metrics().gauge(
            std::string("energy.") +
            obs::rail_name(static_cast<obs::EnergyRail>(r)) + ".uAs");
      }
      scope_->add_flush_hook([this, rails] {
        const TimePoint now = sim_.now();
        const std::size_t lane = scope_->lane();
        for (auto& d : devices_) {
          for (std::size_t r = 0; r < rails.size(); ++r) {
            const double mAs = d->meter().total_mAs(
                TimePoint::origin(), now, static_cast<obs::EnergyRail>(r));
            scope_->metrics().set_gauge(
                lane, rails[r], d->node(),
                static_cast<std::uint64_t>(std::llround(1000.0 * mAs)),
                now.as_micros());
          }
        }
      });
      scope_->ensure_owner_capacity(world_.node_count());
      for (auto& d : devices_) {
        scope_->set_owner_name(d->node(), std::string(world_.name(d->node())));
      }
    }
    return *scope_;
  }

  /// The attached scope, or nullptr when observability is off.
  obs::Omniscope* observability() { return scope_.get(); }

  /// Scripted fault windows as labelled spans for the Perfetto export.
  /// Open-ended windows are clamped to the simulator's current time, so
  /// call this after the run.
  obs::ExportOptions export_options() const {
    obs::ExportOptions opts;
    const std::int64_t now_us = sim_.now().as_micros();
    auto clamp_us = [now_us](TimePoint t) {
      const std::int64_t us = t.as_micros();
      return us > now_us ? now_us : us;
    };
    for (const auto& b : fault_plan_.blackouts()) {
      opts.annotations.push_back(obs::AnnotationSpan{
          "blackout " + std::string(world_.name(b.node)), b.start.as_micros(),
          clamp_us(b.end)});
    }
    for (const auto& c : fault_plan_.crashes()) {
      opts.annotations.push_back(obs::AnnotationSpan{
          "crash " + std::string(world_.name(c.node)), c.at.as_micros(),
          c.restart > c.at ? c.restart.as_micros() : now_us});
    }
    for (const auto& f : fault_plan_.link_faults()) {
      std::string kind = f.loss > 0 ? "loss" : f.corrupt > 0 ? "corrupt"
                                                             : "latency";
      opts.annotations.push_back(obs::AnnotationSpan{
          "link " + kind, f.start.as_micros(), clamp_us(f.end)});
    }
    for (const auto& p : fault_plan_.partitions()) {
      opts.annotations.push_back(obs::AnnotationSpan{
          "partition", p.start.as_micros(), clamp_us(p.end)});
    }
    return opts;
  }

  /// Run-wide discovery scheduling policy. The testbed only stores it —
  /// helpers that assemble OmniNodes on top (benches, tests, the scenario
  /// runner) read it into ManagerOptions::discovery when constructing nodes.
  /// Defaults to kFixed, the paper's 500 ms cadence.
  void set_discovery_policy(const DiscoveryPolicy& policy) {
    discovery_ = policy;
  }
  const DiscoveryPolicy& discovery_policy() const { return discovery_; }

  sim::Simulator& simulator() { return sim_; }
  sim::World& world() { return world_; }
  radio::BleMedium& ble_medium() { return ble_medium_; }
  radio::WifiSystem& wifi_system() { return wifi_system_; }
  radio::NanSystem& nan_system() { return nan_system_; }
  radio::MeshNetwork& mesh() { return *mesh_; }
  const radio::Calibration& calibration() const { return cal_; }

  Device& device(std::size_t i) { return *devices_.at(i); }
  std::size_t device_count() const { return devices_.size(); }

  /// The testbed's fault plan. The first call arms the media hooks (the
  /// world keeps a pointer to the plan); an untouched testbed pays nothing
  /// on the delivery hot paths. Populate the plan, then call
  /// schedule_faults() once every device has been added.
  sim::FaultPlan& fault_plan() {
    world_.set_fault_plan(&fault_plan_);
    return fault_plan_;
  }

  /// Turn the plan's active entries — blackouts, flap windows, and node
  /// crash/restart churn — into barrier-serialized global power events
  /// against the matching devices. Passive entries (loss, corruption,
  /// latency, partitions) need no scheduling; media query them directly.
  void schedule_faults() {
    const sim::FaultPlan& plan = fault_plan();
    for (const auto& b : plan.blackouts()) {
      Device* dev = device_for(b.node);
      if (dev == nullptr) continue;
      const bool ble = b.radio == sim::FaultRadio::kAll ||
                       b.radio == sim::FaultRadio::kBle;
      const bool wifi = b.radio == sim::FaultRadio::kAll ||
                        b.radio == sim::FaultRadio::kWifi;
      const bool nan = b.radio == sim::FaultRadio::kAll ||
                       b.radio == sim::FaultRadio::kNan;
      auto set_power = [this, dev, ble, wifi, nan](bool on) {
        if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
          sc->instant_on(dev->node(), obs::Cat::kFaultPower, on ? 1 : 0);
        }
        if (ble) dev->ble().set_powered(on);
        if (wifi) dev->wifi().set_powered(on);
        // NAN has no power rail of its own; enabling/disabling the NAN
        // function models the same outage.
        if (nan) dev->nan().set_enabled(on);
      };
      if (b.period <= Duration::zero() || b.off_fraction >= 1.0) {
        sim_.at_on(sim::kGlobalOwner, b.start,
                   [set_power] { set_power(false); });
        if (b.end < TimePoint::max()) {
          sim_.at_on(sim::kGlobalOwner, b.end,
                     [set_power] { set_power(true); });
        }
      } else {
        const Duration off = b.period * b.off_fraction;
        for (TimePoint t = b.start; t < b.end; t = t + b.period) {
          sim_.at_on(sim::kGlobalOwner, t, [set_power] { set_power(false); });
          sim_.at_on(sim::kGlobalOwner, std::min(t + off, b.end),
                     [set_power] { set_power(true); });
        }
      }
    }
    for (const auto& c : plan.crashes()) {
      Device* dev = device_for(c.node);
      if (dev == nullptr) continue;
      // NAN enablement is app-driven; remember whether it was on at crash
      // time so the restart only re-enables what the crash took down.
      auto nan_was_enabled = std::make_shared<bool>(false);
      sim_.at_on(sim::kGlobalOwner, c.at, [this, dev, nan_was_enabled] {
        if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
          sc->instant_on(dev->node(), obs::Cat::kCrash, 0);
        }
        *nan_was_enabled = dev->nan().enabled();
        dev->ble().set_powered(false);
        dev->wifi().set_powered(false);
        dev->nan().set_enabled(false);
      });
      if (c.restart > c.at) {
        const bool rotate = c.rotate_addresses;
        sim_.at_on(sim::kGlobalOwner, c.restart, [this, dev,
                                                  nan_was_enabled, rotate] {
          if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
            sc->instant_on(dev->node(), obs::Cat::kCrash, 1);
          }
          // Rotate before powering on: the node comes back with its fresh
          // link addresses already in place, like a real reboot.
          if (rotate) dev->ble().rotate_address();
          dev->ble().set_powered(true);
          dev->wifi().set_powered(true);
          if (*nan_was_enabled) dev->nan().set_enabled(true);
        });
      }
    }
  }

  // --- Snapshot / checkpoint (see sim/snapshot.h) ---------------------------

  /// Register an extra section writer run by every capture_snapshot call.
  /// Upper layers use this to contribute state the net layer cannot see —
  /// e.g. omni::capture_managers for the kSecManagers section.
  void add_snapshot_source(std::function<void(sim::Snapshot&)> source) {
    if (source) snapshot_sources_.push_back(std::move(source));
  }

  /// Identify the driving scenario in every snapshot manifest, so captures
  /// of different scripts never compare equal. `text` optionally embeds the
  /// scenario source itself.
  void set_scenario_fingerprint(std::uint64_t hash, std::string text = {}) {
    scenario_hash_ = hash;
    scenario_text_ = std::move(text);
  }

  /// Capture the complete logical run state at the current instant. Must be
  /// called from a quiescent context: setup/teardown code or a
  /// barrier-serialized global event (the engine-state walkers assert this).
  /// The metrics section is a flushed dump, so it holds energy at the
  /// capture instant; a flush only reads model state.
  ///
  /// This capture, compared by sim::diff_snapshots with `ignore_threads`
  /// set, is the one cross-thread determinism check: runs of one seed at
  /// different thread counts must capture equal state at every shared
  /// instant.
  sim::Snapshot capture_snapshot(const std::string& label = {}) {
    sim::Snapshot snap;
    sim::SnapshotManifest m;
    m.seed = sim_.seed();
    m.at = sim_.now();
    m.threads = sim_.threads();
    m.executed_events = sim_.executed_events();
    m.node_count = world_.node_count();
    m.device_count = devices_.size();
    m.label = label;
    m.scenario_hash = scenario_hash_;
    m.scenario_text = scenario_text_;
    sim::write_manifest(m, snap);
    sim::capture_events(sim_, sim_.now(), snap);
    sim::capture_rng(sim_, snap);
    sim::capture_world(world_, snap);
    sim::capture_faults(fault_plan_, snap);
    if (scope_) {
      sim::ByteWriter w;
      w.str(scope_->metrics_dump());
      snap.section(sim::kSecMetrics).bytes = w.take();
    }
    for (auto& source : snapshot_sources_) source(snap);
    return snap;
  }

  /// capture_snapshot + write to `path`.
  Status write_snapshot(const std::string& path,
                        const std::string& label = {}) {
    return sim::write_snapshot_file(path, capture_snapshot(label));
  }

  /// Arm a periodic checkpoint daemon: a barrier-serialized global event
  /// captures every `interval` and writes `dir/ckpt_<t_us>.osnap`. Capture
  /// runs before the next event is scheduled, so a checkpoint never contains
  /// its own continuation.
  ///
  /// Checkpoint events are part of the event schedule: two runs compare
  /// only when both checkpoint at the same cadence (or neither does). Then
  /// the first divergent checkpoint pair bounds a divergence to one window.
  void checkpoint_every(Duration interval, std::string dir = ".") {
    OMNI_ASSERT(interval > Duration::zero());
    checkpoint_dir_ = std::move(dir);
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir_, ec);
    schedule_checkpoint(interval);
  }

  /// Paths of every checkpoint written so far, in capture order.
  const std::vector<std::string>& checkpoints() const { return checkpoints_; }

  /// First checkpoint write failure, or empty. The checkpoint daemon runs
  /// inside a global event with no way to abort the run, so the failure is
  /// recorded here; drivers (scenario::run) check it after the run and
  /// turn it into an error instead of silently ending up with fewer
  /// checkpoint files than scheduled.
  const std::string& checkpoint_error() const { return checkpoint_error_; }

  /// Arm OMNI_ASSERT crash capture: on any assertion failure, write
  /// `dir/crash_reason.txt`, the flight-recorder tail (`crash_tail.otr`,
  /// when observability is on), and — when the failure comes from a
  /// quiescent context — a full `crash.osnap` state snapshot. Failures
  /// inside a parallel window degrade to reason + trace tail (a state walk
  /// would race the shards). Disarmed automatically on destruction.
  void arm_crash_dumps(std::string dir) {
    crash_dir_ = std::move(dir);
    std::error_code ec;
    std::filesystem::create_directories(crash_dir_, ec);
    crash_dumps_armed_ = true;
    set_crash_dump_hook(
        [this](const char* reason) { write_crash_dump(reason); });
  }

 private:
  void schedule_checkpoint(Duration interval) {
    sim_.at_on(sim::kGlobalOwner, sim_.now() + interval, [this, interval] {
      take_checkpoint();
      schedule_checkpoint(interval);
    });
  }

  void take_checkpoint() {
    char name[48];
    std::snprintf(name, sizeof(name), "ckpt_%012lld.osnap",
                  static_cast<long long>(sim_.now().as_micros()));
    const std::string path =
        checkpoint_dir_.empty() ? std::string(name)
                                : checkpoint_dir_ + "/" + name;
    Status s = sim::write_snapshot_file(path, capture_snapshot("checkpoint"));
    if (s.is_ok()) {
      checkpoints_.push_back(path);
    } else if (checkpoint_error_.empty()) {
      checkpoint_error_ = s.message();
    }
  }

  void write_crash_dump(const char* reason) {
    const std::string dir = crash_dir_.empty() ? "." : crash_dir_;
    {
      std::ofstream rf(dir + "/crash_reason.txt");
      rf << reason << "\n";
    }
    if (scope_) {
      obs::write_trace_file(dir + "/crash_tail.otr", obs::capture(*scope_));
    }
    // Full state capture only from a quiescent context; a failure raised
    // inside a parallel window must not walk shard-owned state.
    if (sim_.current_shard_index() == sim_.threads()) {
      sim::write_snapshot_file(dir + "/crash.osnap",
                               capture_snapshot("crash"));
    }
  }

  Device* device_for(NodeId node) {
    for (auto& d : devices_) {
      if (d->node() == node) return d.get();
    }
    return nullptr;
  }

  radio::Calibration cal_;
  sim::Simulator sim_;
  sim::World world_;
  radio::BleMedium ble_medium_;
  radio::WifiSystem wifi_system_;
  radio::NanSystem nan_system_;
  radio::MeshNetwork* mesh_;
  std::vector<std::unique_ptr<Device>> devices_;
  sim::FaultPlan fault_plan_;
  DiscoveryPolicy discovery_;
  std::unique_ptr<obs::Omniscope> scope_;

  // Snapshot / checkpoint state.
  std::vector<std::function<void(sim::Snapshot&)>> snapshot_sources_;
  std::uint64_t scenario_hash_ = 0;
  std::string scenario_text_;
  std::string checkpoint_dir_;
  std::vector<std::string> checkpoints_;
  std::string checkpoint_error_;
  std::string crash_dir_;
  bool crash_dumps_armed_ = false;
};

}  // namespace omni::net
