// Omniscope: the always-on observability facade.
//
// One Omniscope attaches to one Simulator (Simulator::set_scope) and bundles
//
//   * a MetricsRegistry — typed counters/gauges/histograms with per-owner,
//     per-lane sharded storage (obs/metrics.h);
//   * a FlightRecorder — per-lane binary trace rings of 32-byte POD records
//     (obs/flight_recorder.h);
//   * a StringTable for dynamic labels and owner (node) names.
//
// A fact that a component already counts (ManagerStats, FaultPlan::stats(),
// an EnergyMeter's rails) is counted there only: the scope reads it through
// a flush hook or not at all. Sites push trace records and histogram
// samples, which need a timestamp or a distribution, and bump counters only
// for facts no component counts. They reach the scope through their
// Simulator:
//
//     if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
//       sc->instant_on(owner, obs::Cat::kFailover, op_id);
//     }
//
// A null scope (the default — observability is opt-in per Testbed) costs one
// predicted branch per site; compiling with -DOMNI_OBS_DISABLED removes the
// sites entirely (OMNI_SCOPE expands to a null literal). Recording never
// feeds back into simulation decisions, never draws simulator RNG, and never
// schedules events, so instrumented runs are bit-identical to bare ones.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/strings.h"
#include "obs/trace_record.h"
#include "sim/simulator.h"

namespace omni::obs {

/// Well-known metric ids, registered at attach() so hot paths never look a
/// metric up by name.
struct CoreMetrics {
  // Manager: data-op outcomes (ManagerStats counts sends and failovers).
  MetricId data_ok = kInvalidMetric;
  MetricId data_failed = kInvalidMetric;
  MetricId data_latency_ms = kInvalidMetric;     ///< histogram, ok ops only
  MetricId beacon_interval_ms = kInvalidMetric;  ///< histogram, per tick
  // Technology plugins (one send counter per technology).
  MetricId tech_send[4] = {kInvalidMetric, kInvalidMetric, kInvalidMetric,
                           kInvalidMetric};
  // Radios.
  MetricId ble_adv = kInvalidMetric;
  MetricId ble_rx = kInvalidMetric;
  MetricId wifi_scans = kInvalidMetric;
  MetricId mesh_tx = kInvalidMetric;
  MetricId nan_dw = kInvalidMetric;
  // Parallel engine (gauges, refreshed by flush()).
  MetricId engine_events = kInvalidMetric;
  MetricId engine_windows = kInvalidMetric;
  MetricId engine_global_events = kInvalidMetric;
  MetricId engine_mailbox_posts = kInvalidMetric;
};

/// An application-layer event (src/apps): a dynamic trace category and a
/// counter registered under one name by Omniscope::app_event(). A
/// default-constructed AppEvent is unregistered and mark_app() ignores it,
/// so an app built before observability was enabled stays silent.
struct AppEvent {
  MetricId counter = kInvalidMetric;
  Cat cat = Cat::kCount_;
};

class Omniscope {
 public:
  Omniscope();
  ~Omniscope();
  Omniscope(const Omniscope&) = delete;
  Omniscope& operator=(const Omniscope&) = delete;

  /// Bind to `sim`: size metric lanes and trace rings to its shard count,
  /// register the core metrics, and publish this scope via sim.set_scope().
  /// Call from setup (never inside a run).
  void attach(sim::Simulator& sim, std::size_t ring_capacity = 1 << 16);
  void detach();
  sim::Simulator* simulator() const { return sim_; }

  /// Grow per-owner metric storage to cover nodes [0, owner_count). Callable
  /// between runs / from global context as devices are added.
  void ensure_owner_capacity(std::size_t owner_count);

  /// Per-frame verbosity. At detail (the default — right for testbeds up to
  /// a few dozen nodes), every per-frame site (mark_frame, and the manager's
  /// beacon and context receptions) writes a trace record. With detail off —
  /// the always-on profile bench_scale's obs_overhead rows measure at 1000
  /// nodes — per-frame sites skip the ring (mark_frame still bumps its
  /// counter), keeping instrumented runs within a few percent of bare.
  bool detail() const { return detail_; }
  void set_detail(bool on) { detail_ = on; }

  // --- Hot-path recording ---------------------------------------------------

  /// The calling context's execution lane.
  std::size_t lane() const { return sim_->current_shard_index(); }

  /// Counter bump + instant record in one call, attributed to the current
  /// event's owner, with one thread-local context fetch.
  void mark(MetricId m, Cat c, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
            std::uint8_t tech = 0xff) {
    const sim::Simulator::ObsCtx x = sim_->obs_ctx();
    metrics_.add(x.lane, m, x.owner, 1);
    write_at(x, x.owner, c, Phase::kInstant, a0, a1, tech);
  }

  /// mark() for per-frame events (one BLE advertising event or delivery):
  /// the counter is unconditional, the trace record only lands at detail
  /// verbosity (see set_detail).
  void mark_frame(MetricId m, Cat c, std::uint64_t a0 = 0,
                  std::uint64_t a1 = 0, std::uint8_t tech = 0xff) {
    const sim::Simulator::ObsCtx x = sim_->obs_ctx();
    metrics_.add(x.lane, m, x.owner, 1);
    if (detail_) write_at(x, x.owner, c, Phase::kInstant, a0, a1, tech);
  }

  /// Append a trace record attributed to a specific node.
  void instant_on(sim::OwnerId owner, Cat c, std::uint64_t a0 = 0,
                  std::uint64_t a1 = 0, std::uint8_t tech = 0xff) {
    write(owner, c, Phase::kInstant, a0, a1, tech);
  }
  /// A span with a known duration (exported as one Perfetto "X" event).
  void complete_on(sim::OwnerId owner, Cat c, Duration duration,
                   std::uint64_t a0 = 0, std::uint8_t tech = 0xff) {
    write(owner, c, Phase::kComplete, a0,
          static_cast<std::uint64_t>(duration.as_micros()), tech);
  }
  /// Id-matched async span edges (exported as Perfetto "b"/"e" events).
  void async_begin_on(sim::OwnerId owner, Cat c, std::uint64_t id,
                      std::uint64_t a1 = 0, std::uint8_t tech = 0xff) {
    write(owner, c, Phase::kAsyncBegin, id, a1, tech);
  }
  void async_end_on(sim::OwnerId owner, Cat c, std::uint64_t id,
                    std::uint64_t a1 = 0, std::uint8_t tech = 0xff) {
    write(owner, c, Phase::kAsyncEnd, id, a1, tech);
  }

  /// Bump a counter attributed to a specific node.
  void count_on(sim::OwnerId owner, MetricId m, std::uint64_t delta = 1) {
    metrics_.add(lane(), m, owner, delta);
  }
  /// Record a histogram sample attributed to a specific node.
  void observe_on(sim::OwnerId owner, MetricId m, double sample) {
    metrics_.observe(lane(), m, owner, sample);
  }

  /// Register (or look up) the application event `name`: interns it as a
  /// dynamic trace category and registers a counter of the same name.
  /// Setup or global context only, like every registration.
  AppEvent app_event(std::string_view name);

  /// Count one application event and record it as an instant on the
  /// current event's owner; a no-op for an unregistered event.
  void mark_app(const AppEvent& ev, std::uint64_t a0 = 0,
                std::uint64_t a1 = 0) {
    if (ev.counter != kInvalidMetric) mark(ev.counter, ev.cat, a0, a1);
  }

  // --- Components -----------------------------------------------------------

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }
  StringTable& labels() { return labels_; }
  const CoreMetrics& core() const { return core_; }

  /// Record a display name for an owner (used by exporters and the CLI).
  void set_owner_name(sim::OwnerId owner, std::string name);
  const std::vector<std::pair<std::uint32_t, std::string>>& owner_names()
      const {
    return owner_names_;
  }

  // --- Snapshot / export (outside parallel windows only) --------------------

  /// Register work to run at flush() time: reading a count a component
  /// owns (an energy meter's rails) into a gauge. A hook only reads model
  /// state, so flushing never changes a run.
  void add_flush_hook(std::function<void()> hook) {
    flush_hooks_.push_back(std::move(hook));
  }

  /// Bring pull-based state current: runs flush hooks and refreshes the
  /// engine gauges from the simulator's counters. Call before reading
  /// metrics or exporting a capture.
  void flush();

  /// Canonical metrics dump (MetricsRegistry::dump), after a flush. Byte-
  /// identical across thread counts for deterministic workloads.
  std::string metrics_dump();

 private:
  void write(sim::OwnerId owner, Cat c, Phase p, std::uint64_t a0,
             std::uint64_t a1, std::uint8_t tech) {
    write_at(sim_->obs_ctx(), owner, c, p, a0, a1, tech);
  }

  void write_at(const sim::Simulator::ObsCtx& x, sim::OwnerId owner, Cat c,
                Phase p, std::uint64_t a0, std::uint64_t a1,
                std::uint8_t tech) {
    TraceRecord r;
    r.t_us = x.now.as_micros();
    r.owner = owner;
    r.cat = static_cast<std::uint16_t>(c);
    r.phase = static_cast<std::uint8_t>(p);
    r.tech = tech;
    r.a0 = a0;
    r.a1 = a1;
    recorder_.write(x.lane, r);
  }

  sim::Simulator* sim_ = nullptr;
  bool detail_ = true;
  MetricsRegistry metrics_;
  FlightRecorder recorder_;
  StringTable labels_{kCatCount};
  CoreMetrics core_;
  std::vector<std::pair<std::uint32_t, std::string>> owner_names_;
  /// owner -> its position in owner_names_.
  std::unordered_map<sim::OwnerId, std::size_t> owner_name_index_;
  std::vector<std::function<void()>> flush_hooks_;
};

}  // namespace omni::obs

/// Instrumentation sites fetch the scope through this macro so a build with
/// -DOMNI_OBS_DISABLED compiles them out entirely (the null literal makes
/// every `if (sc && ...)` block dead code).
#if defined(OMNI_OBS_DISABLED)
#define OMNI_SCOPE(sim) (static_cast<::omni::obs::Omniscope*>(nullptr))
#else
#define OMNI_SCOPE(sim) ((sim).scope())
#endif
