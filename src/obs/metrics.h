// Omniscope metrics registry: typed counters, gauges, and fixed-bucket
// histograms registered by name, with per-owner per-lane sharded storage.
//
// Layout. Every metric owns a block of 64-bit cells per *owner slot* (owner
// slot 0 is the global owner, slot o+1 is node o). Each execution lane —
// one per simulator shard, plus one for setup/global/barrier context — holds
// its own private copy of the whole cell array, so a hot-path increment is a
// single unsynchronized add into the calling lane's array:
//
//     lane.cells[def.cell_base + owner_slot * def.stride + bucket] += delta
//
// Lanes are only ever written by the thread driving that shard's window (or
// the driving thread, for the global lane), and reads happen exclusively
// outside parallel windows, so there are no data races and no atomics on the
// write path.
//
// Determinism. Aggregation sums lane arrays cell-wise. All cells are
// unsigned 64-bit integers (fractional quantities are stored fixed-point,
// e.g. the energy gauges' micro-amp-seconds), so the sum is independent of
// how owners were partitioned into lanes — aggregates are bit-equal for any
// --threads value. Metrics are written from simulation state but never read
// back by it, so instrumentation cannot perturb the simulation itself.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/event_queue.h"

namespace omni::obs {

using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = 0xffffffffu;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Registration & layout (setup / global context only) -----------------

  /// Register (or look up) a monotonically increasing counter.
  MetricId counter(std::string name);
  /// Register (or look up) a last-write-wins gauge.
  MetricId gauge(std::string name);
  /// Register (or look up) a histogram with the given upper bucket bounds
  /// (an implicit +inf bucket is appended). Bounds must be increasing.
  MetricId histogram(std::string name, std::span<const double> bounds);

  /// Size storage for at least owners 0..owner_count-1 plus the global
  /// owner, across `lanes` execution lanes (shards + 1). Callable repeatedly
  /// as nodes are added — owner capacity at least doubles when it grows, and
  /// existing cell values are preserved. Must not run concurrently
  /// with lane writes (i.e. only outside parallel windows, which is where
  /// all setup happens).
  void shape(std::size_t owner_count, std::size_t lanes);

  std::size_t owner_capacity() const { return owner_capacity_; }
  std::size_t lane_count() const { return lanes_.size(); }
  std::size_t metric_count() const { return defs_.size(); }

  // --- Hot path -------------------------------------------------------------

  /// Add `delta` to a counter cell. `lane` must be the caller's execution
  /// lane (Simulator::current_shard_index()); `owner` is the node the sample
  /// is attributed to (any owner — attribution and execution lane are
  /// independent, which is what makes cross-owner samples race-free).
  /// Indexing goes through layout_ — one packed word per metric — rather
  /// than the full Def, keeping the per-increment dependent-load chain short
  /// enough for per-frame call sites.
  void add(std::size_t lane, MetricId id, sim::OwnerId owner,
           std::uint64_t delta) {
    const std::uint64_t lw = layout_[id];
    lanes_[lane].cells[(lw >> 16) + owner_slot(owner) * (lw & 0xffff)] +=
        delta;
  }

  /// Set a gauge. `stamp_us` (the current virtual time) arbitrates between
  /// lanes at aggregation; later stamps win, ties prefer the larger value so
  /// the result stays partition-independent.
  void set_gauge(std::size_t lane, MetricId id, sim::OwnerId owner,
                 std::uint64_t value, std::int64_t stamp_us) {
    const std::uint64_t lw = layout_[id];
    std::uint64_t* cell =
        &lanes_[lane].cells[(lw >> 16) + owner_slot(owner) * (lw & 0xffff)];
    cell[0] = value;
    cell[1] = static_cast<std::uint64_t>(stamp_us) + 1;  // 0 = never set
  }

  /// Record a histogram sample.
  void observe(std::size_t lane, MetricId id, sim::OwnerId owner,
               double sample);

  // --- Aggregation (outside parallel windows only) --------------------------

  /// Counter total across lanes for one owner.
  std::uint64_t counter_value(MetricId id, sim::OwnerId owner) const;
  /// Counter total across lanes and owners.
  std::uint64_t counter_total(MetricId id) const;
  /// Gauge value for one owner (0 if never set).
  std::uint64_t gauge_value(MetricId id, sim::OwnerId owner) const;
  /// Histogram bucket counts (bounds().size() + 1 entries) for one owner.
  std::vector<std::uint64_t> histogram_counts(MetricId id,
                                              sim::OwnerId owner) const;
  /// Histogram bucket counts summed over owners.
  std::vector<std::uint64_t> histogram_total(MetricId id) const;

  const std::string& name(MetricId id) const { return defs_[id].name; }
  MetricKind kind(MetricId id) const { return defs_[id].kind; }
  const std::vector<double>& bounds(MetricId id) const {
    return defs_[id].bounds;
  }
  /// Id of a registered metric by name, or kInvalidMetric.
  MetricId find(const std::string& name) const;

  /// Canonical plain-text dump: one line per metric (and per owner with a
  /// non-zero value), in registration order. Two runs with the same
  /// simulated behavior produce byte-identical dumps regardless of thread
  /// count — the digest oracle used by the parallel-engine tests.
  std::string dump() const;

  /// Zero every cell (layout and registrations are kept).
  void reset();

 private:
  struct Def {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::vector<double> bounds;   ///< histogram upper bounds (no +inf)
    std::uint32_t stride = 1;     ///< cells per owner slot
    std::uint64_t cell_base = 0;  ///< offset of owner slot 0 in a lane
  };
  // Lanes are written concurrently by different shard threads; keep each
  // lane's bookkeeping on its own cache line (the cell arrays themselves are
  // separate heap allocations).
  struct alignas(64) Lane {
    std::vector<std::uint64_t> cells;
  };

  std::size_t owner_slot(sim::OwnerId owner) const {
    return owner == sim::kGlobalOwner ? 0 : static_cast<std::size_t>(owner) + 1;
  }
  MetricId register_metric(std::string name, MetricKind kind,
                           std::span<const double> bounds);
  void relayout();

  std::vector<Def> defs_;
  /// Hot-path indexing table, rebuilt by relayout(): per metric,
  /// (cell_base << 16) | stride.
  std::vector<std::uint64_t> layout_;
  std::vector<Lane> lanes_;
  std::size_t owner_capacity_ = 0;  ///< owner slots (nodes + global)
  std::uint64_t cells_per_lane_ = 0;
  std::size_t laid_out_ = 0;  ///< metrics covered by the current cell layout
};

}  // namespace omni::obs
