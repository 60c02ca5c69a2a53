// Per-node, per-technology energy ledger, built on the metrics registry.
//
// The radio models meter energy as (current draw, time span) charges against
// a device-wide EnergyMeter (the paper's inline USB power meter). The ledger
// mirrors each meter's per-rail totals into rail-tagged registry counters so
// per-node, per-technology charge totals become first-class queryable
// metrics — the quantity the paper's Tables 3-5 are built from — instead of
// a bench-local computation.
//
// Values are stored fixed-point (micro-amp-seconds) so aggregation stays
// integer and therefore bit-deterministic across thread counts. At every
// flush a meter adds the change in its rounded per-rail total, so each rail
// equals the meter's own float integral rounded to the micro-amp-second.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "obs/metrics.h"

namespace omni::obs {

/// Which radio rail a charge belongs to. The paper's Table 3 calibration
/// currents are all attributable to exactly one of these.
/// kBleScan splits passive listen cost out of the BLE rail so the adaptive
/// discovery scheduler's scan-duty savings are directly visible.
enum class EnergyRail : std::uint8_t { kOther = 0, kBle = 1, kWifi = 2,
                                       kNan = 3, kBleScan = 4 };
inline constexpr std::size_t kEnergyRailCount = 5;

const char* rail_name(EnergyRail r);

class EnergyLedger {
 public:
  EnergyLedger() = default;
  EnergyLedger(const EnergyLedger&) = delete;
  EnergyLedger& operator=(const EnergyLedger&) = delete;

  /// Register the rail counters in `registry` (idempotent).
  void bind(MetricsRegistry& registry);
  bool bound() const { return registry_ != nullptr; }

  /// Account `uAs` micro-amp-seconds of charge on `rail` to `node`. `lane`
  /// is the caller's execution lane.
  void add(std::size_t lane, NodeId node, EnergyRail rail, std::int64_t uAs) {
    registry_->add(lane, rails_[static_cast<std::size_t>(rail)], node,
                   static_cast<std::uint64_t>(uAs));
  }

  /// Total charge for one node on one rail, in mA*s.
  double rail_mAs(NodeId node, EnergyRail rail) const {
    return as_mAs(registry_->counter_value(
        rails_[static_cast<std::size_t>(rail)], node));
  }
  /// Total charge for one node across rails, in mA*s.
  double total_mAs(NodeId node) const;
  /// Total charge for one node across rails, in mAh (the paper's unit).
  double total_mAh(NodeId node) const { return total_mAs(node) / 3600.0; }
  /// Fleet-wide charge on one rail, in mA*s.
  double fleet_rail_mAs(EnergyRail rail) const {
    return as_mAs(registry_->counter_total(
        rails_[static_cast<std::size_t>(rail)]));
  }

  MetricId rail_metric(EnergyRail rail) const {
    return rails_[static_cast<std::size_t>(rail)];
  }

 private:
  static double as_mAs(std::uint64_t uAs) {
    return static_cast<double>(static_cast<std::int64_t>(uAs)) / 1000.0;
  }

  MetricsRegistry* registry_ = nullptr;
  MetricId rails_[kEnergyRailCount] = {kInvalidMetric, kInvalidMetric,
                                       kInvalidMetric, kInvalidMetric,
                                       kInvalidMetric};
};

}  // namespace omni::obs
