// Per-device energy accounting.
//
// Reproduces what the paper's USB power meter measured: instantaneous current
// draw integrated over time. Two charge styles:
//
//   * interval charges — a known draw over a known span (a WiFi scan, a BLE
//     advertising event, a multicast burst);
//   * levels — open-ended draws that persist until changed (WiFi standby,
//     BLE scanning duty), keyed by tag.
//
// Reported values follow the paper's convention: average mA over a window,
// optionally minus the WiFi-standby floor (which is how the paper's Table 4
// produces a *negative* value for the WiFi-off State-of-the-Practice row).
//
// Interval charges are stored as runs: `count` equal pulses of one current
// on one rail, one `period` apart. A periodic draw (a beacon every 500 ms)
// stays one record however long it runs, back-to-back spans merge into one
// pulse, and a lone charge is a run of one. Any window is integrated
// exactly, in O(1) per run.
//
// Only the kRecentRuns newest runs stay open as 40-byte records, because
// charge() extends no other. Appending past them seals the oldest into a
// per-meter varint stream (a lone pulse takes a few bytes), allocated at the
// first seal. Integration reads the sealed runs, then the open ones, in the
// order they were appended, so every total is the same double whether or
// not a run was sealed.
//
// Every charge carries an obs::EnergyRail (which radio the draw belongs to),
// so total_mAs can answer per rail. The meter holds the only energy count:
// an attached Omniscope reads each rail's total when it flushes (see
// Testbed::enable_observability) and keeps no copy.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "sim/simulator.h"

namespace omni::obs {

/// Which radio rail a charge belongs to. The paper's Table 3 calibration
/// currents are all attributable to exactly one of these.
/// kBleScan splits passive listen cost out of the BLE rail so the adaptive
/// discovery scheduler's scan-duty savings are directly visible.
enum class EnergyRail : std::uint8_t { kOther = 0, kBle = 1, kWifi = 2,
                                       kNan = 3, kBleScan = 4 };
inline constexpr std::size_t kEnergyRailCount = 5;

const char* rail_name(EnergyRail r);

}  // namespace omni::obs

namespace omni::radio {

class EnergyMeter {
 public:
  explicit EnergyMeter(sim::Simulator& sim);
  ~EnergyMeter();
  EnergyMeter(const EnergyMeter&) = delete;
  EnergyMeter& operator=(const EnergyMeter&) = delete;

  /// Charge `ma` over [t0, t1). Out-of-order and overlapping charges are
  /// fine; they accumulate.
  void charge(TimePoint t0, TimePoint t1, double ma,
              obs::EnergyRail rail = obs::EnergyRail::kOther);

  /// Charge `ma` for `d` starting now.
  void charge_for(Duration d, double ma,
                  obs::EnergyRail rail = obs::EnergyRail::kOther) {
    charge(sim_.now(), sim_.now() + d, ma, rail);
  }

  /// Set an open-ended draw for `tag` starting now (replaces any previous
  /// level under the same tag, closing it at the current instant).
  void set_level(const std::string& tag, double ma,
                 obs::EnergyRail rail = obs::EnergyRail::kOther);

  /// Remove the open-ended draw for `tag`.
  void clear_level(const std::string& tag) { set_level(tag, 0.0); }

  /// Current draw of an open level (0 when unset).
  double level(const std::string& tag) const;

  /// Sum of all open levels right now.
  double current_level_total() const;

  /// Total charge (mA*s) accrued in [t0, t1]; open levels are integrated up
  /// to t1 (t1 should not exceed the simulator's current time).
  double total_mAs(TimePoint t0, TimePoint t1) const;

  /// Total charge (mA*s) on one rail in [t0, t1].
  double total_mAs(TimePoint t0, TimePoint t1, obs::EnergyRail rail) const;

  /// Average current over [t0, t1] in mA.
  double average_ma(TimePoint t0, TimePoint t1) const;

  /// Interval-charge records held, open and sealed (for tests).
  std::size_t run_count() const;

  /// Bytes those records take: 40 per open run, plus the sealed stream and
  /// its table of (current, rail) pairs (for tests and memory probes).
  std::size_t record_bytes() const;

  sim::Simulator& simulator() { return sim_; }

 private:
  /// `count` pulses [t0 + k*period, t0 + k*period + dur), k < count, drawing
  /// `ma` on `rail`. Times in microseconds; period >= dur when count >= 2,
  /// so pulses never overlap (period is unused when count == 1).
  struct Run {
    std::int64_t t0;
    std::int64_t dur;
    std::int64_t period;
    std::uint32_t count;
    obs::EnergyRail rail;
    double ma;

    /// Microseconds of this run's pulses that lie before `x`.
    std::int64_t covered_before(std::int64_t x) const;
  };
  static_assert(sizeof(Run) <= 40, "one run must stay within 40 bytes");
  /// How many of the newest runs stay open for charge() to extend.
  static constexpr std::size_t kRecentRuns = 8;
  /// The runs sealed so far; defined in the .cpp, which keeps the codec
  /// out of this header.
  struct Sealed;

  struct Level {
    double ma = 0;
    TimePoint since;
    obs::EnergyRail rail = obs::EnergyRail::kOther;
  };

  /// Move the oldest open run into the sealed stream.
  void seal_oldest();
  /// Sum over the runs and open levels `keep(rail)` accepts, in record order.
  template <typename Keep>
  double integrate(TimePoint t0, TimePoint t1, Keep keep) const;

  sim::Simulator& sim_;
  /// The open runs, oldest first; at most kRecentRuns.
  std::vector<Run> runs_;
  /// Null until the first seal.
  std::unique_ptr<Sealed> sealed_;
  std::map<std::string, Level> levels_;
};

/// Converts bulk traffic into capped radio-active time.
///
/// A fluid flow reports "this link direction needed A seconds of active radio
/// during [t0, t1]". Concurrent flows over the same radio direction must not
/// double-charge: the charger keeps a busy-until watermark, so total busy
/// time never exceeds wall (virtual) time.
class BusyCharger {
 public:
  BusyCharger(EnergyMeter& meter, double ma,
              obs::EnergyRail rail = obs::EnergyRail::kOther)
      : meter_(meter), ma_(ma), rail_(rail) {}

  /// Charge up to `active` seconds of busy time within [t0, t1].
  /// Returns the seconds actually charged.
  double charge_active(TimePoint t0, TimePoint t1, double active_seconds);

  /// End of the last charged busy span, in seconds since the origin (the
  /// watermark; for tests/telemetry).
  double busy_until_seconds() const { return busy_until_.as_seconds(); }

 private:
  EnergyMeter& meter_;
  double ma_;
  obs::EnergyRail rail_;
  TimePoint busy_until_ = TimePoint::origin();
};

}  // namespace omni::radio
