#include "radio/energy_meter.h"

#include <algorithm>
#include <cmath>

#include "common/result.h"
#include "obs/omniscope.h"

namespace omni::radio {

void EnergyMeter::charge(TimePoint t0, TimePoint t1, double ma,
                         obs::EnergyRail rail) {
  if (t1 <= t0 || ma == 0.0) return;
  const std::int64_t start = t0.as_micros();
  const std::int64_t d = (t1 - t0).as_micros();
  // Extend one of the newest runs when this charge continues it. A miss
  // only costs a record: integration is exact either way.
  const std::size_t lo =
      runs_.size() > kRecentRuns ? runs_.size() - kRecentRuns : 0;
  for (std::size_t i = runs_.size(); i-- > lo;) {
    Run& r = runs_[i];
    if (r.ma != ma || r.rail != rail) continue;
    if (r.count >= 2) {
      if (r.dur == d && start == r.t0 + r.count * r.period) {
        ++r.count;
        return;
      }
    } else if (start == r.t0 + r.dur) {
      r.dur += d;  // back to back: one longer pulse
      return;
    } else if (r.dur == d && start - r.t0 >= d) {
      r.period = start - r.t0;
      r.count = 2;
      return;
    }
  }
  runs_.push_back(Run{start, d, 0, 1, rail, ma});
}

bool EnergyMeter::ledger_active() const {
  if (node_ == kInvalidNode) return false;
  return OMNI_SCOPE(sim_) != nullptr;
}

void EnergyMeter::set_level(const std::string& tag, double ma,
                            obs::EnergyRail rail) {
  TimePoint now = sim_.now();
  auto it = levels_.find(tag);
  if (it != levels_.end()) {
    // Close the previous level as an interval charge.
    charge(it->second.since, now, it->second.ma, it->second.rail);
    if (ma == 0.0) {
      levels_.erase(it);
      return;
    }
    it->second = Level{ma, now, rail};
    return;
  }
  if (ma == 0.0) return;
  levels_.emplace(tag, Level{ma, now, rail});
}

double EnergyMeter::level(const std::string& tag) const {
  auto it = levels_.find(tag);
  return it == levels_.end() ? 0.0 : it->second.ma;
}

double EnergyMeter::current_level_total() const {
  double total = 0;
  for (const auto& [tag, lvl] : levels_) total += lvl.ma;
  return total;
}

void EnergyMeter::flush_levels() {
  TimePoint now = sim_.now();
  for (auto& [tag, lvl] : levels_) {
    if (now <= lvl.since) continue;
    charge(lvl.since, now, lvl.ma, lvl.rail);
    lvl.since = now;
  }
  if (!ledger_active()) return;
  // Runs grow in place, so mirror totals rather than records: each rail
  // gets the change in its rounded total since the last flush, and the
  // ledger equals the meter to the micro-amp-second at every flush.
  obs::Omniscope& sc = *OMNI_SCOPE(sim_);
  const std::size_t lane = sc.lane();
  for (std::size_t r = 0; r < obs::kEnergyRailCount; ++r) {
    const auto rail = static_cast<obs::EnergyRail>(r);
    const std::int64_t uAs =
        std::llround(1000.0 * total_mAs(TimePoint::origin(), now, rail));
    sc.energy().add(lane, node_, rail, uAs - mirrored_uAs_[r]);
    mirrored_uAs_[r] = uAs;
  }
}

std::int64_t EnergyMeter::Run::covered_before(std::int64_t x) const {
  const std::int64_t rel = x - t0;
  if (rel <= 0) return 0;
  if (count == 1) return std::min(rel, dur);
  // Pulses never overlap (period >= dur), so k whole periods hold k pulses.
  const std::int64_t k = rel / period;
  if (k >= count) return count * dur;
  return k * dur + std::min(rel - k * period, dur);
}

template <typename Keep>
double EnergyMeter::integrate(TimePoint t0, TimePoint t1, Keep keep) const {
  OMNI_CHECK_MSG(t1 >= t0, "total_mAs window reversed");
  const std::int64_t a = t0.as_micros();
  const std::int64_t b = t1.as_micros();
  double total = 0;
  for (const Run& r : runs_) {
    if (!keep(r.rail)) continue;
    const std::int64_t us = r.covered_before(b) - r.covered_before(a);
    total += static_cast<double>(us) / 1e6 * r.ma;
  }
  for (const auto& [tag, lvl] : levels_) {
    if (!keep(lvl.rail)) continue;
    const TimePoint lo = std::max(lvl.since, t0);
    if (t1 > lo) total += (t1 - lo).as_seconds() * lvl.ma;
  }
  return total;
}

double EnergyMeter::total_mAs(TimePoint t0, TimePoint t1) const {
  return integrate(t0, t1, [](obs::EnergyRail) { return true; });
}

double EnergyMeter::total_mAs(TimePoint t0, TimePoint t1,
                              obs::EnergyRail rail) const {
  return integrate(t0, t1, [rail](obs::EnergyRail r) { return r == rail; });
}

double EnergyMeter::average_ma(TimePoint t0, TimePoint t1) const {
  double span = (t1 - t0).as_seconds();
  if (span <= 0) return 0;
  return total_mAs(t0, t1) / span;
}

double BusyCharger::charge_active(TimePoint t0, TimePoint t1,
                                  double active_seconds) {
  if (active_seconds <= 0 || t1 <= t0) return 0;
  TimePoint start = std::max(t0, busy_until_);
  TimePoint cap = t1;
  if (start >= cap) return 0;
  TimePoint end =
      std::min(cap, start + Duration::seconds(active_seconds));
  if (end <= start) return 0;
  meter_.charge(start, end, ma_, rail_);
  busy_until_ = end;
  return (end - start).as_seconds();
}

}  // namespace omni::radio
