#include "radio/energy_meter.h"

#include <algorithm>

#include "common/codec.h"
#include "common/result.h"

namespace omni::obs {

const char* rail_name(EnergyRail r) {
  switch (r) {
    case EnergyRail::kOther: return "other";
    case EnergyRail::kBle: return "ble";
    case EnergyRail::kWifi: return "wifi";
    case EnergyRail::kNan: return "nan";
    case EnergyRail::kBleScan: return "ble_scan";
  }
  return "other";
}

}  // namespace omni::obs

namespace omni::radio {

struct EnergyMeter::Sealed {
  /// Per run, in seal order: var(index into `tags`), svar(t0 minus the
  /// previous sealed run's t0; charges may arrive out of order), var(dur),
  /// var(count), and var(period) when count >= 2.
  codec::ByteWriter stream;
  struct Tag {
    double ma;
    obs::EnergyRail rail;
  };
  /// Each (current, rail) pair a sealed run draws, in first-seal order.
  std::vector<Tag> tags;
  /// t0 of the newest sealed run: the base of the next delta.
  std::int64_t last_t0 = 0;
  std::size_t runs = 0;
};

EnergyMeter::EnergyMeter(sim::Simulator& sim) : sim_(sim) {}

EnergyMeter::~EnergyMeter() = default;

void EnergyMeter::charge(TimePoint t0, TimePoint t1, double ma,
                         obs::EnergyRail rail) {
  if (t1 <= t0 || ma == 0.0) return;
  const std::int64_t start = t0.as_micros();
  const std::int64_t d = (t1 - t0).as_micros();
  // Extend one of the open runs when this charge continues it. A miss
  // only costs a record: integration is exact either way.
  for (std::size_t i = runs_.size(); i-- > 0;) {
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
  if (runs_.size() == kRecentRuns) seal_oldest();
  runs_.push_back(Run{start, d, 0, 1, rail, ma});
}

void EnergyMeter::seal_oldest() {
  if (!sealed_) sealed_ = std::make_unique<Sealed>();
  Sealed& s = *sealed_;
  const Run& r = runs_.front();
  std::size_t tag = 0;
  while (tag < s.tags.size() &&
         (s.tags[tag].ma != r.ma || s.tags[tag].rail != r.rail)) {
    ++tag;
  }
  if (tag == s.tags.size()) s.tags.push_back(Sealed::Tag{r.ma, r.rail});
  s.stream.var(tag);
  s.stream.svar(r.t0 - s.last_t0);
  s.stream.var(static_cast<std::uint64_t>(r.dur));
  s.stream.var(r.count);
  if (r.count >= 2) s.stream.var(static_cast<std::uint64_t>(r.period));
  s.last_t0 = r.t0;
  ++s.runs;
  runs_.erase(runs_.begin());
}

std::size_t EnergyMeter::run_count() const {
  return runs_.size() + (sealed_ ? sealed_->runs : 0);
}

std::size_t EnergyMeter::record_bytes() const {
  std::size_t bytes = runs_.size() * sizeof(Run);
  if (sealed_) {
    bytes += sealed_->stream.bytes().size() +
             sealed_->tags.size() * sizeof(Sealed::Tag);
  }
  return bytes;
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
  auto add = [&](const Run& r) {
    if (!keep(r.rail)) return;
    const std::int64_t us = r.covered_before(b) - r.covered_before(a);
    total += static_cast<double>(us) / 1e6 * r.ma;
  };
  if (sealed_) {
    codec::ByteReader in(sealed_->stream.bytes());
    Run r{};
    for (std::size_t i = 0; i < sealed_->runs; ++i) {
      const Sealed::Tag& tag = sealed_->tags[in.var()];
      r.t0 += in.svar();
      r.dur = static_cast<std::int64_t>(in.var());
      r.count = static_cast<std::uint32_t>(in.var());
      r.period = r.count >= 2 ? static_cast<std::int64_t>(in.var()) : 0;
      r.rail = tag.rail;
      r.ma = tag.ma;
      add(r);
    }
  }
  for (const Run& r : runs_) add(r);
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
