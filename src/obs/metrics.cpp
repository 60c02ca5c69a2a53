#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/result.h"

namespace omni::obs {

MetricId MetricsRegistry::register_metric(std::string name, MetricKind kind,
                                          std::span<const double> bounds) {
  for (MetricId i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == name) {
      OMNI_CHECK_MSG(defs_[i].kind == kind,
                     "metric re-registered with a different kind");
      return i;
    }
  }
  Def d;
  d.name = std::move(name);
  d.kind = kind;
  d.bounds.assign(bounds.begin(), bounds.end());
  OMNI_CHECK_MSG(std::is_sorted(d.bounds.begin(), d.bounds.end()),
                 "histogram bounds must be increasing");
  switch (kind) {
    case MetricKind::kCounter:
      d.stride = 1;
      break;
    case MetricKind::kGauge:
      d.stride = 2;  // value + stamp
      break;
    case MetricKind::kHistogram:
      d.stride = static_cast<std::uint32_t>(d.bounds.size()) + 1;
      break;
  }
  defs_.push_back(std::move(d));
  relayout();
  return static_cast<MetricId>(defs_.size() - 1);
}

MetricId MetricsRegistry::counter(std::string name) {
  return register_metric(std::move(name), MetricKind::kCounter, {});
}

MetricId MetricsRegistry::gauge(std::string name) {
  return register_metric(std::move(name), MetricKind::kGauge, {});
}

MetricId MetricsRegistry::histogram(std::string name,
                                    std::span<const double> bounds) {
  return register_metric(std::move(name), MetricKind::kHistogram, bounds);
}

void MetricsRegistry::shape(std::size_t owner_count, std::size_t lanes) {
  std::size_t want_owners = owner_count + 1;  // + global slot
  if (want_owners <= owner_capacity_ && lanes <= lanes_.size()) return;
  // Owners grow geometrically: testbeds add devices one at a time, and each
  // re-layout copies every lane.
  if (want_owners > owner_capacity_) {
    owner_capacity_ = std::max(want_owners, 2 * owner_capacity_);
  }
  if (lanes > lanes_.size()) lanes_.resize(lanes);
  relayout();
}

void MetricsRegistry::relayout() {
  // Recompute cell offsets for the current (defs, owner_capacity) shape and
  // migrate existing lane contents cell-by-cell so registrations and owner
  // growth during setup never lose samples.
  std::vector<std::uint64_t> old_bases(defs_.size());
  std::uint64_t base = 0;
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    old_bases[i] = defs_[i].cell_base;
    defs_[i].cell_base = base;
    base += static_cast<std::uint64_t>(defs_[i].stride) * owner_capacity_;
  }
  std::uint64_t old_cells = cells_per_lane_;
  cells_per_lane_ = base;
  for (Lane& lane : lanes_) {
    if (lane.cells.size() == cells_per_lane_) continue;
    std::vector<std::uint64_t> fresh(cells_per_lane_, 0);
    if (old_cells != 0 && !lane.cells.empty()) {
      // Metric ordering is append-only, so a previously laid-out metric i's
      // old extent runs from its old base to the next laid-out metric's old
      // base (or the old lane end). Metrics registered since the last layout
      // had no cells yet.
      for (std::size_t i = 0; i < laid_out_; ++i) {
        std::uint64_t old_end =
            (i + 1 < laid_out_) ? old_bases[i + 1] : old_cells;
        if (old_bases[i] >= old_end) continue;
        std::copy_n(
            lane.cells.begin() + static_cast<std::ptrdiff_t>(old_bases[i]),
            static_cast<std::ptrdiff_t>(old_end - old_bases[i]),
            fresh.begin() + static_cast<std::ptrdiff_t>(defs_[i].cell_base));
      }
    }
    lane.cells = std::move(fresh);
  }
  laid_out_ = defs_.size();
  layout_.resize(defs_.size());
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    OMNI_CHECK_MSG(defs_[i].stride <= 0xffff && defs_[i].cell_base < (1ull
                   << 48), "metric layout exceeds packed-word range");
    layout_[i] = (defs_[i].cell_base << 16) | defs_[i].stride;
  }
}

void MetricsRegistry::observe(std::size_t lane, MetricId id,
                              sim::OwnerId owner, double sample) {
  const Def& d = defs_[id];
  const std::vector<double>& b = d.bounds;
  std::size_t bucket =
      static_cast<std::size_t>(std::upper_bound(b.begin(), b.end(), sample) -
                               b.begin());
  lanes_[lane].cells[d.cell_base + owner_slot(owner) * d.stride + bucket] += 1;
}

std::uint64_t MetricsRegistry::counter_value(MetricId id,
                                             sim::OwnerId owner) const {
  const Def& d = defs_[id];
  std::uint64_t idx = d.cell_base + owner_slot(owner) * d.stride;
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    if (idx < lane.cells.size()) total += lane.cells[idx];
  }
  return total;
}

std::uint64_t MetricsRegistry::counter_total(MetricId id) const {
  const Def& d = defs_[id];
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    for (std::size_t s = 0; s < owner_capacity_; ++s) {
      std::uint64_t idx = d.cell_base + s * d.stride;
      if (idx < lane.cells.size()) total += lane.cells[idx];
    }
  }
  return total;
}

std::uint64_t MetricsRegistry::gauge_value(MetricId id,
                                           sim::OwnerId owner) const {
  const Def& d = defs_[id];
  std::uint64_t idx = d.cell_base + owner_slot(owner) * d.stride;
  std::uint64_t best = 0;
  std::uint64_t best_stamp = 0;
  for (const Lane& lane : lanes_) {
    if (idx + 1 >= lane.cells.size()) continue;
    std::uint64_t stamp = lane.cells[idx + 1];
    if (stamp > best_stamp ||
        (stamp == best_stamp && lane.cells[idx] > best)) {
      best_stamp = stamp;
      best = lane.cells[idx];
    }
  }
  return best;
}

std::vector<std::uint64_t> MetricsRegistry::histogram_counts(
    MetricId id, sim::OwnerId owner) const {
  const Def& d = defs_[id];
  std::vector<std::uint64_t> out(d.stride, 0);
  std::uint64_t base = d.cell_base + owner_slot(owner) * d.stride;
  for (const Lane& lane : lanes_) {
    for (std::uint32_t b = 0; b < d.stride; ++b) {
      if (base + b < lane.cells.size()) out[b] += lane.cells[base + b];
    }
  }
  return out;
}

std::vector<std::uint64_t> MetricsRegistry::histogram_total(
    MetricId id) const {
  const Def& d = defs_[id];
  std::vector<std::uint64_t> out(d.stride, 0);
  for (std::size_t s = 0; s < owner_capacity_; ++s) {
    std::uint64_t base = d.cell_base + s * d.stride;
    for (const Lane& lane : lanes_) {
      for (std::uint32_t b = 0; b < d.stride; ++b) {
        if (base + b < lane.cells.size()) out[b] += lane.cells[base + b];
      }
    }
  }
  return out;
}

MetricId MetricsRegistry::find(const std::string& name) const {
  for (MetricId i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == name) return i;
  }
  return kInvalidMetric;
}

std::string MetricsRegistry::dump() const {
  std::ostringstream os;
  for (MetricId id = 0; id < defs_.size(); ++id) {
    const Def& d = defs_[id];
    switch (d.kind) {
      case MetricKind::kCounter: {
        os << "counter " << d.name << " total=" << counter_total(id) << "\n";
        for (std::size_t s = 1; s < owner_capacity_; ++s) {
          std::uint64_t v =
              counter_value(id, static_cast<sim::OwnerId>(s - 1));
          if (v != 0) os << "  owner " << (s - 1) << " = " << v << "\n";
        }
        std::uint64_t g = counter_value(id, sim::kGlobalOwner);
        if (g != 0) os << "  owner global = " << g << "\n";
        break;
      }
      case MetricKind::kGauge: {
        os << "gauge " << d.name << "\n";
        for (std::size_t s = 1; s < owner_capacity_; ++s) {
          std::uint64_t v = gauge_value(id, static_cast<sim::OwnerId>(s - 1));
          if (v != 0) os << "  owner " << (s - 1) << " = " << v << "\n";
        }
        std::uint64_t g = gauge_value(id, sim::kGlobalOwner);
        if (g != 0) os << "  owner global = " << g << "\n";
        break;
      }
      case MetricKind::kHistogram: {
        os << "histogram " << d.name << " buckets=";
        std::vector<std::uint64_t> counts = histogram_total(id);
        for (std::size_t b = 0; b < counts.size(); ++b) {
          os << (b ? "," : "") << counts[b];
        }
        os << "\n";
        break;
      }
    }
  }
  return os.str();
}

std::string MetricsRegistry::totals_json() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (MetricId id = 0; id < defs_.size(); ++id) {
    const Def& d = defs_[id];
    if (d.kind == MetricKind::kGauge) continue;  // gauges are per-owner
    os << (first ? "" : ", ") << "\"" << d.name << "\": ";
    if (d.kind == MetricKind::kCounter) {
      os << counter_total(id);
    } else {
      std::vector<std::uint64_t> counts = histogram_total(id);
      os << "[";
      for (std::size_t b = 0; b < counts.size(); ++b) {
        os << (b ? "," : "") << counts[b];
      }
      os << "]";
    }
    first = false;
  }
  os << "}";
  return os.str();
}

void MetricsRegistry::reset() {
  for (Lane& lane : lanes_) {
    std::fill(lane.cells.begin(), lane.cells.end(), 0);
  }
}

}  // namespace omni::obs
