#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "radio/energy_meter.h"

namespace omni::radio {
namespace {

TimePoint at_s(double s) {
  return TimePoint::origin() + Duration::seconds(s);
}

TimePoint at_us(std::int64_t us) { return TimePoint::from_micros(us); }

/// The reference: every charge kept as its own segment and integrated one
/// by one.
class SegmentList {
 public:
  void charge(std::int64_t t0, std::int64_t t1, double ma,
              obs::EnergyRail rail) {
    if (t1 > t0) segments_.push_back(Segment{t0, t1, ma, rail});
  }
  double total_mAs(std::int64_t a, std::int64_t b) const {
    double total = 0;
    for (const Segment& s : segments_) total += overlap_s(s, a, b) * s.ma;
    return total;
  }
  double total_mAs(std::int64_t a, std::int64_t b,
                   obs::EnergyRail rail) const {
    double total = 0;
    for (const Segment& s : segments_) {
      if (s.rail == rail) total += overlap_s(s, a, b) * s.ma;
    }
    return total;
  }

 private:
  struct Segment {
    std::int64_t t0;
    std::int64_t t1;
    double ma;
    obs::EnergyRail rail;
  };
  static double overlap_s(const Segment& s, std::int64_t a, std::int64_t b) {
    const std::int64_t lo = std::max(s.t0, a);
    const std::int64_t hi = std::min(s.t1, b);
    return hi > lo ? static_cast<double>(hi - lo) / 1e6 : 0.0;
  }
  std::vector<Segment> segments_;
};

/// The meter's run list before runs were sealed: every run a 40-byte record
/// in one vector, charge() extending one of the eight newest, integration in
/// record order. A meter that seals must hold as many runs and integrate to
/// the same doubles.
class OpenRunList {
 public:
  void charge(std::int64_t start, std::int64_t end, double ma,
              obs::EnergyRail rail) {
    if (end <= start || ma == 0.0) return;
    const std::int64_t d = end - start;
    const std::size_t lo = runs_.size() > 8 ? runs_.size() - 8 : 0;
    for (std::size_t i = runs_.size(); i-- > lo;) {
      Run& r = runs_[i];
      if (r.ma != ma || r.rail != rail) continue;
      if (r.count >= 2) {
        if (r.dur == d && start == r.t0 + r.count * r.period) {
          ++r.count;
          return;
        }
      } else if (start == r.t0 + r.dur) {
        r.dur += d;
        return;
      } else if (r.dur == d && start - r.t0 >= d) {
        r.period = start - r.t0;
        r.count = 2;
        return;
      }
    }
    runs_.push_back(Run{start, d, 0, 1, rail, ma});
  }
  double total_mAs(std::int64_t a, std::int64_t b) const {
    return integrate(a, b, [](obs::EnergyRail) { return true; });
  }
  double total_mAs(std::int64_t a, std::int64_t b,
                   obs::EnergyRail rail) const {
    return integrate(a, b, [rail](obs::EnergyRail r) { return r == rail; });
  }
  std::size_t run_count() const { return runs_.size(); }

 private:
  struct Run {
    std::int64_t t0;
    std::int64_t dur;
    std::int64_t period;
    std::uint32_t count;
    obs::EnergyRail rail;
    double ma;

    std::int64_t covered_before(std::int64_t x) const {
      const std::int64_t rel = x - t0;
      if (rel <= 0) return 0;
      if (count == 1) return std::min(rel, dur);
      const std::int64_t k = rel / period;
      if (k >= count) return count * dur;
      return k * dur + std::min(rel - k * period, dur);
    }
  };
  template <typename Keep>
  double integrate(std::int64_t a, std::int64_t b, Keep keep) const {
    double total = 0;
    for (const Run& r : runs_) {
      if (!keep(r.rail)) continue;
      const std::int64_t us = r.covered_before(b) - r.covered_before(a);
      total += static_cast<double>(us) / 1e6 * r.ma;
    }
    return total;
  }
  std::vector<Run> runs_;
};

struct Charge {
  std::int64_t issued;  ///< when the charge is made (feed order)
  std::int64_t t0;
  std::int64_t t1;
  double ma;
  obs::EnergyRail rail;
};

/// A seeded mix of 2-4 interleaved periodic draws (with the odd skipped or
/// shifted pulse), a run of back-to-back spans, lone charges, and charges
/// that overlap others or arrive after later ones.
std::vector<Charge> charge_mix(std::uint64_t seed, std::int64_t horizon) {
  std::mt19937_64 rng(seed);
  auto uniform = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const double currents[] = {12.5, 4.0, 97.3, 0.37};
  const obs::EnergyRail rails[] = {obs::EnergyRail::kBle,
                                   obs::EnergyRail::kWifi,
                                   obs::EnergyRail::kBleScan,
                                   obs::EnergyRail::kOther};
  auto pick_ma = [&] { return currents[uniform(0, 3)]; };
  auto pick_rail = [&] { return rails[uniform(0, 3)]; };
  std::vector<Charge> out;
  const int draws = static_cast<int>(uniform(2, 4));
  for (int d = 0; d < draws; ++d) {
    const std::int64_t period = uniform(200, 40'000);
    const std::int64_t dur = uniform(1, period);
    const double ma = pick_ma();
    const obs::EnergyRail rail = pick_rail();
    for (std::int64_t t = uniform(0, period); t + dur <= horizon;
         t += period) {
      const std::int64_t roll = uniform(0, 99);
      if (roll < 2) continue;  // skipped pulse
      const std::int64_t start = roll < 4 ? t + uniform(1, dur) : t;
      out.push_back(Charge{start, start, start + dur, ma, rail});
    }
  }
  // Back-to-back busy spans with the odd gap.
  const double busy_ma = pick_ma();
  const obs::EnergyRail busy_rail = pick_rail();
  for (std::int64_t t = uniform(0, horizon / 4); t < horizon;) {
    const std::int64_t dur = uniform(1, 5'000);
    out.push_back(Charge{t, t, t + dur, busy_ma, busy_rail});
    t += dur + (uniform(0, 9) == 0 ? uniform(1, 3'000) : 0);
  }
  for (int i = 0; i < 60; ++i) {
    const std::int64_t t0 = uniform(0, horizon);
    const std::int64_t t1 = t0 + uniform(1, 20'000);
    const std::int64_t lag = uniform(0, 3) == 0 ? uniform(1, 50'000) : 0;
    // Lone, overlapping (same current as a draw) or out of order (lag).
    out.push_back(Charge{t0 + lag, t0, t1, i % 3 == 0 ? 55.5 : pick_ma(),
                         pick_rail()});
  }
  std::stable_sort(out.begin(), out.end(), [](const Charge& x,
                                              const Charge& y) {
    return x.issued < y.issued;
  });
  return out;
}

TEST(EnergyMeterTest, IntervalChargeIntegrates) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.charge(at_s(1), at_s(3), 100.0);  // 200 mAs
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(0), at_s(10)), 200.0);
  EXPECT_DOUBLE_EQ(meter.average_ma(at_s(0), at_s(10)), 20.0);
  // Query window clips the segment.
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(2), at_s(10)), 100.0);
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(4), at_s(10)), 0.0);
}

TEST(EnergyMeterTest, OverlappingChargesAccumulate) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.charge(at_s(0), at_s(2), 50.0);
  meter.charge(at_s(1), at_s(3), 50.0);
  EXPECT_DOUBLE_EQ(meter.average_ma(at_s(1), at_s(2)), 100.0);
}

TEST(EnergyMeterTest, ZeroOrNegativeSpanChargesIgnored) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.charge(at_s(2), at_s(2), 100.0);
  meter.charge(at_s(3), at_s(1), 100.0);
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(0), at_s(10)), 0.0);
}

TEST(EnergyMeterTest, LevelsIntegrateUntilChanged) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.set_level("wifi", 92.1);
  sim.run_for(Duration::seconds(10));
  meter.clear_level("wifi");
  sim.run_for(Duration::seconds(10));
  EXPECT_NEAR(meter.total_mAs(at_s(0), at_s(20)), 921.0, 1e-6);
  EXPECT_NEAR(meter.average_ma(at_s(0), at_s(20)), 46.05, 1e-6);
}

TEST(EnergyMeterTest, LevelReplacementClosesOldSegment) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.set_level("ble", 7.0);
  sim.run_for(Duration::seconds(5));
  meter.set_level("ble", 1.0);
  sim.run_for(Duration::seconds(5));
  EXPECT_NEAR(meter.total_mAs(at_s(0), at_s(10)), 7 * 5 + 1 * 5, 1e-6);
  EXPECT_DOUBLE_EQ(meter.level("ble"), 1.0);
}

TEST(EnergyMeterTest, OpenLevelIntegratedToQueryEnd) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.set_level("x", 10.0);
  sim.run_for(Duration::seconds(4));
  EXPECT_NEAR(meter.total_mAs(at_s(0), at_s(4)), 40.0, 1e-6);
}

TEST(EnergyMeterTest, LevelTotalsSumAcrossTags) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.set_level("a", 5.0);
  meter.set_level("b", 7.5);
  EXPECT_DOUBLE_EQ(meter.current_level_total(), 12.5);
  meter.clear_level("a");
  EXPECT_DOUBLE_EQ(meter.current_level_total(), 7.5);
}

TEST(BusyChargerTest, ChargesRequestedActiveTime) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  BusyCharger charger(meter, 100.0);
  double charged = charger.charge_active(at_s(0), at_s(10), 2.0);
  EXPECT_DOUBLE_EQ(charged, 2.0);
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(0), at_s(10)), 200.0);
}

TEST(BusyChargerTest, CapsAtWallTime) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  BusyCharger charger(meter, 100.0);
  // Asking for 50 active seconds inside a 10 s window charges only 10.
  double charged = charger.charge_active(at_s(0), at_s(10), 50.0);
  EXPECT_DOUBLE_EQ(charged, 10.0);
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(0), at_s(10)), 1000.0);
}

TEST(BusyChargerTest, ConcurrentFlowsNeverDoubleCharge) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  BusyCharger charger(meter, 100.0);
  // Two "flows" each claim 8 active seconds over the same 10 s window: the
  // watermark lets the second one charge only the 2 s remainder.
  EXPECT_DOUBLE_EQ(charger.charge_active(at_s(0), at_s(10), 8.0), 8.0);
  EXPECT_DOUBLE_EQ(charger.charge_active(at_s(0), at_s(10), 8.0), 2.0);
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(0), at_s(10)), 1000.0);
}

TEST(BusyChargerTest, DisjointWindowsAreIndependent) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  BusyCharger charger(meter, 10.0);
  charger.charge_active(at_s(0), at_s(1), 1.0);
  charger.charge_active(at_s(5), at_s(6), 1.0);
  EXPECT_DOUBLE_EQ(meter.total_mAs(at_s(0), at_s(10)), 20.0);
}

TEST(EnergyMeterTest, RunsMatchSegmentListOnAnyWindow) {
  constexpr std::int64_t kHorizon = 2'000'000;
  std::size_t windows = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    sim::Simulator sim;
    EnergyMeter meter(sim);
    SegmentList ref;
    std::vector<Charge> mix = charge_mix(seed, kHorizon);
    for (const Charge& c : mix) {
      meter.charge(at_us(c.t0), at_us(c.t1), c.ma, c.rail);
      ref.charge(c.t0, c.t1, c.ma, c.rail);
    }
    // The skipped and shifted pulses, gaps and lone charges each cost a
    // record; everything else extends one.
    EXPECT_LT(meter.run_count(), mix.size() / 2) << "seed " << seed;

    std::int64_t first = INT64_MAX;
    std::int64_t last = 0;
    for (const Charge& c : mix) {
      first = std::min(first, c.t0);
      last = std::max(last, c.t1);
    }
    std::mt19937_64 rng(seed * 7919);
    auto uniform = [&](std::int64_t lo, std::int64_t hi) {
      return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    // A point near a charge edge, so windows cut pulses and fall between
    // them.
    auto near_edge = [&] {
      const Charge& c = mix[static_cast<std::size_t>(
          uniform(0, static_cast<std::int64_t>(mix.size()) - 1))];
      return std::max<std::int64_t>(0,
                                    (uniform(0, 1) ? c.t0 : c.t1) +
                                        uniform(-3, 3));
    };
    std::vector<std::pair<std::int64_t, std::int64_t>> qs = {
        {0, last},
        {0, first},
        {0, std::max<std::int64_t>(first - 1, 0)},
        {last, last + 1'000},
        {last + 1, last + 50'000},
    };
    for (int i = 0; i < 120; ++i) {
      std::int64_t a = 0;
      std::int64_t b = 0;
      switch (i % 4) {
        case 0:
          a = uniform(0, last + 1'000);
          b = uniform(0, last + 1'000);
          break;
        case 1:
          a = near_edge();
          b = near_edge();
          break;
        case 2:
          a = near_edge();
          b = a + uniform(0, 60'000);
          break;
        default:
          a = uniform(0, last);
          b = a + uniform(0, 50);
      }
      qs.emplace_back(std::min(a, b), std::max(a, b));
    }
    const obs::EnergyRail rails[] = {
        obs::EnergyRail::kOther, obs::EnergyRail::kBle,
        obs::EnergyRail::kWifi, obs::EnergyRail::kNan,
        obs::EnergyRail::kBleScan};
    for (const auto& [a, b] : qs) {
      const double want = ref.total_mAs(a, b);
      EXPECT_LE(std::abs(meter.total_mAs(at_us(a), at_us(b)) - want),
                1e-9 * std::max(1.0, want))
          << "seed " << seed << " window [" << a << ", " << b << "]";
      for (obs::EnergyRail rail : rails) {
        const double want_rail = ref.total_mAs(a, b, rail);
        EXPECT_LE(
            std::abs(meter.total_mAs(at_us(a), at_us(b), rail) - want_rail),
            1e-9 * std::max(1.0, want_rail))
            << "seed " << seed << " rail " << obs::rail_name(rail)
            << " window [" << a << ", " << b << "]";
      }
      ++windows;
    }
  }
  EXPECT_GE(windows, 1000u);
}

/// Irregular busy spans as a BusyCharger leaves them: each settle step
/// charges part of the interval since the previous one, starting at the
/// watermark, so spans are lone pulses of every length, a few back to back.
/// `spans` such spans at 40 mA on the WiFi rail, in charge order.
std::vector<Charge> busy_spans(std::uint64_t seed, int spans) {
  std::mt19937_64 rng(seed);
  auto uniform = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  std::vector<Charge> out;
  std::int64_t settled = 0;
  std::int64_t busy_until = 0;
  while (static_cast<int>(out.size()) < spans) {
    const std::int64_t now = settled + uniform(1, 20'000);
    const std::int64_t start = std::max(settled, busy_until);
    const std::int64_t end = std::min(now, start + uniform(1, 6'000));
    if (end > start) {
      out.push_back(Charge{now, start, end, 40.0, obs::EnergyRail::kWifi});
      busy_until = end;
    }
    settled = now;
  }
  return out;
}

/// A traffic-like feed: busy spans on two WiFi currents, a beacon train
/// and a scan train whose pulses are now and then skipped (broken trains),
/// and charges back-dated by up to 2 s (a level closed late, a flow settled
/// after later charges), so sealed start times step backwards.
std::vector<Charge> traffic_mix(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto uniform = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  std::vector<Charge> out = busy_spans(seed, 2'000);
  const std::int64_t horizon = out.back().t1;
  for (Charge& c : out) {
    if (uniform(0, 3) == 0) c.ma = 160.0;  // the receive side of a flow
  }
  const struct {
    std::int64_t period;
    std::int64_t dur;
    double ma;
    obs::EnergyRail rail;
  } trains[] = {{100'000, 10'000, 12.5, obs::EnergyRail::kBle},
                {250'000, 25'000, 7.0, obs::EnergyRail::kBleScan}};
  for (const auto& train : trains) {
    for (std::int64_t t = uniform(0, train.period); t + train.dur <= horizon;
         t += train.period) {
      if (uniform(0, 9) == 0) continue;  // a gap breaks the train
      out.push_back(Charge{t + train.dur, t, t + train.dur, train.ma,
                           train.rail});
    }
  }
  for (int i = 0; i < 400; ++i) {
    const std::int64_t t0 = uniform(0, horizon);
    const std::int64_t lag = uniform(1, 2'000'000);
    out.push_back(Charge{t0 + lag, t0, t0 + uniform(1, 30'000),
                         i % 2 == 0 ? 95.0 : 160.0,
                         i % 3 == 0 ? obs::EnergyRail::kBle
                                    : obs::EnergyRail::kWifi});
  }
  std::stable_sort(out.begin(), out.end(), [](const Charge& x,
                                              const Charge& y) {
    return x.issued < y.issued;
  });
  return out;
}

TEST(EnergyMeterTest, SealedRunsIntegrateExactlyLikeOpenRuns) {
  const obs::EnergyRail rails[] = {
      obs::EnergyRail::kOther, obs::EnergyRail::kBle,
      obs::EnergyRail::kWifi, obs::EnergyRail::kNan,
      obs::EnergyRail::kBleScan};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::Simulator sim;
    EnergyMeter meter(sim);
    OpenRunList open;
    const std::vector<Charge> mix = traffic_mix(seed);
    ASSERT_GE(mix.size(), 2'000u);
    for (const Charge& c : mix) {
      meter.charge(at_us(c.t0), at_us(c.t1), c.ma, c.rail);
      open.charge(c.t0, c.t1, c.ma, c.rail);
    }
    ASSERT_EQ(meter.run_count(), open.run_count()) << "seed " << seed;
    ASSERT_GT(meter.run_count(), 1'000u) << "most runs are sealed";

    std::int64_t first = INT64_MAX;
    std::int64_t last = 0;
    for (const Charge& c : mix) {
      first = std::min(first, c.t0);
      last = std::max(last, c.t1);
    }
    std::mt19937_64 rng(seed * 7919);
    auto uniform = [&](std::int64_t lo, std::int64_t hi) {
      return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    // A point strictly inside one of the first charges made: those runs
    // were sealed long before the feed ended.
    auto inside_early_pulse = [&] {
      for (;;) {
        const Charge& c = mix[static_cast<std::size_t>(uniform(0, 499))];
        if (c.t1 - c.t0 >= 2) return uniform(c.t0 + 1, c.t1 - 1);
      }
    };
    std::vector<std::pair<std::int64_t, std::int64_t>> qs = {
        {0, last},
        {0, first},
        {last, last + 10'000},
        {last + 1, last + 2'000'000},
    };
    for (int i = 0; i < 60; ++i) {
      const std::int64_t a = inside_early_pulse();
      const std::int64_t b =
          i % 2 == 0 ? inside_early_pulse() : a + uniform(0, 5'000);
      qs.emplace_back(std::min(a, b), std::max(a, b));
      const std::int64_t c = uniform(0, last + 10'000);
      const std::int64_t d = uniform(0, last + 10'000);
      qs.emplace_back(std::min(c, d), std::max(c, d));
    }
    for (const auto& [a, b] : qs) {
      EXPECT_EQ(meter.total_mAs(at_us(a), at_us(b)), open.total_mAs(a, b))
          << "seed " << seed << " window [" << a << ", " << b << "]";
      for (obs::EnergyRail rail : rails) {
        EXPECT_EQ(meter.total_mAs(at_us(a), at_us(b), rail),
                  open.total_mAs(a, b, rail))
            << "seed " << seed << " rail " << obs::rail_name(rail)
            << " window [" << a << ", " << b << "]";
      }
    }
    EXPECT_EQ(meter.total_mAs(at_us(0), at_us(first)), 0.0);
    EXPECT_EQ(meter.total_mAs(at_us(last), at_us(last + 10'000)), 0.0);
  }
}

TEST(EnergyMeterTest, SealedRunsTakeAtMostTwelveBytes) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  OpenRunList open;
  for (const Charge& c : busy_spans(42, 10'000)) {
    meter.charge(at_us(c.t0), at_us(c.t1), c.ma, c.rail);
    open.charge(c.t0, c.t1, c.ma, c.rail);
  }
  ASSERT_EQ(meter.run_count(), open.run_count());
  ASSERT_GT(meter.run_count(), 8'000u) << "few spans merge";
  // Eight runs stay open at 40 bytes each; every older one is sealed.
  constexpr std::size_t kOpenRuns = 8;
  constexpr std::size_t kOpenRunBytes = 40;
  const std::size_t sealed = meter.run_count() - kOpenRuns;
  EXPECT_LE(meter.record_bytes(), kOpenRuns * kOpenRunBytes + 12 * sealed);
}

TEST(EnergyMeterTest, LoneChargeIntegratesLikeOneSegment) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  meter.charge(at_us(1'000), at_us(4'321), 97.3, obs::EnergyRail::kWifi);
  EXPECT_EQ(meter.total_mAs(at_us(0), at_us(10'000)), 3321 / 1e6 * 97.3);
  EXPECT_EQ(meter.total_mAs(at_us(2'000), at_us(3'000)), 1000 / 1e6 * 97.3);
  EXPECT_EQ(meter.total_mAs(at_us(0), at_us(10'000), obs::EnergyRail::kBle),
            0.0);
}

TEST(EnergyMeterTest, InterleavedPeriodicDrawsStayTwoRuns) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  // Two draws, 7 ms and 5 ms apart, charged in time order.
  std::int64_t next_a = 0;
  std::int64_t next_b = 1'000;
  std::int64_t pulses_a = 0;
  std::int64_t pulses_b = 0;
  for (int i = 0; i < 100'000; ++i) {
    if (next_a <= next_b) {
      meter.charge(at_us(next_a), at_us(next_a + 2'000), 12.0,
                   obs::EnergyRail::kBle);
      next_a += 7'000;
      ++pulses_a;
    } else {
      meter.charge(at_us(next_b), at_us(next_b + 1'000), 3.5,
                   obs::EnergyRail::kBleScan);
      next_b += 5'000;
      ++pulses_b;
    }
  }
  EXPECT_EQ(meter.run_count(), 2u);
  const TimePoint end = at_us(std::max(next_a, next_b));
  EXPECT_NEAR(meter.total_mAs(TimePoint::origin(), end,
                              obs::EnergyRail::kBle),
              static_cast<double>(pulses_a) * 0.002 * 12.0, 1e-9);
  EXPECT_NEAR(meter.total_mAs(TimePoint::origin(), end,
                              obs::EnergyRail::kBleScan),
              static_cast<double>(pulses_b) * 0.001 * 3.5, 1e-9);
}

TEST(EnergyMeterTest, BackToBackBusySpansStayOneRun) {
  sim::Simulator sim;
  EnergyMeter meter(sim);
  BusyCharger charger(meter, 40.0, obs::EnergyRail::kWifi);
  // Each flow is back-dated to the origin; the watermark starts it where
  // the previous one ended.
  for (int i = 0; i < 1'000; ++i) {
    charger.charge_active(TimePoint::origin(), at_s(1'000), 0.25);
  }
  EXPECT_EQ(meter.run_count(), 1u);
  EXPECT_DOUBLE_EQ(charger.busy_until_seconds(), 250.0);
  EXPECT_NEAR(meter.total_mAs(TimePoint::origin(), at_s(1'000)),
              250.0 * 40.0, 1e-9);
}

}  // namespace
}  // namespace omni::radio
