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
