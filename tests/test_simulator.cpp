#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace omni::sim {
namespace {

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  TimePoint seen;
  sim.after(Duration::millis(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint::origin() + Duration::millis(5));
  EXPECT_EQ(sim.now(), seen);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int ran = 0;
  sim.after(Duration::millis(10), [&] { ++ran; });
  sim.after(Duration::millis(50), [&] { ++ran; });
  sim.run_until(TimePoint::origin() + Duration::millis(20));
  EXPECT_EQ(ran, 1);
  // Clock lands exactly on the deadline even with no event there.
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(20));
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.run_for(Duration::seconds(1));
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(2));
}

TEST(SimulatorTest, ZeroDelayRunsAfterCurrentEventNotReentrantly) {
  Simulator sim;
  std::vector<int> order;
  sim.after(Duration::zero(), [&] {
    order.push_back(1);
    sim.after(Duration::zero(), [&] { order.push_back(3); });
    order.push_back(2);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  bool ran = false;
  sim.after(Duration::zero() - Duration::millis(10), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), TimePoint::origin());
}

TEST(SimulatorTest, AtInThePastClampsToNow) {
  Simulator sim;
  sim.run_for(Duration::seconds(5));
  bool ran = false;
  sim.at(TimePoint::origin() + Duration::seconds(1), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(5));
}

TEST(SimulatorTest, StopHaltsTheLoop) {
  Simulator sim;
  int ran = 0;
  sim.after(Duration::millis(1), [&] {
    ++ran;
    sim.stop();
  });
  sim.after(Duration::millis(2), [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, CancelViaHandle) {
  Simulator sim;
  bool ran = false;
  auto h = sim.after(Duration::millis(1), [&] { ran = true; });
  h.cancel();
  sim.run();
  EXPECT_FALSE(ran);
}

// The shape of every self-rescheduling timer: cancel the pending handle,
// schedule afresh. Only the new event fires, at its own time.
TEST(SimulatorTest, CancelThenRescheduleFiresOnceAtTheNewTime) {
  Simulator sim;
  std::vector<int> fired;
  EventHandle h =
      sim.after_global(Duration::millis(5), [&] { fired.push_back(1); });
  h.cancel();
  sim.after_global(Duration::millis(9), [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(9));
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.after(Duration::millis(i), [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(SimulatorTest, SeededRngIsDeterministic) {
  Simulator a(123), b(123), c(124);
  double va = a.rng().uniform();
  double vb = b.rng().uniform();
  double vc = c.rng().uniform();
  EXPECT_EQ(va, vb);
  EXPECT_NE(va, vc);
}

// The first draws of three streams, fixed as literals so that no compiler,
// library or refactor can move a stream unnoticed. The constants come from
// the definition in common/rng.h (draw k of a stream seeded with s is the
// splitmix64 finalizer of s + (k + 1)·γ, with s derived from (seed, owner)
// the same way), not from a run of this code.
struct FirstDraws {
  std::uint64_t raw = 0;
  double uniform = 0;
  std::vector<std::int64_t> ints;  ///< uniform_int(0, 9)
  std::vector<bool> chances;       ///< chance(0.9)
  bool operator==(const FirstDraws&) const = default;
};

FirstDraws sample(Rng& rng) {
  FirstDraws d;
  d.raw = rng.next();
  d.uniform = rng.uniform();
  for (int i = 0; i < 8; ++i) d.ints.push_back(rng.uniform_int(0, 9));
  for (int i = 0; i < 8; ++i) d.chances.push_back(rng.chance(0.9));
  return d;
}

// Draws from `owner`'s stream the way simulated code does: from inside one
// of its events (the global stream: from outside any event).
FirstDraws sample_owner(Simulator& sim, OwnerId owner) {
  if (owner == kGlobalOwner) return sample(sim.rng());
  FirstDraws d;
  sim.ensure_owner(owner);
  sim.after_on(owner, Duration::zero(), [&] { d = sample(sim.rng()); });
  sim.run();
  return d;
}

std::uint64_t recorded_draws(const Simulator& sim, OwnerId owner) {
  std::vector<std::pair<OwnerId, std::uint64_t>> draws;
  sim.snapshot_rng_draws(draws);
  for (const auto& [o, n] : draws) {
    if (o == owner) return n;
  }
  ADD_FAILURE() << "owner " << owner << " has no stream";
  return 0;
}

TEST(RngStreamTest, FirstDrawsArePinned) {
  struct Case {
    std::uint64_t seed;
    OwnerId owner;
    FirstDraws want;
  };
  const Case cases[] = {
      {1, 0,
       {0x5e41ab087439611eull, 0x1.e31ad9d27ad9ep-1,
        {2, 3, 7, 0, 9, 9, 9, 3},
        {true, false, true, true, true, true, false, true}}},
      {1, 9999,
       {0x90f51f80a448165full, 0x1.13fbd7a425fdcp-3,
        {8, 8, 6, 8, 1, 1, 7, 1},
        {true, false, true, true, true, true, true, true}}},
      {7919, kGlobalOwner,
       {0x2fdd447d3ff40797ull, 0x1.3980a1b606f30p-4,
        {5, 2, 5, 6, 8, 6, 4, 5},
        {true, true, true, true, true, true, true, true}}},
  };
  for (const Case& c : cases) {
    Simulator sim(c.seed);
    const FirstDraws got = sample_owner(sim, c.owner);
    EXPECT_EQ(got.raw, c.want.raw) << "seed " << c.seed << " owner " << c.owner;
    EXPECT_EQ(got.uniform, c.want.uniform);
    EXPECT_EQ(got.ints, c.want.ints);
    EXPECT_EQ(got.chances, c.want.chances);
    // A snapshot records the stream's position as its exact draw count.
    EXPECT_EQ(recorded_draws(sim, c.owner), 18u);
  }
}

TEST(RngStreamTest, StreamsDependOnlyOnSeedOwnerAndDrawCount) {
  // Registering other owners first, or drawing from them, moves no stream.
  Simulator a(1), b(1);
  b.ensure_owner(9999);
  b.ensure_owner(3);
  sample_owner(b, 3);
  EXPECT_EQ(sample_owner(a, 9999), sample_owner(b, 9999));
  EXPECT_EQ(recorded_draws(b, 3), 18u);
  EXPECT_EQ(recorded_draws(b, kGlobalOwner), 0u);
}

TEST(RngStreamTest, DistributionsStayInRangeAndUnbiased) {
  Rng rng(42);
  std::vector<int> counts(10, 0);
  int hits = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    const std::int64_t v = rng.uniform_int(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    ++counts[static_cast<std::size_t>(v)];
    const double u = rng.uniform(-2.0, 3.0);
    ASSERT_GE(u, -2.0);
    ASSERT_LT(u, 3.0);
    hits += rng.chance(0.9) ? 1 : 0;
  }
  // Each count is Binomial(100000, 0.1): sd ≈ 95, so ±600 is > 6 sd.
  for (int c : counts) EXPECT_NEAR(c, kDraws / 10, 600);
  EXPECT_NEAR(hits, kDraws * 9 / 10, 600);
  // A one-value span and the full 64-bit span (whose size wraps to 0) each
  // take exactly one draw, like every draw above.
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                  std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(rng.draws_since(42), 3u * kDraws + 2u);
}

}  // namespace
}  // namespace omni::sim
