#include <gtest/gtest.h>

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

}  // namespace
}  // namespace omni::sim
