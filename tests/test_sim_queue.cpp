// The simulation-integrated queues of the Communication Technology API:
// pushes never invoke the consumer re-entrantly, wakeups coalesce, and
// consumers drain in FIFO order.
#include <gtest/gtest.h>

#include <vector>

#include "omni/queues.h"

namespace omni {
namespace {

TEST(SimQueueTest, ConsumerRunsInFreshEvent) {
  sim::Simulator sim;
  SimQueue<int> q(sim, sim::kGlobalOwner);
  std::vector<int> got;
  bool in_push_scope = false;
  q.set_consumer([&] {
    EXPECT_FALSE(in_push_scope);  // never re-entrant
    while (auto v = q.try_pop()) got.push_back(*v);
  });
  in_push_scope = true;
  q.push(1);
  q.push(2);
  in_push_scope = false;
  EXPECT_TRUE(got.empty());  // nothing until the event loop spins
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(SimQueueTest, WakeupsCoalesce) {
  sim::Simulator sim;
  SimQueue<int> q(sim, sim::kGlobalOwner);
  int wakeups = 0;
  q.set_consumer([&] {
    ++wakeups;
    while (q.try_pop()) {
    }
  });
  for (int i = 0; i < 100; ++i) q.push(i);
  sim.run();
  EXPECT_EQ(wakeups, 1);
}

TEST(SimQueueTest, ConsumerSetAfterPushStillWakes) {
  sim::Simulator sim;
  SimQueue<int> q(sim, sim::kGlobalOwner);
  q.push(5);
  sim.run();
  int got = 0;
  q.set_consumer([&] {
    if (auto v = q.try_pop()) got = *v;
  });
  sim.run();
  EXPECT_EQ(got, 5);
}

TEST(SimQueueTest, ClearConsumerStopsDelivery) {
  sim::Simulator sim;
  SimQueue<int> q(sim, sim::kGlobalOwner);
  int wakeups = 0;
  q.set_consumer([&] { ++wakeups; });
  q.clear_consumer();
  q.push(1);
  sim.run();
  EXPECT_EQ(wakeups, 0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(SimQueueTest, PushFromConsumerSchedulesAnotherWakeup) {
  sim::Simulator sim;
  SimQueue<int> q(sim, sim::kGlobalOwner);
  std::vector<int> got;
  q.set_consumer([&] {
    while (auto v = q.try_pop()) {
      got.push_back(*v);
      if (*v == 1) q.push(2);  // produced while consuming
    }
  });
  q.push(1);
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(SimQueueTest, DrainReturnsBacklogInOrder) {
  sim::Simulator sim;
  SimQueue<int> q(sim, sim::kGlobalOwner);
  for (int i = 0; i < 4; ++i) q.push(i);
  std::vector<int> out;
  ASSERT_EQ(q.drain_into(out), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(q.empty());
  std::vector<int> none;
  EXPECT_EQ(q.drain_into(none), 0u);
  EXPECT_TRUE(none.empty());
}

TEST(SimQueueTest, DrainIntoReportsLivePrefixAndRecyclesSlots) {
  sim::Simulator sim;
  SimQueue<std::vector<int>> q(sim, sim::kGlobalOwner);
  q.push({1});
  q.push({2});
  q.push({3});
  std::vector<std::vector<int>> scratch;
  ASSERT_EQ(q.drain_into(scratch), 3u);
  EXPECT_EQ(scratch[0], (std::vector<int>{1}));
  EXPECT_EQ(scratch[2], (std::vector<int>{3}));
  EXPECT_TRUE(q.empty());

  // Deliberately no clear() between exchanges: the processed batch swaps
  // back into the queue as recycled slots.
  q.push({4});
  ASSERT_EQ(q.drain_into(scratch), 1u);  // queue now holds the 3 dead slots
  EXPECT_EQ(scratch[0], (std::vector<int>{4}));

  // A new batch overwrites the recycled slots in place; the third element
  // of the swapped-out vector is still a dead slot from the first batch.
  q.push({5});
  q.push({6});
  ASSERT_EQ(q.drain_into(scratch), 2u);
  ASSERT_EQ(scratch.size(), 3u);
  EXPECT_EQ(scratch[0], (std::vector<int>{5}));
  EXPECT_EQ(scratch[1], (std::vector<int>{6}));
  EXPECT_EQ(scratch[2], (std::vector<int>{3}));  // dead slot, buffer kept
}

TEST(SimQueueTest, TryPopInterleavesWithRecycledSlots) {
  sim::Simulator sim;
  SimQueue<int> q(sim, sim::kGlobalOwner);
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.try_pop(), 1);
  q.push(3);
  EXPECT_EQ(q.try_pop(), 2);
  EXPECT_EQ(q.try_pop(), 3);
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

}  // namespace
}  // namespace omni
