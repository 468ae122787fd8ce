// Unit tests for the discrete-event simulation kernel and RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace spire::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, FifoWithinSameTimestamp) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  Time fired_at = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterExecutionReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, RunUntilAdvancesClockPastQuietPeriods) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(1000, [&] { ++fired; });
  sim.run_until(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 500u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(2000);
  EXPECT_EQ(fired, 2);
}

// Regression pin for the run_until deadline edge: an event executing
// inside the window that schedules work at *exactly* the deadline must
// see that work run in the same call — the deadline is inclusive for
// events that materialize mid-run, not only for events already queued
// when run_until was entered.
TEST(Simulator, RunUntilRunsEventsScheduledAtExactlyDeadline) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(50, [&] {
    order.push_back(1);
    sim.schedule_at(100, [&] { order.push_back(2); });  // exactly deadline
  });
  // An event at the deadline itself spawning more deadline work: both
  // the parent and the child run in this call, FIFO at t=100.
  sim.schedule_at(100, [&] {
    order.push_back(3);
    sim.schedule_after(0, [&] { order.push_back(4); });
  });
  EXPECT_EQ(sim.run_until(100), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 4}));
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, EventsScheduledInPastClampToNow) {
  Simulator sim;
  Time fired_at = 999;
  sim.schedule_at(100, [&] {
    sim.schedule_at(5, [&] { fired_at = sim.now(); });  // "in the past"
  });
  sim.run();
  EXPECT_EQ(fired_at, 100u);
}

TEST(Simulator, SelfReschedulingEventRespectsLimit) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    sim.schedule_after(10, tick);
  };
  sim.schedule_after(10, tick);
  sim.run(100);
  EXPECT_EQ(count, 100);
}

// Golden-sequence determinism: interleaved equal-timestamp events, some
// cancelled mid-run, driven through run_until. The execution order and
// clock trace must match the documented (timestamp, schedule-order)
// total order — the exact semantics of the original std::map-based
// scheduler — and be bit-identical across runs.
TEST(Simulator, GoldenSequenceDeterminism) {
  // One run of the scenario, returning the "(label@now)" trace.
  const auto run_scenario = [] {
    Simulator sim;
    std::vector<std::pair<int, Time>> trace;
    const auto note = [&](int label) {
      return [&trace, label, &sim] { trace.emplace_back(label, sim.now()); };
    };
    // Equal timestamps interleaved with distinct ones, scheduled out of
    // time order so heap layout differs from schedule order.
    sim.schedule_at(20, note(1));
    sim.schedule_at(10, note(2));
    const EventId doomed1 = sim.schedule_at(10, note(3));
    sim.schedule_at(10, note(4));
    sim.schedule_at(30, note(5));
    const EventId doomed2 = sim.schedule_at(20, note(6));
    sim.schedule_at(20, note(7));
    // Mid-run mutation: the first event at t=10 cancels one t=10 peer
    // (already surfaced ordering must hold) and one t=20 event, then
    // schedules a new equal-timestamp event at t=20 (fires after all
    // previously scheduled t=20 events, FIFO).
    sim.schedule_at(5, [&] {
      EXPECT_TRUE(sim.cancel(doomed1));
      EXPECT_TRUE(sim.cancel(doomed2));
      sim.schedule_at(20, note(8));
    });
    EXPECT_EQ(sim.run_until(15), 3u);  // t=5 lambda, then 2 and 4 at t=10
    EXPECT_EQ(sim.now(), 15u);         // clock advances to the deadline
    sim.run_until(100);
    EXPECT_EQ(sim.now(), 100u);
    return trace;
  };

  const auto trace = run_scenario();
  // Golden order: by (timestamp, schedule order) with 3 and 6 cancelled.
  const std::vector<std::pair<int, Time>> golden{
      {2, 10}, {4, 10}, {1, 20}, {7, 20}, {8, 20}, {5, 30}};
  EXPECT_EQ(trace, golden);
  // Bit-identical across runs.
  EXPECT_EQ(run_scenario(), trace);
}

// Cancel spec: already-fired, unknown, and double-cancelled ids all
// return false, and none of them may corrupt the queue.
TEST(Simulator, CancelEdgeCasesLeaveQueueIntact) {
  Simulator sim;
  std::vector<int> order;
  const EventId fired = sim.schedule_at(1, [&] { order.push_back(1); });
  const EventId live = sim.schedule_at(2, [&] { order.push_back(2); });
  const EventId cancelled = sim.schedule_at(3, [&] { order.push_back(3); });
  sim.run(1);  // fires event 1

  EXPECT_FALSE(sim.cancel(fired));            // already ran
  EXPECT_FALSE(sim.cancel(EventId{0}));       // id 0 is never issued
  EXPECT_FALSE(sim.cancel(EventId{999999}));  // never scheduled
  EXPECT_TRUE(sim.cancel(cancelled));
  EXPECT_FALSE(sim.cancel(cancelled));        // double cancel
  EXPECT_EQ(sim.pending(), 1u);

  // Cancelling the currently-executing event from inside its own
  // callback must also fail (it is no longer pending).
  EventId self = 0;
  self = sim.schedule_at(4, [&] {
    EXPECT_FALSE(sim.cancel(self));
    order.push_back(4);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(sim.pending(), 0u);
}

// Cancel-heavy churn: enough tombstones to trigger heap compaction and
// slot trimming, with survivors still firing in exact FIFO order.
TEST(Simulator, MassCancellationPreservesSurvivorOrder) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventId> ids;
  constexpr int kEvents = 3000;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(sim.schedule_at(100, [&fired, i] { fired.push_back(i); }));
  }
  // Cancel a scattered ~6/7 of the events, visiting ids in a shuffled
  // order so tombstones land throughout the heap, not just at one end.
  std::vector<int> survivors;
  std::vector<bool> dead(kEvents, false);
  for (int i = 0; i < kEvents; ++i) {
    const int victim = (i * 1103) % kEvents;
    if (victim % 7 != 0 && !dead[static_cast<std::size_t>(victim)]) {
      EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(victim)]));
      dead[static_cast<std::size_t>(victim)] = true;
    }
  }
  for (int i = 0; i < kEvents; ++i) {
    if (!dead[static_cast<std::size_t>(i)]) survivors.push_back(i);
  }
  EXPECT_EQ(sim.pending(), survivors.size());
  sim.run();
  // Survivors fire in schedule (FIFO) order at the shared timestamp.
  EXPECT_EQ(fired, survivors);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalHasRoughlyRightMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  Rng b(42);
  b.fork();
  // Parent stream continues deterministically after fork.
  EXPECT_EQ(a.next(), b.next());
  // Child differs from parent.
  Rng a2(42);
  EXPECT_NE(child.next(), a2.next());
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(99);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto reshuffled = v;
  std::sort(reshuffled.begin(), reshuffled.end());
  EXPECT_EQ(reshuffled, sorted);
}

}  // namespace
}  // namespace spire::sim
