// Unit tests for the discrete-event kernel, RNG and statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "sim/event_heap.hpp"
#include "sim/fifo_lock.hpp"
#include "sim/inline_task.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"

namespace rc::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next32() == b.next32();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntInBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.uniformInt(17), 17u);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng r(9);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[r.uniformInt(10)];
  for (int c : seen) EXPECT_GT(c, 800);  // ~1000 each
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.uniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(1);
  Rng c = a.fork(0);
  Rng d = a.fork(0);
  // forks taken sequentially must differ (parent state advanced)
  EXPECT_NE(c.next64(), d.next64());
}

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(usec(30), [&] { order.push_back(3); });
  sim.schedule(usec(10), [&] { order.push_back(1); });
  sim.schedule(usec(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), usec(30));
}

TEST(Simulation, TiesBreakByScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(usec(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  int ran = 0;
  sim.schedule(usec(10), [&] { ++ran; });
  sim.schedule(usec(100), [&] { ++ran; });
  sim.runUntil(usec(50));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), usec(50));
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  const EventId id = sim.schedule(usec(10), [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule(usec(1), chain);
  };
  sim.schedule(usec(1), chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), usec(5));
}

TEST(Simulation, StopHaltsRun) {
  Simulation sim;
  int ran = 0;
  sim.schedule(usec(1), [&] {
    ++ran;
    sim.stop();
  });
  sim.schedule(usec(2), [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  sim.clearStop();
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulation, NegativeDelayClampsToNow) {
  Simulation sim;
  sim.schedule(usec(5), [] {});
  sim.run();
  bool ran = false;
  sim.schedule(-100, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), usec(5));
}

TEST(Simulation, CallbackSchedulingManyArenaChunksKeepsItsCaptures) {
  // Callbacks run in place in the event arena; one that schedules several
  // chunks' worth of events must not move itself (ASan flags a relocation
  // as heap-use-after-free on the captures read afterwards).
  Simulation sim;
  std::vector<int> order;
  std::array<int, 6> payload{0, 1, 2, 3, 4, 5};
  int checked = 0;
  sim.schedule(usec(1), [&sim, &order, &checked, payload] {
    for (int i = 0; i < 5000; ++i) {
      sim.schedule(usec(1 + i % 3), [&order, i] { order.push_back(i); });
    }
    for (int i = 0; i < 6; ++i) checked += payload[i] == i;
  });
  sim.run();
  EXPECT_EQ(checked, 6);
  ASSERT_EQ(order.size(), 5000u);
  // (time, seq) order: by delay class, then schedule order within a class.
  std::vector<int> expected;
  for (int cls = 0; cls < 3; ++cls) {
    for (int i = cls; i < 5000; i += 3) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(Simulation, ReservedSeqSortsWhereTheReservationWas) {
  Simulation sim;
  std::vector<int> order;
  const std::uint64_t seq = sim.reserveSeq();
  sim.schedule(usec(5), [&] { order.push_back(2); });
  sim.schedule(usec(1), [&] {
    // Armed late, at a reserved seq that predates the event above.
    sim.scheduleAtSeq(usec(5), seq, [&] { order.push_back(1); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulation, HasHappenedComparesWithTheRunningEvent) {
  Simulation sim;
  const std::uint64_t early = sim.reserveSeq();
  std::uint64_t late = 0;
  sim.schedule(usec(5), [&] {
    EXPECT_TRUE(sim.hasHappened(usec(4), late));
    EXPECT_TRUE(sim.hasHappened(usec(5), early));
    EXPECT_FALSE(sim.hasHappened(usec(5), late));
    EXPECT_FALSE(sim.hasHappened(usec(6), early));
  });
  late = sim.reserveSeq();
  sim.run();
  // Between runs every event up to now() has run.
  EXPECT_TRUE(sim.hasHappened(usec(5), late));
  EXPECT_FALSE(sim.hasHappened(usec(6), early));
}

TEST(PeriodicTask, FiresAtInterval) {
  Simulation sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, seconds(1), [&](SimTime t) { fires.push_back(t); });
  sim.runUntil(seconds(5) + msec(500));
  ASSERT_EQ(fires.size(), 5u);
  EXPECT_EQ(fires[0], seconds(1));
  EXPECT_EQ(fires[4], seconds(5));
}

TEST(PeriodicTask, CancelStopsFiring) {
  Simulation sim;
  int fires = 0;
  PeriodicTask task(sim, seconds(1), [&](SimTime) { ++fires; });
  sim.runUntil(seconds(2) + msec(1));
  task.cancel();
  sim.runUntil(seconds(10));
  EXPECT_EQ(fires, 2);
}

TEST(MinMaxMean, TracksExtremesAndMean) {
  MinMaxMean m;
  for (double v : {3.0, 1.0, 4.0, 1.5, 9.0}) m.add(v);
  EXPECT_DOUBLE_EQ(m.min(), 1.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
  EXPECT_NEAR(m.mean(), 3.7, 1e-9);
  EXPECT_EQ(m.count(), 5u);
}

TEST(MinMaxMean, MergeCombines) {
  MinMaxMean a, b;
  a.add(1);
  a.add(2);
  b.add(10);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  EXPECT_EQ(a.count(), 3u);
}

TEST(Histogram, PercentilesRoughlyCorrect) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(usec(i));
  // log-bucketed: ~2-3 % resolution
  EXPECT_NEAR(toMicros(h.percentile(0.5)), 500, 25);
  EXPECT_NEAR(toMicros(h.percentile(0.99)), 990, 40);
  EXPECT_EQ(h.percentile(1.0), h.max());
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean() / 1000.0, 500.5, 5);
}

TEST(Histogram, MergePreservesCountAndBounds) {
  Histogram a, b;
  a.add(usec(10));
  b.add(usec(1000));
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), usec(10));
  EXPECT_EQ(a.max(), usec(1000));
}

TEST(Histogram, SmallValuesExact) {
  Histogram h;
  h.add(5);
  EXPECT_EQ(h.percentile(1.0), 5);
}

TEST(TimeSeries, MeanAndWindow) {
  TimeSeries ts;
  ts.add(seconds(1), 10);
  ts.add(seconds(2), 20);
  ts.add(seconds(3), 30);
  EXPECT_DOUBLE_EQ(ts.meanValue(), 20);
  EXPECT_DOUBLE_EQ(ts.meanInWindow(seconds(2), seconds(4)), 25);
  EXPECT_DOUBLE_EQ(ts.maxValue(), 30);
}

TEST(TimeSeries, StepIntegral) {
  TimeSeries ts;
  ts.add(0, 100);          // 100 W for 2 s
  ts.add(seconds(2), 50);  // 50 W for 1 s
  EXPECT_DOUBLE_EQ(ts.stepIntegral(seconds(3)), 250.0);
}

TEST(TimeWeightedValue, IntegratesPiecewiseConstant) {
  TimeWeightedValue v;
  v.set(0, 2.0);
  v.set(seconds(10), 4.0);
  EXPECT_DOUBLE_EQ(v.integralTo(seconds(10)), 20.0);
  EXPECT_DOUBLE_EQ(v.integralTo(seconds(15)), 40.0);
}

// ----- degenerate-input regressions: every stats helper must return 0 (not
// divide by zero, wrap, or crash) on empty or zero-length inputs.

TEST(OpCounter, RateZeroOnDegenerateWindow) {
  EXPECT_DOUBLE_EQ(OpCounter::rate(0, 100, seconds(5), seconds(5)), 0.0);
  EXPECT_DOUBLE_EQ(OpCounter::rate(0, 100, seconds(5), seconds(4)), 0.0);
  // Counter reset (end behind start, e.g. across a crash) must not wrap
  // the unsigned difference into a huge rate.
  EXPECT_DOUBLE_EQ(OpCounter::rate(100, 40, seconds(0), seconds(1)), 0.0);
  EXPECT_DOUBLE_EQ(OpCounter::rate(40, 100, seconds(0), seconds(2)), 30.0);
}

TEST(TimeSeries, MeanInWindowEmpty) {
  TimeSeries empty;
  EXPECT_DOUBLE_EQ(empty.meanInWindow(0, seconds(10)), 0.0);
  TimeSeries ts;
  ts.add(seconds(1), 10);
  // Window containing no samples, and a zero-length window.
  EXPECT_DOUBLE_EQ(ts.meanInWindow(seconds(5), seconds(6)), 0.0);
  EXPECT_DOUBLE_EQ(ts.meanInWindow(seconds(1), seconds(1)), 0.0);
}

TEST(Histogram, PercentileMonotonicInQ) {
  Histogram h;
  for (int i = 1; i <= 500; ++i) h.add(usec(i * 3));
  Duration prev = 0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const Duration p = h.percentile(q);
    EXPECT_GE(p, prev) << "percentile not monotonic at q=" << q;
    prev = p;
  }
  EXPECT_LE(h.percentile(0.5), h.percentile(0.99));
  EXPECT_LE(h.percentile(0.99), h.max());
}

TEST(Histogram, PercentileEmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_EQ(h.percentile(1.0), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(TimeWeightedValue, IntegralZeroBeforeFirstSet) {
  TimeWeightedValue v;
  EXPECT_DOUBLE_EQ(v.integralTo(seconds(100)), 0.0);
  EXPECT_DOUBLE_EQ(v.current(), 0.0);
  v.set(seconds(50), 3.0);
  // Time before the first set contributes nothing.
  EXPECT_DOUBLE_EQ(v.integralTo(seconds(60)), 30.0);
}

TEST(FifoLock, GrantsInOrder) {
  FifoLock lock;
  std::vector<int> order;
  EXPECT_TRUE(lock.acquire([&] { order.push_back(0); }));
  lock.acquire([&] { order.push_back(1); });
  lock.acquire([&] { order.push_back(2); });
  EXPECT_EQ(lock.waiters(), 2u);
  lock.release();
  lock.release();
  lock.release();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(lock.held());
}

TEST(FifoLock, ResetClears) {
  FifoLock lock;
  lock.acquire([] {});
  lock.acquire([] { FAIL() << "waiter must not be granted after reset"; });
  lock.reset();
  EXPECT_FALSE(lock.held());
  EXPECT_EQ(lock.waiters(), 0u);
}

// Property: the kernel is deterministic — same seed, same interleaving.
class SimDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimDeterminism, SameSeedSameTrace) {
  auto runOnce = [&](std::uint64_t seed) {
    Simulation sim(seed);
    std::vector<std::uint64_t> trace;
    for (int i = 0; i < 50; ++i) {
      sim.schedule(static_cast<Duration>(sim.rng().uniformInt(1000)) + 1,
                   [&trace, &sim] {
                     trace.push_back(static_cast<std::uint64_t>(sim.now()) ^
                                     sim.rng().next32());
                   });
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(runOnce(GetParam()), runOnce(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimDeterminism,
                         ::testing::Values(1, 42, 1337, 0xdeadbeef));

// ---------------------------------------------------------------------------
// InlineFunction / InlineTask

struct DtorCounter {
  int* ctors;
  int* dtors;
  DtorCounter(int* c, int* d) : ctors(c), dtors(d) { ++*ctors; }
  DtorCounter(const DtorCounter& o) : ctors(o.ctors), dtors(o.dtors) {
    ++*ctors;
  }
  DtorCounter(DtorCounter&& o) noexcept : ctors(o.ctors), dtors(o.dtors) {
    ++*ctors;
  }
  ~DtorCounter() { ++*dtors; }
};

TEST(InlineTask, SmallCaptureStoresInline) {
  int x = 0;
  InlineTask t([&x] { x = 7; });
  EXPECT_TRUE(t.isInline());
  t();
  EXPECT_EQ(x, 7);
}

TEST(InlineTask, LargeCaptureOverflowsToPoolAndStillRuns) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes > kInlineBytes
  big[15] = 99;
  std::uint64_t out = 0;
  InlineTask t([big, &out] { out = big[15]; });
  EXPECT_FALSE(t.isInline());
  t();
  EXPECT_EQ(out, 99u);
}

TEST(InlineTask, MoveTransfersTargetAndEmptiesSource) {
  int calls = 0;
  InlineTask a([&calls] { ++calls; });
  InlineTask b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);

  InlineTask c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(InlineTask, DestroysInlineTargetExactlyOnce) {
  int ctors = 0;
  int dtors = 0;
  {
    DtorCounter probe(&ctors, &dtors);
    InlineTask t([probe] {});
    EXPECT_TRUE(t.isInline());
    InlineTask moved(std::move(t));
    InlineTask assigned;
    assigned = std::move(moved);
  }
  EXPECT_EQ(ctors, dtors);
  EXPECT_GT(dtors, 0);
}

TEST(InlineTask, DestroysOverflowTargetExactlyOnce) {
  int ctors = 0;
  int dtors = 0;
  {
    std::array<std::uint64_t, 16> pad{};
    DtorCounter probe(&ctors, &dtors);
    InlineTask t([probe, pad] {});
    EXPECT_FALSE(t.isInline());
    // Overflow moves are pointer swaps: no extra target copies.
    const int ctorsBeforeMove = ctors;
    InlineTask moved(std::move(t));
    EXPECT_EQ(ctors, ctorsBeforeMove);
    moved.reset();
  }
  EXPECT_EQ(ctors, dtors);
  EXPECT_GT(dtors, 0);
}

TEST(InlineTask, ReassignmentDestroysPreviousTarget) {
  int ctors = 0;
  int dtors = 0;
  DtorCounter probe(&ctors, &dtors);
  InlineTask t([probe] {});
  const int dtorsBefore = dtors;
  t = nullptr;
  EXPECT_EQ(dtors, dtorsBefore + 1);
  EXPECT_FALSE(static_cast<bool>(t));
}

TEST(InlineFunction, ForwardsArgumentsAndReturnValue) {
  InlineFunction<int(int, int)> f([](int a, int b) { return a * 10 + b; });
  EXPECT_EQ(f(3, 4), 34);
}

// ---------------------------------------------------------------------------
// EventHeap

/// Pop the earliest event and run it in its slot, as Simulation does.
void popAndRun(EventHeap& h, SimTime* t) {
  const EventHeap::Item top = h.popTop();
  *t = top.time;
  h.task(top.slot)();
  h.release(top.slot);
}

TEST(EventHeap, PopsInTimeOrder) {
  EventHeap h;
  std::vector<int> order;
  h.push(msec(30), [&order] { order.push_back(30); });
  h.push(msec(10), [&order] { order.push_back(10); });
  h.push(msec(20), [&order] { order.push_back(20); });
  while (!h.empty()) {
    SimTime t = 0;
    popAndRun(h, &t);
  }
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST(EventHeap, EqualTimesPopFifo) {
  EventHeap h;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    h.push(msec(5), [&order, i] { order.push_back(i); });
  }
  while (!h.empty()) {
    SimTime t = 0;
    popAndRun(h, &t);
    EXPECT_EQ(t, msec(5));
  }
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventHeap, CancelInMiddleRemovesEagerlyAndPreservesOrder) {
  EventHeap h;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(h.push(msec(i + 1), [&order, i] { order.push_back(i); }));
  }
  // Cancel every third event, scattered through the middle of the heap.
  for (int i = 2; i < 20; i += 3) {
    EXPECT_TRUE(h.cancel(ids[static_cast<std::size_t>(i)]));
  }
  EXPECT_EQ(h.size(), 20u - 6u);  // removed immediately, not tombstoned
  SimTime prev = 0;
  while (!h.empty()) {
    SimTime t = 0;
    popAndRun(h, &t);
    EXPECT_GE(t, prev);
    prev = t;
  }
  for (int i : order) EXPECT_NE(i % 3, 2);
  EXPECT_EQ(order.size(), 14u);
}

TEST(EventHeap, CancelledIdIsNoOpAfterPopOrSecondCancel) {
  EventHeap h;
  const EventId id = h.push(msec(1), [] {});
  EXPECT_TRUE(h.cancel(id));
  EXPECT_FALSE(h.cancel(id));  // slot generation bumped

  int runs = 0;
  const EventId id2 = h.push(msec(2), [&runs] { ++runs; });
  SimTime t = 0;
  popAndRun(h, &t);
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(h.cancel(id2));  // already ran
}

TEST(EventHeap, SlotReuseInvalidatesStaleIds) {
  EventHeap h;
  const EventId stale = h.push(msec(1), [] {});
  SimTime t = 0;
  popAndRun(h, &t);
  // The freed slot is reused; the stale id must not cancel the new event.
  int runs = 0;
  const EventId fresh = h.push(msec(2), [&runs] { ++runs; });
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(h.cancel(stale));
  EXPECT_EQ(h.size(), 1u);
  popAndRun(h, &t);
  EXPECT_TRUE(h.cancel(fresh) == false);
}

TEST(EventHeap, InterleavedPushPopCancelKeepsOrdering) {
  EventHeap h;
  Rng rng(99);
  std::vector<EventId> live;
  SimTime prev = 0;
  std::uint64_t popped = 0;
  for (int round = 0; round < 2000; ++round) {
    const auto roll = rng.uniformInt(10);
    if (roll < 6 || h.empty()) {
      live.push_back(
          h.push(prev + static_cast<Duration>(rng.uniformInt(5000)), [] {}));
    } else if (roll < 8 && !live.empty()) {
      const std::size_t pick = rng.uniformInt(live.size());
      h.cancel(live[pick]);  // may already have run: no-op then
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      SimTime t = 0;
      popAndRun(h, &t);
      ++popped;
      EXPECT_GE(t, prev);
      prev = t;
    }
  }
  EXPECT_GT(popped, 100u);
}

}  // namespace
}  // namespace rc::sim
