#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/event_heap.hpp"
#include "sim/inline_task.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace rc::sim {

/// Deterministic discrete-event simulation kernel.
///
/// Events are (time, callback) pairs executed in nondecreasing time order;
/// ties are broken by scheduling order, which makes runs fully deterministic.
/// Callbacks are InlineTasks constructed directly in the event heap's slot
/// arena and run there; cancellation removes an event eagerly in O(log n).
///
/// Subsystems that keep their own time-ordered work off the heap (RPC
/// deadline queues, worker spin-ends) take a seq with reserveSeq() where
/// they would have scheduled an event, and use hasHappened() or
/// scheduleAtSeq() to act at exactly the point in the (time, seq) order
/// that event would have run.
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedule `cb` to run `delay` from now (delay < 0 is clamped to 0).
  template <typename F>
  EventId schedule(Duration delay, F&& cb) {
    if (delay < 0) delay = 0;
    return heap_.push(now_ + delay, std::forward<F>(cb));
  }

  /// Schedule `cb` at absolute time `t` (clamped to now if in the past).
  template <typename F>
  EventId scheduleAt(SimTime t, F&& cb) {
    if (t < now_) t = now_;
    return heap_.push(t, std::forward<F>(cb));
  }

  /// Take the seq the next schedule() would use, without scheduling.
  std::uint64_t reserveSeq() { return heap_.reserveSeq(); }

  /// Schedule `cb` at (t, seq), where `seq` came from reserveSeq() and
  /// (t, seq) is still ahead of the running event: it runs exactly where
  /// an event scheduled at reservation time would have.
  template <typename F>
  EventId scheduleAtSeq(SimTime t, std::uint64_t seq, F&& cb) {
    return heap_.pushAtSeq(t, seq, std::forward<F>(cb));
  }

  /// True if an event keyed (t, seq) would already have run: it sorts
  /// before the running event. Between runs every event up to now() has
  /// run (unless stop() cut the last run short), so only t <= now counts.
  bool hasHappened(SimTime t, std::uint64_t seq) const {
    return t < now_ || (t == now_ && seq < curSeq_);
  }

  /// Cancel a pending event. Cancelling an already-run or invalid id is a
  /// harmless no-op.
  void cancel(EventId id);

  /// Run events until the queue is empty or `stop()` is called.
  /// Returns the number of events executed.
  std::uint64_t run();

  /// Run events with time <= t, then set now() = t (if not stopped earlier).
  /// Returns the number of events executed.
  std::uint64_t runUntil(SimTime t);

  /// Convenience: runUntil(now() + d).
  std::uint64_t runFor(Duration d) { return runUntil(now_ + d); }

  /// Request that the current run()/runUntil() return after the current
  /// event. The next run() or runUntil() resumes where it stopped.
  void stop() { stopped_ = true; }

  bool stopped() const { return stopped_; }

  /// Number of events still pending. Cancelled events are removed eagerly,
  /// so they never count here.
  std::size_t pendingEvents() const { return heap_.size(); }

  /// Total events executed since construction.
  std::uint64_t eventsExecuted() const { return executed_; }

  /// Root random generator for this simulation.
  Rng& rng() { return rng_; }

 private:
  static constexpr std::uint64_t kAfterAll = ~std::uint64_t{0};

  bool popAndRunOne(SimTime limit);
  void endRun() {
    if (!stopped_) curSeq_ = kAfterAll;
  }

  SimTime now_ = 0;
  /// Seq of the running event, or kAfterAll once a run has finished every
  /// event up to now().
  std::uint64_t curSeq_ = kAfterAll;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  EventHeap heap_;
  Rng rng_;
};

/// Repeats a callback at a fixed interval until cancelled or destroyed.
/// The callback runs first at `start + interval`.
class PeriodicTask {
 public:
  PeriodicTask(Simulation& sim, Duration interval,
               std::function<void(SimTime)> fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void cancel();
  bool active() const { return active_; }

 private:
  void arm();

  Simulation& sim_;
  Duration interval_;
  std::function<void(SimTime)> fn_;
  EventId pending_ = kInvalidEvent;
  bool active_ = true;
};

}  // namespace rc::sim
