#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "sim/inline_task.hpp"

namespace rc::sim {

/// A FIFO mutual-exclusion resource for simulated threads.
///
/// acquire() either grants immediately or queues the continuation; release()
/// grants the head of the queue. The *caller* models what the waiting thread
/// does meanwhile (RAMCloud workers spin, so they stay CPU-busy while
/// queued — that is modelled in the CpuScheduler, not here).
class FifoLock {
 public:
  using Grant = InlineTask;

  /// Returns true if the lock was free and granted synchronously; otherwise
  /// queues `grant` and returns false.
  bool acquire(Grant grant);

  /// Release the lock; the oldest waiter (if any) is granted synchronously.
  void release();

  bool held() const { return held_; }
  std::size_t waiters() const { return waiters_.size(); }

  /// Total acquisitions, for contention stats.
  std::uint64_t acquisitions() const { return acquisitions_; }

  /// Drop all waiters without granting (used when a node crashes).

  /// Crash reset: lock free, no waiters.
  void reset() {
    held_ = false;
    waiters_.clear();
  }

 private:
  bool held_ = false;
  std::deque<Grant> waiters_;
  std::uint64_t acquisitions_ = 0;
};

}  // namespace rc::sim
