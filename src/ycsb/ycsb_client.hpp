#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "sim/token_bucket.hpp"
#include "ycsb/op_core.hpp"

namespace rc::ycsb {

/// Relative jitter on the closed loop's per-op client overhead (uniform in
/// [1-j, 1+j]); breaks the phase-lock a deterministic closed loop would
/// otherwise exhibit.
inline constexpr double kClientOverheadJitter = 0.25;

/// Closed-loop pacing knobs on top of the op core's.
struct YcsbClientParams : LoadParams, OpParams {
  /// Ops to issue; 0 = run until stop().
  std::uint64_t opsTarget = 0;

  /// Client-side per-op processing cost (YCSB's Java-side work: key
  /// generation, marshalling, stats). Bounds the per-client rate exactly
  /// as in the paper, where 30 clients saturate around ~1 Mop/s (Fig. 1a).
  sim::Duration clientOverheadPerOp = sim::usec(26);

  /// Fig. 13's client-level throttle; <= 0 disables.
  double throttleOpsPerSec = 0;
};

/// A closed-loop YCSB client instance (one per client node, as the paper
/// runs exactly one YCSB process per machine): each op is issued a jittered
/// client overhead after the previous one completes. SLO latency runs from
/// op *intent*, before any token-bucket throttle wait, so an over-admitted
/// throttled tenant visibly burns its budget.
class YcsbClient : private OpCore {
 public:
  YcsbClient(sim::Simulation& sim, client::RamCloudClient& client,
             std::uint64_t tableId, WorkloadSpec spec, YcsbClientParams params,
             sim::Rng rng);

  void start();
  void stop();

  bool done() const {
    return params_.opsTarget > 0 && stats().opsCompleted >= params_.opsTarget;
  }

  using OpCore::onOpComplete;
  using OpCore::onTransferComplete;
  using OpCore::setSloTracker;
  using OpCore::stats;

  /// Called once when opsTarget is reached.
  std::function<void()> onDone;

  /// Fault hook (FaultPlan kLoadSurge): multiply this client's arrival
  /// rate by `factor` until `d` from now, by dividing the closed loop's
  /// per-op client overhead. Overlapping surges keep the larger factor
  /// and the later deadline.
  void applyLoadSurge(double factor, sim::Duration d) {
    surgeFactor_ = std::max(surgeFactor_, factor);
    surgeUntil_ = std::max(surgeUntil_, sim().now() + d);
  }
  bool surging() const {
    return surgeFactor_ > 1.0 && sim().now() < surgeUntil_;
  }

 private:
  void issueNext();
  void afterOp();

  YcsbClientParams params_;
  sim::TokenBucket bucket_;

  bool running_ = false;
  double surgeFactor_ = 1.0;      ///< kLoadSurge arrival-rate multiplier
  sim::SimTime surgeUntil_ = 0;   ///< surge window end (absolute)
};

}  // namespace rc::ycsb
