#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "load/arrival.hpp"
#include "ycsb/op_core.hpp"

namespace rc::load {

/// Open-loop pacing knobs on top of the shared ones.
struct TrafficSourceParams : ycsb::LoadParams {
  TrafficShape shape;

  /// Generator batching (docs/WORKLOADS.md): arrival *issue* times are
  /// rounded up to this quantum, so one wakeup event issues every arrival
  /// in the quantum — the per-request heap cost is amortized to
  /// ~1/(rate*quantum) events. Intent timestamps keep the exact drawn
  /// arrival times, so the sub-quantum issue delay is charged as honest
  /// open-loop queueing in the SLO numbers. <= 0 paces per arrival.
  sim::Duration batchQuantum = sim::usec(100);
};

/// An open-loop population load generator: one simulated object standing in
/// for shape.users modeled users. Arrivals are drawn in batches from the
/// ArrivalProcess and issued through the host's RamCloudClient with no
/// regard for completions — latency is measured from arrival *intent*, so
/// queueing during overload is visible (no coordinated omission).
class TrafficSource : private ycsb::OpCore {
 public:
  TrafficSource(sim::Simulation& sim, client::RamCloudClient& client,
                std::uint64_t tableId, ycsb::WorkloadSpec spec,
                TrafficSourceParams params, sim::Rng rng);

  void start();
  void stop();

  /// Completed/failed op counts and *intent-time* latency histograms
  /// (unlike the closed-loop client's RPC-time histograms).
  using OpCore::stats;
  using OpCore::setSloTracker;
  using OpCore::inFlight;

  /// Fault hook (FaultPlan kLoadSurge): superpose a flash crowd of
  /// `factor` x the current rate for `d` from now.
  void applyLoadSurge(double factor, sim::Duration d) {
    process_.addCrowd({sim().now(), d, factor});
  }

  double offeredRate() const { return process_.rateAt(sim().now()); }

  // Generator accounting (the o(1)-events-per-request evidence).
  std::uint64_t arrivalsGenerated() const { return arrivalsGenerated_; }
  std::uint64_t wakeups() const { return wakeups_; }
  std::uint64_t sourceDropped() const { return sourceDropped_; }

 private:
  /// How far past the cursor one drawRun may generate. Bounds how stale a
  /// pre-drawn arrival can be relative to a runtime rate change (surge).
  static constexpr sim::Duration kMaxHorizon = sim::msec(1);
  static constexpr std::size_t kMaxBatch = 4096;  ///< arrivals per drawRun
  /// Safety valve: arrivals beyond this many outstanding ops are dropped at
  /// the source (counted in sourceDropped()) instead of growing client
  /// state without bound during a collapse.
  static constexpr std::uint64_t kMaxInFlight = 200'000;

  void onWake();
  void scheduleWake();
  void refill();

  TrafficSourceParams params_;
  ArrivalProcess process_;

  bool running_ = false;
  std::deque<sim::SimTime> pending_;  ///< drawn arrivals not yet issued
  std::vector<sim::SimTime> runBuf_;
  sim::SimTime cursor_ = 0;  ///< generation frontier (arrivals drawn <=)

  std::uint64_t arrivalsGenerated_ = 0;
  std::uint64_t wakeups_ = 0;
  std::uint64_t sourceDropped_ = 0;
};

}  // namespace rc::load
