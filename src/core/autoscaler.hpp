#pragma once

#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "sim/stats.hpp"

namespace rc::core {

/// Consecutive intervals beyond a watermark before the autoscaler acts
/// (hysteresis).
inline constexpr int kConfirmTicks = 2;

/// Policy knobs for the coordinator-level resizing loop the paper's SS IX
/// proposes ("a smart approach ... at the coordinator level, which can
/// decide whether to add or remove nodes depending on the workload",
/// pointing at Sierra / Rabbit).
struct AutoscalerParams {
  sim::Duration interval = sim::seconds(2);
  /// Scale up when mean CPU of active servers exceeds this...
  double highWaterCpu = 0.80;
  /// ...and down when it falls below this.
  double lowWaterCpu = 0.42;
  /// Never drain below this many active servers (durability needs
  /// replication targets: keep >= replicationFactor + 1).
  int minActive = 3;
};

/// Watches cluster load and resizes it: drains + suspends servers when
/// demand is low, wakes + rebalances onto them when it is high. One
/// action at a time; tablet migration is the mechanism.
class Autoscaler {
 public:
  Autoscaler(Cluster& cluster, AutoscalerParams params);
  ~Autoscaler();

  void start();
  void stop();

  int scaleUps() const { return scaleUps_; }
  int scaleDowns() const { return scaleDowns_; }
  bool actionInProgress() const { return busy_; }

  /// 1-point-per-interval trace of the active server count (for plots).
  const sim::TimeSeries& activeTrace() const { return activeTrace_; }
  /// Mean CPU of active servers per interval.

 private:
  void tick(sim::SimTime now);
  void scaleDown();
  void scaleUp();
  void rebalanceOnto(int idx);

  Cluster& cluster_;
  AutoscalerParams params_;
  std::unique_ptr<sim::PeriodicTask> task_;
  std::vector<node::CpuScheduler::Snapshot> snaps_;
  bool busy_ = false;
  int hotTicks_ = 0;
  int coldTicks_ = 0;
  int scaleUps_ = 0;
  int scaleDowns_ = 0;
  sim::TimeSeries activeTrace_;
};

}  // namespace rc::core
