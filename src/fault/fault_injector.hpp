#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "node/node.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace rc::core {
class Cluster;
}

namespace rc::fault {

/// Drives a FaultPlan against a live Cluster, deterministically.
///
/// All injection state rides on the cluster's single discrete-event clock:
/// timed events are scheduled at exact sim times, conditional events hang
/// off the coordinator's onRecoveryStarted hook, and every stochastic
/// decision (which frame to drop, whether a message is lost) draws from the
/// injector's own forked Rng — so the same plan + seed replays the same
/// fault sequence bit-for-bit, independent of workload randomness.
///
/// Network faults funnel through one Network fault filter installed at
/// arm(): an ordered list of link rules (loss probability, extra latency,
/// partitions as loss=1.0) matched bidirectionally against (from, to).
/// Rules are removed when their duration elapses.
class FaultInjector {
 public:
  /// One line of the what-actually-happened ledger, for assertions.
  struct Injection {
    sim::SimTime at = 0;
    FaultKind kind = FaultKind::kCrashServer;
    int server = -1;  ///< -1 for cluster-wide (network) faults
    std::string tag;
  };

  FaultInjector(core::Cluster& cluster, FaultPlan plan, sim::Rng rng);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Install hooks and schedule the plan. Call once, before sim.run().
  void arm();

  const std::vector<Injection>& injections() const { return injections_; }
  int crashesInjected() const { return crashes_; }
  std::size_t activeNetworkRules() const { return rules_.size(); }

 private:
  struct LinkRule {
    std::uint64_t id = 0;
    std::vector<node::NodeId> a;  ///< empty = match any node
    std::vector<node::NodeId> b;  ///< empty = match any node
    double loss = 0;
    sim::Duration extra = 0;
    /// false: match (a,b) in either direction. true: only a -> b — used by
    /// kReplyDrop so requests get through while replies vanish.
    bool directional = false;
  };

  void scheduleEvent(const FaultEvent& ev);
  void fire(const FaultEvent& ev);
  void record(const FaultEvent& ev);

  void fireCrash(const FaultEvent& ev);
  void fireNetwork(const FaultEvent& ev);
  void removeRule(std::uint64_t ruleId);

  /// Install the Network fault filter only while link rules exist. Every
  /// message otherwise pays a filter call that scans an empty rule list —
  /// with no rule armed the filter draws no randomness, so adding and
  /// removing it as rules come and go is draw-order-identical.
  void syncFilter();
  void fireDisk(const FaultEvent& ev);
  void fireFrames(const FaultEvent& ev);
  void fireCpu(const FaultEvent& ev);
  void restoreCpu(int serverIdx);
  void fireClientStall(const FaultEvent& ev);
  void fireCrashBeforeReply(const FaultEvent& ev);
  void fireLoadSurge(const FaultEvent& ev);

  /// Map the event's setA/setB (server indexes; empty A -> {ev.server},
  /// empty B -> wildcard) to node ids.
  std::vector<node::NodeId> resolveSet(const std::vector<int>& set,
                                       int fallbackServer) const;

  void journalEvent(const FaultEvent& ev, const char* prefix);

  core::Cluster& cluster_;
  FaultPlan plan_;
  sim::Rng rng_;
  bool armed_ = false;
  bool filterInstalled_ = false;

  std::vector<LinkRule> rules_;
  std::uint64_t nextRuleId_ = 1;

  /// Workers stolen per server index for kCpuThrottle (count still held).
  struct Throttle {
    int serverIdx = -1;
    std::vector<int> heldWorkers;
    std::uint64_t epoch = 0;
  };
  std::vector<Throttle> throttles_;

  std::vector<Injection> injections_;
  int crashes_ = 0;
  int recoveriesSeen_ = 0;
};

}  // namespace rc::fault
