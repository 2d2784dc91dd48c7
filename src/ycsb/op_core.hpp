#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "client/ramcloud_client.hpp"
#include "obs/slo_tracker.hpp"
#include "sim/stats.hpp"
#include "ycsb/workload.hpp"

namespace rc::ycsb {

/// Knobs every load driver takes (YcsbClientParams, TrafficSourceParams).
struct LoadParams {
  /// First key id this driver's *inserts* use (workload D). Each driver
  /// must get a disjoint base; Cluster::configureYcsb and
  /// Cluster::configureOpenLoop assign them.
  std::uint64_t insertKeyBase = 1ULL << 40;

  /// Tenant name for SLO attribution ("" = untracked). Ops record into the
  /// tracker's "<tenant>/read" and "<tenant>/update" classes; the driver
  /// also tags its RPCs with the class's dense id + 1 (docs/SLO.md).
  std::string tenant;
};

/// Op variants only the closed loop exposes (YcsbClientParams); the open
/// loop runs the defaults.
struct OpParams {
  /// Keep only keys satisfying this predicate (rejection-sampled). Used by
  /// Fig. 10's "client 1 requests exclusively the killed server's data" /
  /// "client 2 requests the rest". Null = accept all keys.
  std::function<bool(std::uint64_t)> keyPredicate;

  // ----- transactional variant (docs/TRANSACTIONS.md)

  /// Run read-modify-write ops as single-key minitransactions (txRead +
  /// txWrite + txCommit) instead of an unconditioned read-then-write.
  bool transactionalRmw = false;

  /// Proportion of ops (drawn independently of the workload mix) issued as
  /// two-key transactional transfers between distinct "account" keys.
  /// <= 0 disables.
  double transferProportion = 0;

  /// Account keyspace for transfers: keys [transferKeyBase,
  /// transferKeyBase + transferAccounts). Place it outside the workload's
  /// key range when an external checker models the account state (regular
  /// YCSB writes to account keys would look like torn transfers).
  std::uint64_t transferKeyBase = 0;
  std::uint64_t transferAccounts = 16;
};

/// Per-driver op outcomes. The latency histograms run from the op's
/// *origin*: its issue to the client in the closed loop (RPC time, after
/// any throttle wait), its arrival intent in the open loop (all queueing
/// counts: no coordinated omission). SLO latency always runs from intent.
struct YcsbStats {
  std::uint64_t opsCompleted = 0;
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;
  std::uint64_t inserts = 0;
  std::uint64_t readModifyWrites = 0;
  std::uint64_t transfers = 0;      ///< committed two-key transfers
  std::uint64_t txAborted = 0;      ///< definite aborts (clean outcome)
  std::uint64_t txUnknown = 0;      ///< outcomes left to orphan resolution
  std::uint64_t failures = 0;
  sim::Histogram readLatency;
  sim::Histogram updateLatency;  ///< updates, inserts, RMWs and transfers
};

/// What both load drivers do per op: draw it and its key, tag its RPCs with
/// the tenant's SLO class, issue it and account its completion. The drivers
/// keep only their pacing — when the next op is issued.
class OpCore {
 public:
  OpCore(sim::Simulation& sim, client::RamCloudClient& client,
         std::uint64_t tableId, WorkloadSpec spec, LoadParams load,
         OpParams ops, sim::Rng rng);
  // In-flight client callbacks hold `this`.
  OpCore(const OpCore&) = delete;
  OpCore& operator=(const OpCore&) = delete;

  const YcsbStats& stats() const { return stats_; }

  /// Attach the cluster's SLO tracker. Resolves the tenant's classes
  /// ("<tenant>/read", "<tenant>/update") to dense ids once, so the per-op
  /// record path is id-indexed. The classes must already be declared; a
  /// driver with an empty tenant stays untracked.
  void setSloTracker(obs::SloTracker* slo);

  /// Ops issued and not yet settled, abandoned ones included.
  std::uint64_t inFlight() const { return inFlight_; }

  /// Called on every accounted completion: (now, stats latency, isRead).
  std::function<void(sim::SimTime, sim::Duration, bool isRead)> onOpComplete;

  /// Called after every transfer attempt with both account keys and the
  /// commit outcome (kOk = committed, kTxConflict = aborted, other =
  /// unknown), abandoned attempts included. The chaos harness's atomicity
  /// checker hangs off this.
  std::function<void(std::uint64_t keyA, std::uint64_t keyB, net::Status)>
      onTransferComplete;

 protected:
  /// Draw one op and issue it. SLO latency runs from `intent`, the stats
  /// histograms from `origin` (see YcsbStats). `then` runs after the
  /// completion is accounted, unless a newGeneration() came first.
  void issue(sim::SimTime intent, sim::SimTime origin,
             const std::function<void()>& then = {});

  /// Driver start/stop: abandons the ops (and pacing callbacks) of older
  /// generations. Abandoned ops leave inFlight() but are not accounted.
  void newGeneration() { ++generation_; }
  std::uint64_t generation() const { return generation_; }

  sim::Simulation& sim() const { return sim_; }
  sim::Rng& rng() { return rng_; }

 private:
  enum class OpKind { kRead, kUpdate, kInsert, kReadModifyWrite, kTransfer };

  OpKind pickOp();
  std::uint64_t pickKey();
  void account(OpKind op, net::Status status, sim::SimTime intent,
               sim::SimTime origin);

  sim::Simulation& sim_;
  client::RamCloudClient& client_;
  std::uint64_t tableId_;
  WorkloadSpec spec_;
  LoadParams load_;
  OpParams ops_;
  sim::Rng rng_;
  KeyChooser keys_;

  std::uint64_t generation_ = 0;
  std::uint64_t inFlight_ = 0;
  std::uint64_t inserted_ = 0;       ///< completed inserts (keyspace growth)
  std::uint64_t insertsIssued_ = 0;  ///< issued inserts (unique key ids)
  YcsbStats stats_;
  obs::SloTracker* slo_ = nullptr;
  int readClass_ = -1;
  int updateClass_ = -1;
};

}  // namespace rc::ycsb
