#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coordinator/tablet_map.hpp"
#include "net/rpc.hpp"
#include "node/node.hpp"
#include "obs/event_journal.hpp"
#include "server/common.hpp"
#include "server/recovery_plan.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace rc::coordinator {

/// Failure detector: the coordinator pings every enlisted server at this
/// cadence and declares one dead after kMissesBeforeDead straight misses.
inline constexpr sim::Duration kPingInterval = sim::msec(100);
inline constexpr int kMissesBeforeDead = 3;
/// Coordinator-side verification + scheduling latency before a recovery
/// actually starts (the paper's "check whether that server truly
/// crashed ... schedule a recovery").
inline constexpr sim::Duration kRecoverySetupDelay = sim::msec(50);

struct CoordinatorParams {
  /// Client-lease term (RIFL). A client that fails to renew within the term
  /// loses its duplicate-suppression state cluster-wide; clients renew at
  /// term/4 so a single lost renewal cannot expire a healthy client.
  sim::Duration leaseTerm = sim::seconds(30);
  /// Cadence of the expiry sweep that drops dead leases (and journals
  /// lease_expire events masters key their reclamation off).
  sim::Duration leaseSweepInterval = sim::seconds(1);
};

/// Record of one completed (or failed) master recovery.
struct RecoveryRecord {
  server::ServerId crashed = node::kInvalidNode;
  sim::SimTime detectedAt = 0;
  sim::SimTime finishedAt = 0;
  int partitions = 0;
  int partitionRetries = 0;
  bool succeeded = false;

  sim::Duration duration() const { return finishedAt - detectedAt; }
};

/// The RAMCloud coordinator: server list, tablet map, failure detection and
/// crash-recovery orchestration.
class Coordinator : public net::RpcService {
 public:
  Coordinator(node::Node& node, net::RpcSystem& rpc,
              const server::ServiceDirectory& directory,
              obs::EventJournal& journal, CoordinatorParams params,
              sim::Rng rng);

  void handleRpc(const net::RpcRequest& req, node::NodeId from,
                 Responder respond) override;

  // ----- cluster setup

  void enlistServer(server::ServerId id);

  /// Create a table spanning `serverSpan` masters (the paper's ServerSpan
  /// option: uniform manual distribution). Returns the table id. Throws
  /// std::length_error, creating nothing, once ids reach log::kMaxTableId.
  std::uint64_t createTable(const std::string& name, int serverSpan);

  const TabletMap& tabletMap() const { return map_; }

  // ----- failure handling

  void startFailureDetector();
  void stopFailureDetector();

  // ----- client leases (docs/LINEARIZABILITY.md)

  /// Is this client id's lease still valid *now*? Masters consult this on
  /// every tracked RPC and during their reclamation sweeps.
  bool leaseValid(std::uint64_t clientId) const;

  std::size_t activeLeases() const { return leases_.size(); }
  std::uint64_t leasesIssued() const { return leasesIssued_; }
  std::uint64_t leaseRenewals() const { return leaseRenewals_; }
  std::uint64_t leasesExpired() const { return leasesExpired_; }

  // ----- cluster resizing (SS IX: tablet migration + node add/remove)

  /// Move `tablet` (must match an existing map entry exactly) to `dest`.
  /// `done(ok)` fires after the map has been flipped.
  void migrateTablet(const server::Tablet& tablet, server::ServerId dest,
                     std::function<void(bool)> done);

  /// Gracefully remove an *empty* server from the cluster (no recovery is
  /// triggered). Returns false while the server still owns tablets.
  bool decommissionServer(server::ServerId id);

  /// Declare a server dead (the detector calls this; tests/harness may
  /// call it directly to skip detection latency).
  void onServerDead(server::ServerId id);

  server::RecoveryPlanPtr planById(std::uint64_t id) const;

  bool recoveryInProgress() const { return !activeRecoveries_.empty(); }
  const std::vector<RecoveryRecord>& recoveryLog() const {
    return recoveryLog_;
  }

  // ----- minitransaction orphan resolution (docs/TRANSACTIONS.md)

  std::uint64_t txResolutionsStarted() const { return txResolutionsStarted_; }
  std::uint64_t txResolutionsCommitted() const {
    return txResolutionsCommitted_;
  }
  std::uint64_t txResolutionsAborted() const { return txResolutionsAborted_; }
  std::uint64_t txResolutionsAbandoned() const {
    return txResolutionsAbandoned_;
  }
  bool txResolutionInProgress() const { return !activeTxResolutions_.empty(); }

  /// Harness hooks.
  std::function<void(server::ServerId)> onCrashDetected;
  std::function<void(const RecoveryRecord&)> onRecoveryFinished;
  /// Fires when a recovery is admitted (before the setup delay): the
  /// fault injector uses it for "during recovery N" trigger conditions.
  std::function<void(std::uint64_t recoveryId, server::ServerId crashed)>
      onRecoveryStarted;

 private:
  struct ActiveRecovery {
    std::uint64_t recoveryId = 0;
    server::ServerId crashed = node::kInvalidNode;
    sim::SimTime detectedAt = 0;
    std::vector<bool> partitionDone;
    std::vector<server::PartitionSpec> partitions;  ///< global partition specs
    std::unordered_map<std::uint64_t, int>
        planPartitionBase;  ///< planId -> partition-index offset (0 for the
                            ///< initial plan; retries get 1-partition plans)
    std::vector<server::ServerId> partitionOwner;
    int remaining = 0;
    int retries = 0;

    // Journal spans (lookupSpan is 0 once closed).
    std::uint64_t rootSpan = 0;
    std::uint64_t lookupSpan = 0;
  };

  struct ActiveMigration {
    server::Tablet tablet;
    server::ServerId from = node::kInvalidNode;
    server::ServerId to = node::kInvalidNode;
    std::function<void(bool)> done;
  };
  void onMigrationDone(const net::RpcRequest& req);

  void sweepLeases();

  /// Cooperative termination for an orphaned minitransaction: query every
  /// participant's vote, derive the Sinfonia decision (any committed →
  /// commit; all prepared → commit; any no-vote/aborted → abort), fan the
  /// decision out. Abandons (and lets the participant sweep re-request) on
  /// any unreachable participant.
  void startTxResolution(
      std::uint64_t txId, std::uint64_t txClient,
      std::vector<std::pair<std::uint64_t, std::uint64_t>> participants);

  void pingAll();
  void onPingMiss(server::ServerId id);
  void beginRecovery(server::ServerId id);
  void buildAndStartPlan(ActiveRecovery& rec);
  server::RecoveryPlanPtr buildPlan(
      ActiveRecovery& rec, const std::vector<int>& partitionsToRun,
      const std::vector<server::ServerId>& masters);
  void onRecoveryDone(std::uint64_t planId, int planPartition, bool failed);
  void retryPartition(ActiveRecovery& rec, int globalPartition);
  void finishRecovery(ActiveRecovery& rec, bool success);

  node::Node& node_;
  net::RpcSystem& rpc_;
  const server::ServiceDirectory& directory_;
  /// The cluster's event journal: the coordinator emits the root "recovery"
  /// span plus failure_detection / will_lookup / partition_assignment /
  /// tablet_remap children for every recovery, and ownership_transfer
  /// events for migrations.
  obs::EventJournal& journal_;
  CoordinatorParams params_;
  sim::Rng rng_;

  std::vector<server::ServerId> up_;
  std::unordered_map<server::ServerId, int> pingMisses_;
  /// Open "failure_detection" span per suspected server: begins at the
  /// first missed ping, ends at declared-dead (and is linked under the
  /// recovery root), abandoned if the server answers again.
  std::unordered_map<server::ServerId, obs::EventJournal::SpanId>
      detectSpans_;
  TabletMap map_;
  std::uint64_t nextTableId_ = 1;
  std::uint64_t nextPlanId_ = 1;
  std::uint64_t nextRecoveryId_ = 1;
  std::map<std::string, std::uint64_t> tablesByName_;

  std::unordered_map<std::uint64_t, server::RecoveryPlanPtr> plans_;
  /// planId -> recoveryId
  std::unordered_map<std::uint64_t, std::uint64_t> planRecovery_;
  std::unordered_map<std::uint64_t, ActiveRecovery> activeRecoveries_;
  std::vector<RecoveryRecord> recoveryLog_;
  std::vector<ActiveMigration> activeMigrations_;

  std::unique_ptr<sim::PeriodicTask> detector_;

  /// clientId -> lease expiry time. The sweep drops expired entries.
  std::unordered_map<std::uint64_t, sim::SimTime> leases_;
  std::uint64_t nextClientId_ = 1;
  std::uint64_t leasesIssued_ = 0;
  std::uint64_t leaseRenewals_ = 0;
  std::uint64_t leasesExpired_ = 0;
  std::unique_ptr<sim::PeriodicTask> leaseSweep_;

  /// txIds currently being resolved — dedups the participant sweeps' many
  /// concurrent kTxResolve requests for the same transaction.
  std::set<std::uint64_t> activeTxResolutions_;
  std::uint64_t txResolutionsStarted_ = 0;
  std::uint64_t txResolutionsCommitted_ = 0;
  std::uint64_t txResolutionsAborted_ = 0;
  std::uint64_t txResolutionsAbandoned_ = 0;
};

}  // namespace rc::coordinator
