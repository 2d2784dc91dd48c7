#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hash/object_map.hpp"
#include "log/cleaner.hpp"
#include "log/log.hpp"
#include "net/rpc.hpp"
#include "node/node.hpp"
#include "obs/event_journal.hpp"
#include "obs/metric_registry.hpp"
#include "obs/time_trace.hpp"
#include "server/common.hpp"
#include "server/dispatch.hpp"
#include "server/migration.hpp"
#include "server/recovery_plan.hpp"
#include "server/replica_manager.hpp"
#include "server/tx_lock_table.hpp"
#include "server/unacked_rpc_results.hpp"
#include "sim/fifo_lock.hpp"
#include "sim/stats.hpp"

namespace rc::server {

class RecoveryTask;

/// Calibration of the master data path, fitted to the paper's measurements
/// on the Nancy nodes (see DESIGN.md §4 and EXPERIMENTS.md for the
/// derivation of each constant).

/// RAMCloud's log-sync/scheduling overhead on the update path when
/// replication is off. Calibrated from Table II (workload A at 10
/// clients); the paper attributes it to thread handling ("this issue was
/// confirmed by RAMCloud developers" — the nanoscheduling problem).
inline constexpr sim::Duration kUnreplicatedSyncTime = sim::usec(90);

/// Thread-handling cost an update pays under concurrency: each update's
/// sync is stretched by kConvoyPenaltyUs * sqrt(S), where S is the number
/// of distinct request streams (clients) seen in the last
/// kConcurrencyWindow. Models the paper's "poor thread handling under
/// highly-concurrent accesses" (futile context switches / wakeups) and
/// produces Table II's peak-then-decline for workload A. Calibrated on
/// Table II rows at 10/20/90 clients.
inline constexpr double kConvoyPenaltyUs = 11.0;
inline constexpr sim::Duration kConcurrencyWindow = sim::msec(50);

/// Tombstone append CPU for remove operations.
inline constexpr sim::Duration kRemoveServiceTime = sim::usec(20);

/// Recovery replay: CPU per entry re-inserted (hash + log, batched).
inline constexpr sim::Duration kReplayPerEntryCpu = sim::nsec(1200);
/// Entries replayed per worker task; small enough that live reads can
/// interleave (their 1.4-2.4x latency bump during recovery, Fig. 10).
inline constexpr int kReplayChunkEntries = 64;
/// Concurrent segment fetches a recovery master keeps outstanding.
inline constexpr int kRecoveryFetchWindow = 3;
/// Sealed-but-unacked replay segments tolerated before replay pauses
/// (RAMCloud recovers with bounded un-replicated state).
inline constexpr int kRecoveryMaxUnackedSegments = 1;

/// Log-cleaner pass overhead and per-relocated-byte CPU.
inline constexpr sim::Duration kCleanerPassCpu = sim::usec(500);
inline constexpr double kCleanerPerByteCpuNs = 0.3;

/// Per-object log metadata footprint added to the value size.
inline constexpr std::uint32_t kObjectOverheadBytes = 100;
inline constexpr std::uint32_t kTombstoneBytes = 60;
/// In-log footprint of a RIFL completion record (compact: clientId, seq,
/// status, version — docs/LINEARIZABILITY.md).
inline constexpr std::uint32_t kCompletionRecordBytes = 32;
/// Cadence of the sweep that drops duplicate-suppression state for
/// clients whose coordinator lease expired.
inline constexpr sim::Duration kLeaseReclaimInterval = sim::seconds(1);

/// Hard memory ceiling for the overload cleaner deferral: while the node
/// is shedding, cleaner passes are skipped *until* memoryInUse exceeds
/// this fraction of log capacity — past it, reclaiming segments beats
/// admission (docs/OVERLOAD.md degradation ladder).
inline constexpr double kCleanerDeferUtilization = 0.9;

/// The settable part of the master's configuration.
struct MasterParams {
  /// Worker CPU per read (hash lookup + reply marshalling). 3 workers at
  /// 8 us give the single-server read ceiling of ~372 Kop/s (Fig. 1a).
  sim::Duration readServiceTime = sim::usec(8);

  /// Worker CPU for the in-memory part of a write: hash-table update plus
  /// log append bookkeeping, under the append lock.
  sim::Duration writeAppendCpu = sim::usec(25);

  /// Log-cleaner victim policy.
  log::CleanerPolicy cleanerPolicy = log::CleanerPolicy::kCostBenefit;

  log::LogParams log;
  ReplicationParams replication;
};

struct MasterStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t removes = 0;
  std::uint64_t missingKeys = 0;
  std::uint64_t unknownTablet = 0;
  std::uint64_t cleanerRuns = 0;
  std::uint64_t replicationFailures = 0;
  std::uint64_t shedRequests = 0;      ///< bounced with kOverloaded
  std::uint64_t cleanerDeferrals = 0;  ///< cleaner passes skipped for load
  sim::Histogram readServiceLatency;   ///< dispatch-arrival to reply
  sim::Histogram writeServiceLatency;
};

/// The storage server: tablets, hash index, log-structured memory,
/// replication, cleaning, and crash-recovery replay.
class MasterService : public net::RpcService {
 public:
  MasterService(node::Node& node, Dispatch& dispatch, net::RpcSystem& rpc,
                const ServiceDirectory& directory, obs::EventJournal& journal,
                obs::TimeTrace& trace, MasterParams params,
                std::function<RecoveryPlanPtr(std::uint64_t)> planLookup,
                node::NodeId coordinatorNode, sim::Rng rng);
  ~MasterService() override;

  void handleRpc(const net::RpcRequest& req, node::NodeId from,
                 Responder respond) override;

  /// Process kill: drops queued work, forgets in-flight operations and
  /// aborts any recovery replay in progress.
  void crash();

  // ----- setup / control plane

  void addTablet(const Tablet& t);
  const std::vector<Tablet>& tablets() const { return tablets_; }
  bool ownsKey(std::uint64_t tableId, std::uint64_t keyId) const;

  /// Event-free data loading (the paper's unmeasured YCSB load phase).
  /// Fills log + hash table; replica frames are installed afterwards with
  /// installReplicasAfterBulkLoad().
  void bulkInsert(std::uint64_t tableId, std::uint64_t keyId,
                  std::uint32_t valueBytes);

  /// Install backup frames (sealed segments flushed to disk, open head
  /// buffered) matching the replica placements chosen during bulk load.
  void installReplicasAfterBulkLoad();

  /// Begin replaying one partition of a crashed master's data.
  void startRecovery(RecoveryPlanPtr plan, int partitionIndex);

  // ----- tablet migration (SS IX cluster resizing)

  /// Begin migrating one of this master's tablets to `destination`.
  void startMigration(const Tablet& tablet, node::NodeId destination);

  /// True while (tableId, hash) is inside a range being migrated away —
  /// writes are bounced so the snapshot stays consistent.
  bool isMigratingRange(std::uint64_t tableId, std::uint64_t hash) const;

  /// Content side-channel for kMigrationData: the destination collects the
  /// announced batch.
  std::vector<log::LogEntry> takeMigrationBatch(std::uint64_t batchId);

  /// Used by MigrationTask at completion.
  void dropObjectForMigration(const hash::Key& k);
  void removeTablet(const Tablet& t);
  void onMigrationTaskFinished(MigrationTask* task);
  std::size_t activeMigrations() const { return migrations_.size(); }

  // ----- introspection

  std::shared_ptr<const log::Segment> findSegment(log::SegmentId id) const;
  const hash::ObjectMap& objectMap() const { return map_; }
  log::Log& log() { return log_; }
  const log::Log& log() const { return log_; }
  ReplicaManager& replicaManager() { return replicaMgr_; }
  const log::LogCleaner& cleaner() const { return cleaner_; }
  const MasterStats& stats() const { return stats_; }
  const MasterParams& params() const { return params_; }
  node::Node& node() { return node_; }
  net::RpcSystem& rpc() { return rpc_; }
  const ServiceDirectory& directory() const { return directory_; }
  node::NodeId coordinatorNode() const { return coordinator_; }
  std::size_t activeRecoveries() const { return recoveries_.size(); }
  std::size_t logLockWaiters() const { return logLock_.waiters(); }

  // ----- exactly-once (RIFL) support

  UnackedRpcResults& unackedRpcResults() { return unacked_; }
  const UnackedRpcResults& unackedRpcResults() const { return unacked_; }

  // ----- minitransactions (docs/TRANSACTIONS.md)

  TxLockTable& txLockTable() { return txLocks_; }
  const TxLockTable& txLockTable() const { return txLocks_; }

  /// Recovery replay / migration install: a kTxPrepare record without a
  /// matching kTxDecision resurfaced — re-install the version lock so the
  /// orphan-resolution sweep (or the still-live client) can finish the tx.
  /// Returns false when the object is already locked by a different tx
  /// (the caller decides what to do with the spare record).
  bool installRecoveredTxLock(const log::LogEntry& prepare,
                              const log::LogRef& ref, bool ownedByUnacked);

  /// Mark dead the kCompletion log entries freed by watermark advance,
  /// lease reclamation or migration handoff, so the cleaner reclaims them.
  void releaseCompletionRecords(const std::vector<log::LogRef>& freed);

  /// Fault hook (FaultPlan crash_before_reply): the next successful
  /// tracked-or-untracked write completes durably — object and completion
  /// record replicated — but the reply never leaves the node; `hook` runs
  /// instead (the injector crashes the server from it).
  void armCrashBeforeReply(std::function<void()> hook) {
    crashBeforeReplyHook_ = std::move(hook);
  }

  // ----- observability

  obs::EventJournal& journal() { return journal_; }

  /// Register this master's counters and service histograms under `prefix`
  /// (e.g. "node3.master").
  void registerMetrics(obs::MetricRegistry& reg, const std::string& prefix);

 private:
  friend class RecoveryTask;

  struct ApplyResult {
    log::LogRef ref;
    std::uint64_t version = 0;
    std::uint32_t entryBytes = 0;
  };

  /// Wrap a continuation so it dies with the process.
  template <typename F>
  auto guard(F f) {
    return [this, e = node_.cpu().epoch(),
            f = std::move(f)](auto&&... args) mutable {
      if (node_.cpu().epoch() == e && node_.cpu().poweredOn()) {
        f(std::forward<decltype(args)>(args)...);
      }
    };
  }

  /// Distinct request streams seen within kConcurrencyWindow.
  int concurrentStreams() const;
  void noteStream(node::NodeId from);

  /// Stamp a pipeline stage against the request's span, annotated with the
  /// dispatch queue depth *at stamp time* and this node's id — that pair is
  /// what lets rcdiag decompose an exemplar into "waited behind N requests
  /// on node M" (docs/SLO.md).
  void stampTrace(std::uint64_t span, obs::TimeTrace::Stage stage) {
    if (span != 0) {  // 0 = an untraced RPC
      trace_.stamp(span, stage,
                   static_cast<std::int32_t>(dispatch_.queueDepth()),
                   static_cast<std::int32_t>(node_.id()));
    }
  }

  /// Per-tablet op-rate "heat", keyed (tableId, startKeyHash). Registered
  /// as tablet.heat.* probes so the stats sampler exposes load skew to the
  /// (future) autoscaler/rebalancer; migration keeps counters with the
  /// tablet's new owner starting from zero.
  struct TabletHeat {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    bool registered = false;
  };
  const Tablet* tabletFor(std::uint64_t tableId, std::uint64_t hash) const;
  void noteTabletOp(std::uint64_t tableId, std::uint64_t hash, bool isWrite);
  void registerTabletHeat(std::uint64_t tableId, std::uint64_t startHash,
                          TabletHeat& heat);

  /// One data-plane RPC from its dispatch-thread admission to its reply:
  /// a mutation (write, remove, tx prepare, tx decision) or a read (read,
  /// read-only tx validation).
  struct Request {
    net::Opcode op = net::Opcode::kWrite;
    std::uint64_t tableId = 0;
    std::uint64_t keyId = 0;
    std::uint32_t valueBytes = 0;
    std::uint64_t expected = 0;    ///< conditional version (0 = blind)
    std::uint64_t txId = 0;
    bool commit = false;           ///< tx decision: commit (else abort)
    bool fromResolution = false;   ///< tx decision sent by orphan resolution
    log::TxParticipants participants;
    std::uint64_t clientId = 0;    ///< 0 = untracked (no exactly-once)
    std::uint64_t rpcSeq = 0;
    std::uint64_t firstUnacked = 0;
    std::uint64_t span = 0;
    std::uint16_t tenant = 0;
    sim::SimTime arrival = 0;
    Responder respond;
  };
  using RequestPtr = std::shared_ptr<Request>;

  /// What a commit body did under the log lock.
  struct Outcome {
    enum class Kind {
      kApplied,  ///< entries appended; reply once they are durable
      kRefused,  ///< durable refusal: only a RIFL record (if tracked)
      kRetry,    ///< nothing appended; the RIFL entry rolls back
    };
    Kind kind = Kind::kApplied;
    net::RpcResponse reply;      ///< status, a, b of the durable outcome
    bool found = true;           ///< RIFL result's found flag
    log::LogRef record;          ///< RIFL record (completion/prepare/decision)
    log::SegmentId segment = log::kInvalidSegment;  ///< holds the entries
    std::uint64_t bytes = 0;     ///< appended bytes to sync; 0 = reply now
    bool counted = true;         ///< booked to writes/removes
    bool crashPoint = false;     ///< crash_before_reply may fire here
    std::uint64_t journalSpan = 0;
  };
  using Body = Outcome (MasterService::*)(Request&);

  /// Dispatch-thread admission: dispatch-wait stamp, tablet ownership,
  /// migration fence, tablet heat, RIFL lease and duplicate check. Replies
  /// and returns false when the request goes no further.
  bool admit(Request& m);
  /// Worker + log lock, op-specific service time, `body`, then durability
  /// (replication or the rf=0 sync), RIFL record, stats and the reply.
  void commit(RequestPtr m, Body body);
  void finishCommit(Request& m, Outcome& o, int w, bool ok);
  sim::Duration commitServiceTime(const Request& m) const;

  Outcome writeBody(Request& m);
  Outcome removeBody(Request& m);
  Outcome prepareBody(Request& m);
  Outcome decisionBody(Request& m);
  /// Durable refusal: append (tracked) the completion record that replays
  /// `verdict` to retries.
  Outcome refuse(Request& m, net::Status verdict, std::uint64_t version);
  /// A prepared transaction's version lock blocks a plain update.
  Outcome lockConflict(const TxLockTable::Lock& held);
  /// Once a yes-vote's prepare record is durable: take the version lock.
  void lockPrepared(const Request& m, const log::LogRef& rec);
  /// The lock a vote-yes on prepare `m` grants, before its record exists.
  static TxLockTable::Lock preparedLock(const Request& m);
  /// Once a decision is durable: release the lock it settles.
  void releaseDecided(const Request& m, const log::LogRef& rec);

  /// Recovery replay / migration install of a RIFL record (completion, tx
  /// prepare or decision): re-enter its outcome in the suppression table.
  /// False when the record is untracked or its outcome already known.
  bool recoverRiflRecord(const log::LogEntry& e, const log::LogRef& ref);
  /// A replayed kTxPrepare without a decision: its RIFL entry, then its
  /// lock; a record that neither takes is marked dead. True when the lock
  /// was installed.
  bool installReplayedPrepare(const log::LogEntry& e, const log::LogRef& ref);

  /// Fills the reply on the worker; returns whether to book a read (a
  /// validation books none and feeds no sojourn sample).
  using ReadBody = bool (MasterService::*)(const Request&, net::RpcResponse&);
  /// Dispatch-thread admission of a read: dispatch-wait stamp, ownership of
  /// the key, the migration fence (validation only) and tablet heat.
  /// Replies and returns false when the request goes no further.
  bool admitRead(Request& r);
  /// One worker hand-off: tag, read service time, release, then `body`,
  /// read stats and the reply.
  void serveRead(RequestPtr r, ReadBody body);

  bool readBody(const Request& r, net::RpcResponse& reply);
  /// Read-set check of a read-only transaction (docs/TRANSACTIONS.md).
  bool validateBody(const Request& r, net::RpcResponse& reply);

  /// Admission refusal: reply `status` and go no further.
  static bool reject(Responder& respond, net::Status status);

  void onTxVote(const net::RpcRequest& req, Responder respond);
  void onStartRecovery(const net::RpcRequest& req, Responder respond);
  void onServerListUpdate(const net::RpcRequest& req, Responder respond);
  void onMigrateTablet(const net::RpcRequest& req, Responder respond);
  void onMigrationData(const net::RpcRequest& req, Responder respond);

  ApplyResult applyWrite(std::uint64_t tableId, std::uint64_t keyId,
                         std::uint32_t valueBytes);

  /// Append a kCompletion record for a tracked RPC's outcome.
  log::LogRef appendCompletion(std::uint64_t tableId, std::uint64_t keyId,
                               std::uint64_t clientId, std::uint64_t seq,
                               std::uint64_t version, net::Status status,
                               bool found);
  /// Seal the head early if `bytes` would not fit: entries that must be
  /// recovered atomically (object + completion) may not straddle segments.
  void ensureHeadRoom(std::uint32_t bytes);
  /// Lazily start the periodic lease-expiry reclamation sweep.
  void startLeaseReclaim();

  /// Lease sweep extension: every lock whose owning client's lease expired
  /// asks the coordinator to run cooperative termination for that tx.
  void sweepOrphanedTx();

  void maybeStartCleaner();
  void cleanerLoop();
  void onRecoveryTaskFinished(RecoveryTask* task);

  std::vector<node::NodeId> backupCandidates() const;

  node::Node& node_;
  Dispatch& dispatch_;
  net::RpcSystem& rpc_;
  const ServiceDirectory& directory_;
  /// The cluster's event journal: recovery tasks, migrations, cleaner
  /// passes, minitransaction records and background re-replication emit
  /// phase spans on this node.
  obs::EventJournal& journal_;
  /// The cluster's per-RPC time trace: reads and every mutating opcode
  /// stamp dispatch-wait, worker-service and replication-wait stages
  /// against spans carried in RpcRequest::traceSpan.
  obs::TimeTrace& trace_;
  MasterParams params_;
  std::function<RecoveryPlanPtr(std::uint64_t)> planLookup_;
  node::NodeId coordinator_;
  sim::Rng rng_;

  std::vector<Tablet> tablets_;
  log::Log log_;
  hash::ObjectMap map_{log_};
  log::LogCleaner cleaner_;
  ReplicaManager replicaMgr_;
  sim::FifoLock logLock_;
  bool cleanerActive_ = false;
  bool bulkMode_ = false;

  std::vector<std::unique_ptr<RecoveryTask>> recoveries_;
  std::vector<std::unique_ptr<MigrationTask>> migrations_;
  UnackedRpcResults unacked_;
  TxLockTable txLocks_;
  std::uint64_t txResolveRequests_ = 0;
  std::function<void()> crashBeforeReplyHook_;
  std::unique_ptr<sim::PeriodicTask> leaseReclaim_;
  /// Last request time per calling node id; kNeverSeen for nodes that
  /// never called (early in a run the window reaches below 0, so the
  /// sentinel must sort below every cutoff).
  static constexpr sim::SimTime kNeverSeen =
      std::numeric_limits<sim::SimTime>::min();
  std::vector<sim::SimTime> recentStreams_;
  MasterStats stats_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, TabletHeat> tabletHeat_;
  obs::MetricRegistry* metricReg_ = nullptr;  ///< for late-added tablets
  std::string metricPrefix_;
};

}  // namespace rc::server
