#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "log/log.hpp"
#include "server/recovery_plan.hpp"
#include "server/replica_manager.hpp"

namespace rc::server {

class MasterService;

/// Replays one partition of a crashed master's data on a recovery master.
///
/// Pipeline (mirrors RAMCloud's SOSP'11 design):
///   fetch  — up to `kRecoveryFetchWindow` kGetRecoveryData RPCs in flight;
///            backups read the frame from disk once and serve all
///            partitions from memory.
///   replay — entries re-inserted in worker-CPU chunks into a private
///            *side log*, newest version wins (so segment order is
///            irrelevant), tombstones suppress deleted objects.
///   re-replicate — each sealed side-log segment is replicated whole to
///            fresh backups; replay pauses when more than
///            `kRecoveryMaxUnackedSegments` are unacknowledged. Backup acks
///            are flush-gated under buffer pressure, which couples recovery
///            speed to contended disk bandwidth (Findings 5/6).
///   commit — hash table updated, side-log segments adopted, tablets
///            added, kRecoveryDone sent to the coordinator.
class RecoveryTask {
 public:
  RecoveryTask(MasterService& master, RecoveryPlanPtr plan,
               int partitionIndex);
  ~RecoveryTask();

  void start();
  bool finished() const { return committed_ || failed_; }
  bool failed() const { return failed_; }
  int partitionIndex() const { return part_; }

  /// Owner-side abort (recovery master crashed).
  void abort();

  /// Coordinator broadcast: `dead` crashed. In-flight segment fetches
  /// aimed at it fail over to the next replica immediately (instead of
  /// waiting out the long kGetRecoveryData timeout), future fetches skip
  /// it, and side-log replicas on it are queued for repair.
  void onBackupDown(node::NodeId dead);

  /// Resolve a side-log segment (backups snapshot replica contents
  /// through the owning master's findSegment).
  std::shared_ptr<const log::Segment> sideSegment(log::SegmentId id) const;

 private:
  struct Staged {
    std::uint64_t version = 0;
    bool tombstone = false;
    log::LogRef ref;
  };
  struct KeyHasher {
    std::size_t operator()(const hash::Key& k) const {
      return static_cast<std::size_t>(hash::keyHash(k));
    }
  };

  void pumpFetches();
  void fetchSegment(std::size_t segIdx, std::size_t sourceIdx);
  void onSegmentData(std::size_t segIdx, std::vector<log::LogEntry> entries);
  void abandonJournalSpans();
  void pumpReplay();
  void replayChunk(std::vector<log::LogEntry> entries, std::size_t offset);
  void applyEntry(const log::LogEntry& e);
  void onSideSegmentSealed(log::Segment& seg);
  void maybeFinish();
  void commit();
  void fail();

  MasterService& master_;
  RecoveryPlanPtr plan_;
  int part_;

  std::unique_ptr<log::Log> sideLog_;
  std::unique_ptr<ReplicaManager> sideRepl_;
  std::unordered_map<hash::Key, Staged, KeyHasher> staging_;

  /// kCompletion entries seen during replay: deduped by (clientId, seq) —
  /// several backup copies of a segment replay the same record — then
  /// installed into the new owner's UnackedRpcResults at commit so retries
  /// of already-applied ops are suppressed, not re-executed.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seenCompletions_;
  std::vector<std::pair<log::LogEntry, log::LogRef>> recoveredCompletions_;

  /// Minitransaction records seen during replay, deduped per (txId, object).
  /// At commit, kTxDecision records rebuild the resolved-tx fence table and
  /// kTxPrepare records *without* a matching decision re-install the
  /// version lock (docs/TRANSACTIONS.md: crash-safe orphan resolution).
  using TxRecordKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
  std::set<TxRecordKey> seenTxPrepares_;
  std::set<TxRecordKey> seenTxDecisions_;
  std::vector<std::pair<log::LogEntry, log::LogRef>> recoveredTxPrepares_;
  std::vector<std::pair<log::LogEntry, log::LogRef>> recoveredTxDecisions_;

  /// Worker slots pinned for the task's lifetime: RAMCloud recovery
  /// masters dedicate a replay thread and a replication/sync thread that
  /// busy-spin through the whole recovery — the source of Fig. 9a's ~92 %
  /// CPU and Fig. 10's latency bump on live reads.
  int replayWorker_ = -1;
  int syncWorker_ = -1;
  std::uint64_t workerEpoch_ = 0;
  void pinWorkers();
  void unpinWorkers();

  /// One entry per in-flight kGetRecoveryData RPC; `generation` lets a
  /// failover invalidate the superseded RPC's response when it eventually
  /// arrives (or times out).
  struct FetchState {
    node::NodeId backup = node::kInvalidNode;
    std::size_t sourceIdx = 0;
    std::uint64_t generation = 0;
  };
  std::unordered_map<std::size_t, FetchState> inFlightFetches_;
  std::uint64_t fetchGeneration_ = 0;
  std::unordered_set<node::NodeId> deadBackups_;

  std::size_t nextFetch_ = 0;
  int outstandingFetches_ = 0;
  std::deque<std::vector<log::LogEntry>> replayQueue_;
  bool replaying_ = false;
  int unackedSegments_ = 0;
  std::size_t segmentsReplayed_ = 0;
  std::uint64_t entriesReplayed_ = 0;
  bool drainStarted_ = false;
  bool committed_ = false;
  bool failed_ = false;
  bool aborted_ = false;

  /// Journal spans (0 / absent when tracing is off). taskSpan_ is the
  /// "partition_recovery" span covering the whole task; one segment_fetch
  /// span per segment (spanning replica fallbacks); one replay span per
  /// replaying_ burst — serial per actor by construction.
  std::uint64_t taskSpan_ = 0;
  std::uint64_t replaySpan_ = 0;
  std::unordered_map<std::size_t, std::uint64_t> fetchSpans_;

  std::shared_ptr<bool> alive_;  ///< guards continuations after abort
};

}  // namespace rc::server
