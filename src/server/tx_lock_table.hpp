#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "log/segment.hpp"
#include "sim/time.hpp"

namespace rc::server {

/// In-log footprint of a minitransaction kTxPrepare record: completion
/// header plus txId, pending-value size, expected version and the
/// participant key list (docs/TRANSACTIONS.md).
inline constexpr std::uint32_t kTxPrepareRecordBytes = 64;

/// Per-object minitransaction lock state on a participant master
/// (docs/TRANSACTIONS.md). A lock is installed when a kTxPrepare vote-yes
/// record becomes durable and released when the kTxDecision for the same
/// (txId, object) is applied. The table is DRAM state: a crash drops it and
/// whichever master recovers the tablets rebuilds it from the replicated
/// kTxPrepare records (minus those already covered by a kTxDecision).
class TxLockTable {
 public:
  struct Lock {
    std::uint64_t txId = 0;
    std::uint64_t clientId = 0;  ///< tx client's lease id at prepare time
    std::uint64_t rpcSeq = 0;    ///< prepare RPC's sequence number
    std::uint64_t tableId = 0;
    std::uint64_t keyId = 0;
    std::uint32_t pendingValueBytes = 0;  ///< buffered write applied on commit
    std::uint64_t expectedVersion = 0;    ///< version the vote validated
    log::LogRef prepareRecord;            ///< the durable kTxPrepare entry
    log::TxParticipants participants;     ///< full key list of the tx
    sim::SimTime preparedAt = 0;
    /// True while UnackedRpcResults also references prepareRecord as the
    /// prepare RPC's completion record. Whoever drops their reference last
    /// (watermark/lease GC vs. decision-time release) marks the entry dead;
    /// Segment::markDead is idempotent so the overlap is harmless, but the
    /// flag keeps the record *live* while the lock still needs it.
    bool recordOwnedByUnacked = false;
  };

  /// Transactions already decided on this master; fences late prepares and
  /// answers kTxVote after the locks are gone.
  struct Resolved {
    bool commit = false;
    std::uint64_t clientId = 0;
    sim::SimTime resolvedAt = 0;
    /// Decision records appended here for this tx, keyed by the object they
    /// decide (one per object). Refs owned by UnackedRpcResults are GCed by
    /// the watermark; the rest are reclaimed by the sweep via gcResolved().
    struct Record {
      log::LogRef ref;
      bool ownedByUnacked = false;
    };
    std::map<std::pair<std::uint64_t, std::uint64_t>, Record> records;
  };

  using Key = std::pair<std::uint64_t, std::uint64_t>;  ///< (tableId, keyId)

  /// The durable kTxPrepare record of `lock`. `version` is the record's
  /// object version: the prepare path writes the version its vote saw,
  /// migration the lock's expectedVersion.
  static log::LogEntry prepareRecord(const Lock& lock, std::uint64_t version);
  /// The lock a kTxPrepare record grants; `ref` locates the record.
  static Lock lockFor(const log::LogEntry& prepare, const log::LogRef& ref,
                      sim::SimTime preparedAt, bool recordOwnedByUnacked);

  /// Lock lookup; nullptr when the object is unlocked.
  const Lock* get(std::uint64_t tableId, std::uint64_t keyId) const;

  /// Install a lock after the prepare record is durable. Returns false (and
  /// installs nothing) if the object is already locked by a different tx.
  bool acquire(Lock lock);

  /// Release the lock held by `txId` on the object; returns the lock (so the
  /// caller can mark the prepare record dead) or nullopt if not held.
  struct Released {
    Lock lock;
  };
  bool release(std::uint64_t tableId, std::uint64_t keyId, std::uint64_t txId,
               Lock* out);

  /// Record a decided transaction (fencing + kTxVote answers). Safe to call
  /// repeatedly; later records append to the same entry. `tableId`/`keyId`
  /// name the object the decision record covers (ignored when `record` is
  /// invalid).
  void noteResolved(std::uint64_t txId, bool commit, std::uint64_t clientId,
                    std::uint64_t tableId, std::uint64_t keyId,
                    const log::LogRef& record, bool recordOwnedByUnacked,
                    sim::SimTime now);
  /// Volatile abort fence (no durable record): installed when kTxVote finds
  /// no vote, so a late prepare for the same tx cannot re-lock the object.
  void fenceAbort(std::uint64_t txId, sim::SimTime now);
  /// kTxVote answer: 0 = unknown, 1 = prepared here, 2 = committed,
  /// 3 = aborted.
  int voteStatus(std::uint64_t txId) const;
  bool isFencedAborted(std::uint64_t txId) const;

  /// Locks whose owning client's lease is no longer valid, deduplicated by
  /// txId in txId order (deterministic sweep fan-out). Each entry carries
  /// one representative lock of that transaction.
  std::vector<Lock> orphanedLocks(
      const std::function<bool(std::uint64_t)>& leaseValid) const;

  /// Called by releaseCompletionRecords before marking a freed ref dead:
  /// if a lock still needs the record, take over ownership (the caller must
  /// then NOT mark it dead). Returns true when ownership was transferred.
  bool adoptRecord(const log::LogRef& ref);

  /// Cleaner relocation: a kTxPrepare entry moved.
  void updatePrepareRef(std::uint64_t txId, std::uint64_t tableId,
                        std::uint64_t keyId, const log::LogRef& newRef);
  /// Cleaner relocation: a kTxDecision entry moved.
  void updateDecisionRef(std::uint64_t txId, std::uint64_t tableId,
                         std::uint64_t keyId, const log::LogRef& newRef);

  /// Drop resolved-tx entries whose client lease expired, no lock remains,
  /// and the entry is older than `minAge`. Decision records not owned by
  /// UnackedRpcResults are appended to `freed` for the caller to mark dead.
  void gcResolved(const std::function<bool(std::uint64_t)>& leaseValid,
                  sim::SimTime now, sim::Duration minAge,
                  std::vector<log::LogRef>* freed);

  /// Migration: collect locks whose object falls inside the moving range.
  std::vector<Lock> collectForRange(
      const std::function<bool(std::uint64_t, std::uint64_t)>& inRange) const;
  /// Migration source: drop the collected locks after a successful handoff;
  /// their prepare-record refs go to `freed` unless owned by unacked.
  void eraseForRange(
      const std::function<bool(std::uint64_t, std::uint64_t)>& inRange,
      std::vector<log::LogRef>* freed);

  void clear();

  std::size_t locksHeld() const { return locks_.size(); }
  bool holdsTx(std::uint64_t txId) const;
  std::uint64_t prepares() const { return prepares_; }
  std::uint64_t commits() const { return commits_; }
  std::uint64_t aborts() const { return aborts_; }
  std::uint64_t conflicts() const { return conflicts_; }
  std::uint64_t orphansResolved() const { return orphansResolved_; }
  std::uint64_t locksRecovered() const { return locksRecovered_; }
  std::uint64_t locksMigrated() const { return locksMigrated_; }

  void countPrepare() { ++prepares_; }
  void countConflict() { ++conflicts_; }
  void countDecision(bool commit, bool fromResolution) {
    if (commit) {
      ++commits_;
    } else {
      ++aborts_;
    }
    if (fromResolution) ++orphansResolved_;
  }
  void countRecovered() { ++locksRecovered_; }
  void countMigrated() { ++locksMigrated_; }

 private:
  std::map<Key, Lock> locks_;
  std::map<std::uint64_t, Resolved> resolved_;
  std::uint64_t prepares_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;
  std::uint64_t conflicts_ = 0;
  std::uint64_t orphansResolved_ = 0;
  std::uint64_t locksRecovered_ = 0;
  std::uint64_t locksMigrated_ = 0;
};

}  // namespace rc::server
