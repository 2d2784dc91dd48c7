#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "log/segment.hpp"
#include "server/common.hpp"

namespace rc::server {

class MasterService;

/// Costs of the tablet-migration path (our implementation of the paper's
/// SS IX "smart approach at the coordinator level which can decide whether
/// to add or remove nodes depending on the workload" — migration is the
/// mechanism that makes resizing possible).

/// Objects shipped per kMigrationData RPC.
inline constexpr int kMigrationBatchObjects = 512;
/// Source-side CPU per migrated object (index probe + marshalling).
inline constexpr sim::Duration kMigrationSourcePerObjectCpu = sim::nsec(400);
/// Destination-side CPU per object (log append + index insert).
inline constexpr sim::Duration kMigrationDestPerObjectCpu = sim::nsec(900);

/// Moves one tablet (a hash range of a table) from this master to another.
///
/// Protocol: the source marks the range migrating (writes are bounced with
/// kRecovering so clients back off; reads keep being served), walks its
/// index in batches, ships each batch to the destination — which appends
/// to its own log with normal replication — then reports kMigrationDone to
/// the coordinator, which flips the tablet map. Finally the source drops
/// the moved objects.
class MigrationTask {
 public:
  MigrationTask(MasterService& source, Tablet tablet,
                node::NodeId destination);
  ~MigrationTask();

  void start();
  bool finished() const { return done_ || failed_; }
  bool failed() const { return failed_; }
  const Tablet& tablet() const { return tablet_; }

  void abort();

  /// Content side-channel: the destination fetches the batch the RPC
  /// announced (the bytes were paid on the wire).
  std::vector<log::LogEntry> takeBatch(std::uint64_t batchId);

 private:
  void collectKeys();
  void sendNextBatch();
  void finish(bool ok);
  /// Does (tableId, keyId) hash into the migrating range?
  bool keyInRange(std::uint64_t tableId, std::uint64_t keyId) const;

  MasterService& source_;
  Tablet tablet_;
  node::NodeId dest_;

  std::vector<log::LogEntry> pending_;  ///< snapshot of objects to move
  std::size_t nextIndex_ = 0;
  std::uint64_t nextBatchId_ = 1;
  std::unordered_map<std::uint64_t, std::vector<log::LogEntry>> inFlight_;
  bool done_ = false;
  bool failed_ = false;
  bool aborted_ = false;
  std::uint64_t migrationSpan_ = 0;  ///< journal span; 0 before start()
  std::shared_ptr<bool> alive_;
};

}  // namespace rc::server
