#include "server/migration.hpp"

#include <utility>

#include "server/master_service.hpp"

namespace rc::server {

MigrationTask::MigrationTask(MasterService& source, Tablet tablet,
                             node::NodeId destination)
    : source_(source),
      tablet_(tablet),
      dest_(destination),
      alive_(std::make_shared<bool>(true)) {}

MigrationTask::~MigrationTask() { *alive_ = false; }

void MigrationTask::abort() {
  aborted_ = true;
  *alive_ = false;
}

void MigrationTask::start() {
  migrationSpan_ =
      source_.journal().beginSpan("migration", source_.node().id());
  collectKeys();
  sendNextBatch();
}

void MigrationTask::collectKeys() {
  // Snapshot the objects in the migrating range. Writes to the range are
  // already being bounced, so the snapshot is stable.
  source_.objectMap().forEach([this](const hash::Key& k,
                                     const hash::ObjectLocation& loc) {
    if (k.tableId != tablet_.tableId) return;
    const std::uint64_t h = hash::keyHash(k);
    if (h < tablet_.startHash || h > tablet_.endHash) return;
    log::LogEntry e;
    e.tableId = k.tableId;
    e.keyId = k.keyId;
    e.sizeBytes = loc.sizeBytes;
    e.version = loc.version;
    e.type = log::EntryType::kObject;
    pending_.push_back(e);
  });
  // Minitransaction version locks move with the tablet: rebuild each
  // in-range kTxPrepare record so the destination re-installs the lock
  // before it answers for the range (docs/TRANSACTIONS.md). Shipped ahead
  // of the completion records so the lock adopts the prepare's suppression
  // entry on install and the later plain copy dedups against it.
  const auto locks = source_.txLockTable().collectForRange(
      [this](std::uint64_t tableId, std::uint64_t keyId) {
        return keyInRange(tableId, keyId);
      });
  for (const auto& lock : locks) {
    pending_.push_back(TxLockTable::prepareRecord(lock, lock.expectedVersion));
  }
  // Duplicate-suppression state travels with the tablet: ship the retained
  // completion records too, so a retry that lands on the new owner after
  // the map flips is still suppressed (docs/LINEARIZABILITY.md).
  const auto completions = source_.unackedRpcResults().collectForRange(
      [this](std::uint64_t tableId, std::uint64_t keyId) {
        return keyInRange(tableId, keyId);
      });
  for (const auto& r : completions) {
    log::LogEntry e;
    e.tableId = r.result.tableId;
    e.keyId = r.result.keyId;
    e.sizeBytes = kCompletionRecordBytes;
    e.version = r.result.version;
    e.type = log::EntryType::kCompletion;
    e.clientId = r.clientId;
    e.rpcSeq = r.seq;
    e.opStatus = r.result.status;
    e.found = r.result.found;
    pending_.push_back(e);
  }
}

bool MigrationTask::keyInRange(std::uint64_t tableId,
                               std::uint64_t keyId) const {
  if (tableId != tablet_.tableId) return false;
  const std::uint64_t h = hash::keyHash(hash::Key{tableId, keyId});
  return h >= tablet_.startHash && h <= tablet_.endHash;
}

std::vector<log::LogEntry> MigrationTask::takeBatch(std::uint64_t batchId) {
  auto it = inFlight_.find(batchId);
  if (it == inFlight_.end()) return {};
  std::vector<log::LogEntry> out = std::move(it->second);
  inFlight_.erase(it);
  return out;
}

void MigrationTask::sendNextBatch() {
  if (aborted_ || failed_ || done_) return;
  if (nextIndex_ >= pending_.size()) {
    finish(true);
    return;
  }
  const std::size_t n = std::min<std::size_t>(
      static_cast<std::size_t>(kMigrationBatchObjects),
      pending_.size() - nextIndex_);
  std::vector<log::LogEntry> batch(
      pending_.begin() + static_cast<std::ptrdiff_t>(nextIndex_),
      pending_.begin() + static_cast<std::ptrdiff_t>(nextIndex_ + n));
  nextIndex_ += n;

  std::uint64_t bytes = 0;
  for (const auto& e : batch) bytes += e.sizeBytes;
  const std::uint64_t batchId = nextBatchId_++;
  inFlight_[batchId] = std::move(batch);

  // Source-side marshalling CPU, then ship the batch.
  const sim::Duration cpu =
      kMigrationSourcePerObjectCpu * static_cast<sim::Duration>(n);
  source_.node().cpu().run(cpu, {power::OpClass::kMigration, 0},
                           [this, w = std::weak_ptr<bool>(alive_),
                            batchId, bytes, n] {
    auto p = w.lock();
    if (p == nullptr || !*p) return;
    net::RpcRequest req;
    req.op = net::Opcode::kMigrationData;
    req.a = static_cast<std::uint64_t>(source_.node().id());
    req.b = batchId;
    req.c = n;
    req.payloadBytes = bytes;
    source_.rpc().call(
        source_.node().id(), dest_, net::kMasterPort, req,
        sim::seconds(10),
        [this, w](const net::RpcResponse& resp) {
          auto p2 = w.lock();
          if (p2 == nullptr || !*p2) return;
          if (resp.status != net::Status::kOk) {
            finish(false);
            return;
          }
          source_.journal().addCount(migrationSpan_, resp.a);
          sendNextBatch();
        });
  });
}

void MigrationTask::finish(bool ok) {
  if (done_ || failed_) return;
  if (!ok) {
    failed_ = true;
  } else {
    done_ = true;
    // Drop the moved objects and the tablet; the coordinator flips the map
    // when it receives kMigrationDone.
    for (const auto& e : pending_) {
      if (e.type != log::EntryType::kObject) continue;
      const hash::Key k{e.tableId, e.keyId};
      if (const auto loc = source_.objectMap().get(k);
          loc && loc->version == e.version) {
        source_.dropObjectForMigration(k);
      }
    }
    // The new owner holds the handed-off version locks now: drop ours
    // first (so releaseCompletionRecords below cannot re-adopt a record
    // for a lock that just left) and mark their solely-owned records dead.
    std::vector<log::LogRef> lockFreed;
    source_.txLockTable().eraseForRange(
        [this](std::uint64_t tableId, std::uint64_t keyId) {
          return keyInRange(tableId, keyId);
        },
        &lockFreed);
    for (const log::LogRef& ref : lockFreed) {
      if (ref.valid() && source_.log().segment(ref.segment) != nullptr) {
        source_.log().markDead(ref);
      }
    }
    // The new owner answers retries now; drop the handed-off suppression
    // state and let the cleaner reclaim its records.
    std::vector<log::LogRef> freed;
    source_.unackedRpcResults().eraseForRange(
        [this](std::uint64_t tableId, std::uint64_t keyId) {
          return keyInRange(tableId, keyId);
        },
        &freed);
    source_.releaseCompletionRecords(freed);
    source_.removeTablet(tablet_);
  }

  if (ok) {
    source_.journal().endSpan(migrationSpan_);
  } else {
    source_.journal().abandonSpan(migrationSpan_);
  }

  net::RpcRequest req;
  req.op = net::Opcode::kMigrationDone;
  req.a = tablet_.tableId;
  req.b = tablet_.startHash;
  req.c = tablet_.endHash;
  req.d = static_cast<std::uint64_t>(ok ? dest_ : node::kInvalidNode);
  // Carry the migration span so the coordinator parents its
  // ownership_transfer event under it (this opcode never stamps TimeTrace).
  req.traceSpan = migrationSpan_;
  source_.rpc().call(source_.node().id(), source_.coordinatorNode(),
                     net::kCoordinatorPort, req, timeouts::kControl,
                     [](const net::RpcResponse&) {});
  source_.onMigrationTaskFinished(this);
}

}  // namespace rc::server
