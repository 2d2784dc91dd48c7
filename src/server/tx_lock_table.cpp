#include "server/tx_lock_table.hpp"

#include <algorithm>

#include "net/rpc.hpp"

namespace rc::server {

log::LogEntry TxLockTable::prepareRecord(const Lock& lock,
                                         std::uint64_t version) {
  log::LogEntry e;
  e.tableId = lock.tableId;
  e.keyId = lock.keyId;
  e.sizeBytes = kTxPrepareRecordBytes;
  e.version = version;
  e.type = log::EntryType::kTxPrepare;
  e.clientId = lock.clientId;
  e.rpcSeq = lock.rpcSeq;
  e.opStatus = static_cast<std::uint8_t>(net::Status::kOk);
  e.txId = lock.txId;
  e.txPendingBytes = lock.pendingValueBytes;
  e.txExpectedVersion = lock.expectedVersion;
  e.txParticipants = lock.participants;
  return e;
}

TxLockTable::Lock TxLockTable::lockFor(const log::LogEntry& prepare,
                                       const log::LogRef& ref,
                                       sim::SimTime preparedAt,
                                       bool recordOwnedByUnacked) {
  Lock lock;
  lock.txId = prepare.txId;
  lock.clientId = prepare.clientId;
  lock.rpcSeq = prepare.rpcSeq;
  lock.tableId = prepare.tableId;
  lock.keyId = prepare.keyId;
  lock.pendingValueBytes = prepare.txPendingBytes;
  lock.expectedVersion = prepare.txExpectedVersion;
  lock.prepareRecord = ref;
  lock.participants = prepare.txParticipants;
  lock.preparedAt = preparedAt;
  lock.recordOwnedByUnacked = recordOwnedByUnacked;
  return lock;
}

const TxLockTable::Lock* TxLockTable::get(std::uint64_t tableId,
                                          std::uint64_t keyId) const {
  auto it = locks_.find(Key{tableId, keyId});
  return it == locks_.end() ? nullptr : &it->second;
}

bool TxLockTable::acquire(Lock lock) {
  const Key k{lock.tableId, lock.keyId};
  auto it = locks_.find(k);
  if (it != locks_.end() && it->second.txId != lock.txId) return false;
  locks_[k] = std::move(lock);
  return true;
}

bool TxLockTable::release(std::uint64_t tableId, std::uint64_t keyId,
                          std::uint64_t txId, Lock* out) {
  auto it = locks_.find(Key{tableId, keyId});
  if (it == locks_.end() || it->second.txId != txId) return false;
  if (out != nullptr) *out = it->second;
  locks_.erase(it);
  return true;
}

void TxLockTable::noteResolved(std::uint64_t txId, bool commit,
                               std::uint64_t clientId, std::uint64_t tableId,
                               std::uint64_t keyId, const log::LogRef& record,
                               bool recordOwnedByUnacked, sim::SimTime now) {
  Resolved& r = resolved_[txId];
  r.commit = commit;
  if (clientId != 0) r.clientId = clientId;
  r.resolvedAt = now;
  if (record.valid()) {
    r.records[{tableId, keyId}] = Resolved::Record{record, recordOwnedByUnacked};
  }
}

void TxLockTable::fenceAbort(std::uint64_t txId, sim::SimTime now) {
  auto it = resolved_.find(txId);
  if (it != resolved_.end()) return;  // already decided: keep that outcome
  Resolved r;
  r.commit = false;
  r.resolvedAt = now;
  resolved_[txId] = std::move(r);
}

int TxLockTable::voteStatus(std::uint64_t txId) const {
  if (holdsTx(txId)) return 1;
  auto it = resolved_.find(txId);
  if (it != resolved_.end()) return it->second.commit ? 2 : 3;
  return 0;
}

bool TxLockTable::isFencedAborted(std::uint64_t txId) const {
  auto it = resolved_.find(txId);
  return it != resolved_.end() && !it->second.commit;
}

bool TxLockTable::holdsTx(std::uint64_t txId) const {
  for (const auto& [k, lock] : locks_) {
    if (lock.txId == txId) return true;
  }
  return false;
}

std::vector<TxLockTable::Lock> TxLockTable::orphanedLocks(
    const std::function<bool(std::uint64_t)>& leaseValid) const {
  std::map<std::uint64_t, Lock> byTx;  // deduped, txId-ordered
  for (const auto& [k, lock] : locks_) {
    if (leaseValid && leaseValid(lock.clientId)) continue;
    byTx.emplace(lock.txId, lock);
  }
  std::vector<Lock> out;
  out.reserve(byTx.size());
  for (auto& [txId, lock] : byTx) out.push_back(std::move(lock));
  return out;
}

bool TxLockTable::adoptRecord(const log::LogRef& ref) {
  for (auto& [k, lock] : locks_) {
    if (lock.recordOwnedByUnacked && lock.prepareRecord == ref) {
      lock.recordOwnedByUnacked = false;
      return true;
    }
  }
  return false;
}

void TxLockTable::updatePrepareRef(std::uint64_t txId, std::uint64_t tableId,
                                   std::uint64_t keyId,
                                   const log::LogRef& newRef) {
  auto it = locks_.find(Key{tableId, keyId});
  if (it != locks_.end() && it->second.txId == txId) {
    it->second.prepareRecord = newRef;
  }
}

void TxLockTable::updateDecisionRef(std::uint64_t txId, std::uint64_t tableId,
                                    std::uint64_t keyId,
                                    const log::LogRef& newRef) {
  auto it = resolved_.find(txId);
  if (it == resolved_.end()) return;
  auto rec = it->second.records.find({tableId, keyId});
  if (rec != it->second.records.end()) rec->second.ref = newRef;
}

void TxLockTable::gcResolved(
    const std::function<bool(std::uint64_t)>& leaseValid, sim::SimTime now,
    sim::Duration minAge, std::vector<log::LogRef>* freed) {
  for (auto it = resolved_.begin(); it != resolved_.end();) {
    const Resolved& r = it->second;
    const bool leaseGone =
        r.clientId == 0 || !leaseValid || !leaseValid(r.clientId);
    if (!leaseGone || holdsTx(it->first) || now - r.resolvedAt < minAge) {
      ++it;
      continue;
    }
    for (const auto& [obj, rec] : r.records) {
      if (!rec.ownedByUnacked && freed != nullptr) freed->push_back(rec.ref);
    }
    it = resolved_.erase(it);
  }
}

std::vector<TxLockTable::Lock> TxLockTable::collectForRange(
    const std::function<bool(std::uint64_t, std::uint64_t)>& inRange) const {
  std::vector<Lock> out;
  for (const auto& [k, lock] : locks_) {
    if (inRange(lock.tableId, lock.keyId)) out.push_back(lock);
  }
  return out;
}

void TxLockTable::eraseForRange(
    const std::function<bool(std::uint64_t, std::uint64_t)>& inRange,
    std::vector<log::LogRef>* freed) {
  for (auto it = locks_.begin(); it != locks_.end();) {
    const Lock& lock = it->second;
    if (inRange(lock.tableId, lock.keyId)) {
      if (!lock.recordOwnedByUnacked && freed != nullptr) {
        freed->push_back(lock.prepareRecord);
      }
      it = locks_.erase(it);
    } else {
      ++it;
    }
  }
}

void TxLockTable::clear() {
  locks_.clear();
  resolved_.clear();
}

}  // namespace rc::server
