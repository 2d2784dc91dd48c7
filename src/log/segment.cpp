#include "log/segment.hpp"

#include <cassert>
#include <stdexcept>

namespace rc::log {

namespace {

/// Whether records of this type keep cold fields (RIFL outcome and
/// minitransaction state). Objects and tombstones never do.
bool hasColdFields(EntryType t) {
  return t == EntryType::kCompletion || t == EntryType::kTxPrepare ||
         t == EntryType::kTxDecision;
}

}  // namespace

SegmentId sideLogIdBase(std::uint32_t n) {
  constexpr std::uint32_t kBlocks =
      (kInvalidSegment - kSideLogIdBase) >> kSideLogIdBits;
  if (n >= kBlocks) throw std::length_error("side-log segment ids exhausted");
  return kSideLogIdBase + (n << kSideLogIdBits);
}

Segment::Segment(SegmentId id, std::uint64_t capacityBytes,
                 sim::SimTime createdAt)
    : id_(id), capacity_(capacityBytes), createdAt_(createdAt) {}

std::uint32_t Segment::append(const LogEntry& e) {
  assert(hasRoom(e.sizeBytes));
  appended_ += e.sizeBytes;
  if (e.live) live_ += e.sizeBytes;
  // Objects and tombstones have no cold storage: a field set on them would
  // not survive the round trip.
  assert(hasColdFields(e.type) ||
         (e.clientId == 0 && e.rpcSeq == 0 && e.txId == 0 &&
          e.txExpectedVersion == 0 && !e.txParticipants &&
          e.txPendingBytes == 0 && e.opStatus == 0 && e.found && !e.txCommit));
  assert(e.type == EntryType::kTombstone || e.refSegment == kInvalidSegment);
  std::uint32_t aux = 0;
  if (e.type == EntryType::kTombstone) {
    aux = e.refSegment;
  } else if (hasColdFields(e.type)) {
    aux = static_cast<std::uint32_t>(cold_.size());
    cold_.push_back(ColdFields{e.clientId, e.rpcSeq, e.txId,
                               e.txExpectedVersion, e.txParticipants,
                               e.txPendingBytes, e.opStatus, e.found,
                               e.txCommit});
  }
  entries_.push_back(HotEntry{e.tableId, e.keyId, e.version, e.sizeBytes, aux,
                              e.type, e.live});
  return static_cast<std::uint32_t>(entries_.size() - 1);
}

LogEntry Segment::entry(std::uint32_t index) const {
  assert(index < entries_.size());
  const HotEntry& h = entries_[index];
  LogEntry e;
  e.tableId = h.tableId;
  e.keyId = h.keyId;
  e.version = h.version;
  e.sizeBytes = h.sizeBytes;
  e.type = h.type;
  e.live = h.live;
  if (h.type == EntryType::kTombstone) {
    e.refSegment = h.aux;
  } else if (hasColdFields(h.type)) {
    const ColdFields& c = cold_[h.aux];
    e.clientId = c.clientId;
    e.rpcSeq = c.rpcSeq;
    e.txId = c.txId;
    e.txExpectedVersion = c.txExpectedVersion;
    e.txParticipants = c.txParticipants;
    e.txPendingBytes = c.txPendingBytes;
    e.opStatus = c.opStatus;
    e.found = c.found;
    e.txCommit = c.txCommit;
  }
  return e;
}

std::uint32_t Segment::markDead(std::uint32_t index) {
  assert(index < entries_.size());
  HotEntry& e = entries_[index];
  if (!e.live) return 0;
  e.live = false;
  assert(live_ >= e.sizeBytes);
  live_ -= e.sizeBytes;
  return e.sizeBytes;
}

}  // namespace rc::log
