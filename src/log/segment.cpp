#include "log/segment.hpp"

#include <cassert>
#include <stdexcept>

namespace rc::log {

SegmentId sideLogIdBase(std::uint32_t n) {
  constexpr std::uint32_t kBlocks =
      (kInvalidSegment - kSideLogIdBase) >> kSideLogIdBits;
  if (n >= kBlocks) throw std::length_error("side-log segment ids exhausted");
  return kSideLogIdBase + (n << kSideLogIdBits);
}

Segment::Segment(SegmentId id, std::uint64_t capacityBytes,
                 sim::SimTime createdAt)
    : id_(id), capacity_(capacityBytes), createdAt_(createdAt) {}

const char* unstorableField(const LogEntry& e) {
  if (e.sizeBytes > kMaxEntryBytes) return "log entry size beyond 2^28 - 1";
  if (e.tableId > kMaxTableId) return "log entry table id beyond 2^16 - 1";
  if (e.version > kMaxVersion) return "log entry version beyond 2^48 - 1";
  if (e.type == EntryType::kCompletion && e.rpcSeq > kMaxCompletionRpcSeq) {
    return "completion record rpcSeq beyond 2^55 - 1";
  }
  return nullptr;
}

std::uint32_t Segment::append(const LogEntry& e) {
  if (const char* why = unstorableField(e)) throw std::length_error(why);
  assert(hasRoom(e.sizeBytes));
  // Each type keeps only the fields its store holds: a field set beyond
  // them would not survive the round trip.
  const bool tx =
      e.type == EntryType::kTxPrepare || e.type == EntryType::kTxDecision;
  assert(tx || (e.txId == 0 && e.txExpectedVersion == 0 && !e.txParticipants &&
                e.txPendingBytes == 0 && !e.txCommit));
  assert(tx || e.type == EntryType::kCompletion ||
         (e.clientId == 0 && e.rpcSeq == 0 && e.opStatus == 0 && e.found));
  assert(e.type == EntryType::kTombstone || e.refSegment == kInvalidSegment);
  appended_ += e.sizeBytes;
  if (e.live) live_ += e.sizeBytes;
  std::size_t aux = 0;
  if (e.type == EntryType::kTombstone) {
    aux = e.refSegment;
  } else if (e.type == EntryType::kCompletion) {
    aux = completions_.push_back(CompletionFields{
        .clientId = e.clientId, .rpcSeq = e.rpcSeq, .opStatus = e.opStatus,
        .found = e.found});
  } else if (tx) {
    aux = txs_.push_back(TxFields{
        .clientId = e.clientId, .rpcSeq = e.rpcSeq, .txId = e.txId,
        .txExpectedVersion = e.txExpectedVersion,
        .txParticipants = e.txParticipants,
        .txPendingBytes = e.txPendingBytes, .opStatus = e.opStatus,
        .found = e.found, .txCommit = e.txCommit});
  }
  // Designated initialisers: the stored order is not LogEntry's, and a
  // positional list would swap fields of one integer type silently.
  return static_cast<std::uint32_t>(entries_.push_back(HotEntry{
      .keyId = e.keyId, .tableId = e.tableId, .version = e.version,
      .aux = static_cast<std::uint32_t>(aux), .sizeBytes = e.sizeBytes,
      .type = e.type, .live = e.live}));
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
  switch (h.type) {
    case EntryType::kObject:
      break;
    case EntryType::kTombstone:
      e.refSegment = h.aux;
      break;
    case EntryType::kCompletion: {
      const CompletionFields& c = completions_[h.aux];
      e.clientId = c.clientId;
      e.rpcSeq = c.rpcSeq;
      e.opStatus = static_cast<std::uint8_t>(c.opStatus);
      e.found = c.found != 0;
      break;
    }
    case EntryType::kTxPrepare:
    case EntryType::kTxDecision: {
      const TxFields& t = txs_[h.aux];
      e.clientId = t.clientId;
      e.rpcSeq = t.rpcSeq;
      e.txId = t.txId;
      e.txExpectedVersion = t.txExpectedVersion;
      e.txParticipants = t.txParticipants;
      e.txPendingBytes = t.txPendingBytes;
      e.opStatus = t.opStatus;
      e.found = t.found;
      e.txCommit = t.txCommit;
      break;
    }
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
