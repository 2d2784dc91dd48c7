#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "log/chunked_store.hpp"
#include "sim/time.hpp"

namespace rc::log {

using SegmentId = std::uint32_t;
constexpr SegmentId kInvalidSegment = 0xffffffffu;

/// Segment-id layout. A master's own log counts ids up from a small base.
/// Each recovery side log gets a block of 2^kSideLogIdBits ids from
/// kSideLogIdBase up, so segments it hands to a recovery master on commit
/// never collide with that master's own ids.
constexpr SegmentId kSideLogIdBase = 0x8000'0000u;
constexpr unsigned kSideLogIdBits = 16;
/// First id of the `n`-th side log's block (n counts from 0 per cluster).
/// Throws std::length_error once the side-log id space is used up.
SegmentId sideLogIdBase(std::uint32_t n);

enum class EntryType : std::uint8_t {
  kObject,
  kTombstone,   ///< records a deletion so replay does not resurrect the key
  kCompletion,  ///< durable record of a tracked RPC's outcome (RIFL); lets a
                ///< recovery master suppress retries of already-applied ops
  kTxPrepare,   ///< minitransaction vote: the object is locked for txId and
                ///< the pending write is durable (docs/TRANSACTIONS.md)
  kTxDecision,  ///< minitransaction outcome (commit/abort) for one object;
                ///< fences late prepares and suppresses decision retries
};
/// Every EntryType fits HotEntry's 3-bit type field.
static_assert(static_cast<unsigned>(EntryType::kTxDecision) < 8);

/// Key list of every object a minitransaction touches, carried inside each
/// kTxPrepare record so *any* surviving participant can drive cooperative
/// termination after the transaction client dies (docs/TRANSACTIONS.md).
using TxParticipants =
    std::shared_ptr<const std::vector<std::pair<std::uint64_t, std::uint64_t>>>;

/// One record in the log, as the log's users exchange it (appends,
/// recovery, migration batches, backup filtering, the cleaner). Object
/// *contents* are not materialised — the simulator tracks sizes, versions
/// and liveness, which is everything the storage-management and recovery
/// logic operates on. A segment does not store this struct: it keeps a
/// HotEntry per record, plus the fields only completion or tx records use
/// in one side store per kind.
struct LogEntry {
  std::uint64_t tableId = 0;
  std::uint64_t keyId = 0;
  std::uint64_t version = 0;
  /// For kCompletion entries: which tracked RPC this records. tableId/keyId
  /// keep the *object's* identity so partition filtering and migration range
  /// collection treat completions like the objects they describe.
  std::uint64_t clientId = 0;
  std::uint64_t rpcSeq = 0;
  /// Minitransaction fields (kTxPrepare / kTxDecision only).
  std::uint64_t txId = 0;               ///< globally unique transaction id
  std::uint64_t txExpectedVersion = 0;  ///< prepare: version the vote checked
  TxParticipants txParticipants;        ///< prepare: full participant key list
  std::uint32_t sizeBytes = 0;  ///< total in-log footprint incl. metadata
  /// For tombstones: the segment that held the deleted object. The
  /// tombstone may be dropped once that segment has been cleaned.
  SegmentId refSegment = kInvalidSegment;
  std::uint32_t txPendingBytes = 0;  ///< prepare: buffered write's value size
  EntryType type = EntryType::kObject;
  bool live = true;
  std::uint8_t opStatus = 0;  ///< net::Status of the recorded outcome
  bool found = true;          ///< kRemove result: object existed
  bool txCommit = false;      ///< decision: true = commit, false = abort
};

/// Largest record a segment stores: HotEntry keeps the size in 28 bits.
constexpr std::uint32_t kMaxEntryBytes = (1u << 28) - 1;
/// Largest table id a segment stores: HotEntry keeps it in 16 bits.
constexpr std::uint64_t kMaxTableId = (1u << 16) - 1;
/// Largest version a segment stores: HotEntry keeps it in 48 bits.
constexpr std::uint64_t kMaxVersion = (1ULL << 48) - 1;
/// Largest rpcSeq a completion record stores: it keeps it in 55 bits.
constexpr std::uint64_t kMaxCompletionRpcSeq = (1ULL << 55) - 1;

/// Why a segment cannot store `e` without truncating a field, or nullptr
/// if it can.
const char* unstorableField(const LogEntry& e);

/// What a segment stores for every record: the fields every record type
/// uses. `aux` is the tombstone's refSegment, or the index of the record's
/// side fields in its segment's completion or tx store; 0 for objects.
/// Table id and version share one 64-bit word; size, type and liveness
/// share one 32-bit word.
struct HotEntry {
  std::uint64_t keyId = 0;
  std::uint64_t tableId : 16 = 0;
  std::uint64_t version : 48 = 0;
  std::uint32_t aux = 0;
  std::uint32_t sizeBytes : 28 = 0;
  EntryType type : 3 = EntryType::kObject;
  bool live : 1 = true;
};
static_assert(sizeof(HotEntry) == 24, "hot log entry must stay 24 B");

/// Reference to an entry in a specific segment.
struct LogRef {
  SegmentId segment = kInvalidSegment;
  std::uint32_t index = 0;

  bool valid() const { return segment != kInvalidSegment; }
  bool operator==(const LogRef&) const = default;
};

/// An append-only 8 MB (by default) unit of the log. Segments are the
/// granularity of replication, disk I/O and cleaning.
class Segment {
 public:
  Segment(SegmentId id, std::uint64_t capacityBytes, sim::SimTime createdAt);

  SegmentId id() const { return id_; }
  std::uint64_t capacityBytes() const { return capacity_; }
  std::uint64_t appendedBytes() const { return appended_; }
  std::uint64_t liveBytes() const { return live_; }
  sim::SimTime createdAt() const { return createdAt_; }
  bool sealed() const { return sealed_; }
  std::size_t entryCount() const { return entries_.size(); }

  /// Entries per chunk of the hot store and of each side store.
  static constexpr std::size_t kChunkEntries = 512;
  using HotEntries = ChunkedStore<HotEntry, kChunkEntries>;

  bool hasRoom(std::uint32_t bytes) const {
    return !sealed_ && appended_ + bytes <= capacity_;
  }

  /// Appends and returns the entry index. Caller must check hasRoom().
  /// Throws std::length_error, appending nothing, if a field of `e` is
  /// beyond what the segment stores (unstorableField).
  std::uint32_t append(const LogEntry& e);

  /// Mark an entry dead (overwritten or deleted object). Returns the bytes
  /// that stopped being live: 0 if the entry was already dead.
  std::uint32_t markDead(std::uint32_t index);

  /// Seal: no further appends (head rolled over or crash replay finished).
  void seal() { sealed_ = true; }

  /// The record as it was appended (liveness as of now).
  LogEntry entry(std::uint32_t index) const;
  /// The stored per-record fields, in append order: what readers that only
  /// need sizes, keys, versions or liveness walk. An entry's address does
  /// not change while the segment lives.
  const HotEntries& hotEntries() const { return entries_; }

  /// Fraction of appended bytes still live; 0 for an empty segment.
  double utilisation() const {
    return appended_ ? static_cast<double>(live_) /
                           static_cast<double>(appended_)
                     : 0.0;
  }

 private:
  SegmentId id_;
  std::uint64_t capacity_;
  std::uint64_t appended_ = 0;
  std::uint64_t live_ = 0;
  sim::SimTime createdAt_;
  bool sealed_ = false;
  /// The LogEntry fields a completion record sets; opStatus and found
  /// share rpcSeq's word.
  struct CompletionFields {
    std::uint64_t clientId = 0;
    std::uint64_t rpcSeq : 55 = 0;
    std::uint64_t opStatus : 8 = 0;
    std::uint64_t found : 1 = 1;
  };
  static_assert(sizeof(CompletionFields) <= 16,
                "completion side record must stay <= 16 B");
  /// The LogEntry fields tx prepare and decision records set.
  struct TxFields {
    std::uint64_t clientId = 0;
    std::uint64_t rpcSeq = 0;
    std::uint64_t txId = 0;
    std::uint64_t txExpectedVersion = 0;
    TxParticipants txParticipants;
    std::uint32_t txPendingBytes = 0;
    std::uint8_t opStatus = 0;
    bool found = true;
    bool txCommit = false;
  };

  HotEntries entries_;
  /// Indexed by the HotEntry::aux of completion and of tx records.
  ChunkedStore<CompletionFields, kChunkEntries> completions_;
  ChunkedStore<TxFields, kChunkEntries> txs_;
};

}  // namespace rc::log
