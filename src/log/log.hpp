#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "log/segment.hpp"

namespace rc::log {

struct LogParams {
  std::uint64_t segmentBytes = 8 * 1024 * 1024;  ///< RAMCloud's 8 MB
  std::uint64_t capacityBytes = 10ULL * 1024 * 1024 * 1024;  ///< 10 GB/server
  /// Cleaning starts above this fraction of capacity appended-and-unfreed.
  double cleanerThreshold = 0.90;
  /// First segment id this log allocates. Each log instance in a cluster
  /// gets a disjoint range so LogRefs stay unambiguous when recovery
  /// side-log segments are adopted into a master's main log.
  SegmentId segmentIdBase = 1;
};

/// Append-only log-structured memory of one master.
///
/// Objects and tombstones are appended to the head segment; when the head
/// fills it is sealed (hook: replication closes the replicas) and a fresh
/// head is opened (hook: replication opens replicas on freshly-chosen
/// backups). Dead entries accumulate until the cleaner reclaims segments.
class Log {
 public:
  explicit Log(LogParams params);

  /// Called when the head seals (for replication close + disk flush).
  std::function<void(Segment&)> onSegmentSealed;
  /// Called when a new head opens (for replica placement).
  std::function<void(Segment&)> onSegmentOpened;

  /// Append an entry; rolls the head if needed. `now` timestamps segments
  /// for the cleaner's age heuristic. Throws std::invalid_argument, and
  /// changes nothing, if the entry is larger than a segment or has a field
  /// a segment cannot store (unstorableField).
  LogRef append(const LogEntry& e, sim::SimTime now);

  /// Mark the entry dead; no-op if its segment was already cleaned or the
  /// entry is already dead.
  void markDead(LogRef ref);

  /// The entry at `ref`, reassembled from its segment.
  LogEntry entryAt(LogRef ref) const;

  /// The stored fields of the entry at `ref`, whose segment must exist.
  const HotEntry& hotEntry(LogRef ref) const {
    const Segment* seg = segment(ref.segment);
    assert(seg != nullptr && ref.index < seg->entryCount());
    return seg->hotEntries()[ref.index];
  }

  /// Start pulling the entry at `ref` into cache; no effect if there is no
  /// such entry.
  void prefetch(LogRef ref) const {
    const Segment* seg = segment(ref.segment);
    if (seg != nullptr && ref.index < seg->entryCount()) {
      __builtin_prefetch(&seg->hotEntries()[ref.index]);
    }
  }

  Segment* head() { return head_; }
  /// The segment with this id, or nullptr: two array reads, no search.
  const Segment* segment(SegmentId id) const {
    const std::size_t page = pageOf(id);
    if (page >= pages_.size()) return nullptr;
    const auto& slots = pages_[page];
    const std::size_t off = id & kPageMask;
    return off < slots.size() ? slots[off].get() : nullptr;
  }
  Segment* segment(SegmentId id) {
    return const_cast<Segment*>(std::as_const(*this).segment(id));
  }

  /// Remove a (cleaned) segment and reclaim its space.
  void freeSegment(SegmentId id);

  /// Force-seal the current head (end of replay / shutdown).
  void sealHead();

  /// Shared handle to a segment (backups keep replica snapshots alive even
  /// after the owning log frees or crashes). nullptr if unknown.
  std::shared_ptr<const Segment> sharedSegment(SegmentId id) const;

  /// Adopt a foreign segment (recovery side-log commit). The id must not
  /// collide — guaranteed by disjoint segmentIdBase ranges.
  void adopt(std::shared_ptr<Segment> seg);

  std::uint64_t liveBytes() const { return liveBytes_; }
  std::uint64_t appendedBytes() const { return appendedBytes_; }

  /// Bytes of address space consumed: segments currently allocated.
  std::uint64_t memoryInUse() const {
    return static_cast<std::uint64_t>(segments_.size()) *
           params_.segmentBytes;
  }

  bool needsCleaning() const {
    return static_cast<double>(memoryInUse()) >
           params_.cleanerThreshold * static_cast<double>(params_.capacityBytes);
  }

  /// Every segment in id order (walks: cleaner victim choice, replica
  /// installs, tests). Lookups by id go through segment().
  const std::map<SegmentId, std::shared_ptr<Segment>>& segments() const {
    return segments_;
  }
  const LogParams& params() const { return params_; }

  std::uint64_t nextVersion() { return nextVersion_++; }

  /// Keep the version counter ahead of an entry that carries a version
  /// assigned elsewhere (recovery replay, migration batches). Without this
  /// a destination log could hand a key the same version twice — an ABA
  /// hazard for conditional writes.
  void noteVersion(std::uint64_t v) {
    if (v >= nextVersion_) nextVersion_ = v + 1;
  }

 private:
  Segment& openNewHead(sim::SimTime now);
  /// Add `seg` to segments_ and the lookup table.
  void insert(std::shared_ptr<Segment> seg);

  /// The lookup table is a vector of pages, each indexed by an id's low
  /// kSideLogIdBits bits. Ids below kSideLogIdBase (a master's own log)
  /// use the even pages, side-log blocks the odd ones, so both id families
  /// fill the table densely from page 0.
  static constexpr SegmentId kPageMask = (1u << kSideLogIdBits) - 1;
  static std::size_t pageOf(SegmentId id) {
    const std::size_t block = (id & ~kSideLogIdBase) >> kSideLogIdBits;
    return 2 * block + (id >= kSideLogIdBase ? 1 : 0);
  }

  LogParams params_;
  std::map<SegmentId, std::shared_ptr<Segment>> segments_;
  std::vector<std::vector<std::shared_ptr<Segment>>> pages_;
  Segment* head_ = nullptr;
  SegmentId nextSegmentId_ = 0;
  std::uint64_t liveBytes_ = 0;
  std::uint64_t appendedBytes_ = 0;
  std::uint64_t nextVersion_ = 1;
};

}  // namespace rc::log
