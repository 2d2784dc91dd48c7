#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

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
  /// for the cleaner's age heuristic.
  LogRef append(const LogEntry& e, sim::SimTime now);

  /// Mark the entry dead; no-op if its segment was already cleaned or the
  /// entry is already dead.
  void markDead(LogRef ref);

  /// The entry at `ref`, reassembled from its segment.
  LogEntry entryAt(LogRef ref) const;

  Segment* head() { return head_; }
  const Segment* segment(SegmentId id) const;
  Segment* segment(SegmentId id);

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

  std::size_t segmentCount() const { return segments_.size(); }
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

  LogParams params_;
  std::map<SegmentId, std::shared_ptr<Segment>> segments_;
  Segment* head_ = nullptr;
  SegmentId nextSegmentId_ = 0;
  std::uint64_t liveBytes_ = 0;
  std::uint64_t appendedBytes_ = 0;
  std::uint64_t nextVersion_ = 1;
};

}  // namespace rc::log
