#include "log/cleaner.hpp"

#include <utility>
#include <vector>

namespace rc::log {

LogCleaner::LogCleaner(Log& log, RelocateFn relocate, CleanerPolicy policy)
    : log_(log), relocate_(std::move(relocate)), policy_(policy) {}

SegmentId LogCleaner::selectVictim(sim::SimTime now) const {
  SegmentId best = kInvalidSegment;
  double bestScore = -1.0;
  for (const auto& [id, seg] : log_.segments()) {
    if (!seg->sealed()) continue;
    const double u = seg->utilisation();
    if (u >= 0.999) continue;  // nothing to reclaim
    double score;
    if (policy_ == CleanerPolicy::kGreedy) {
      score = 1.0 - u;  // most dead space wins
    } else {
      const double age = 1.0 + sim::toSeconds(now - seg->createdAt());
      score = (1.0 - u) * age / (1.0 + u);
    }
    if (score > bestScore) {
      bestScore = score;
      best = id;
    }
  }
  return best;
}

std::uint64_t LogCleaner::cleanOnce(sim::SimTime now) {
  return cleanSegment(selectVictim(now), now);
}

std::uint64_t LogCleaner::cleanSegment(SegmentId victimId, sim::SimTime now) {
  if (victimId == kInvalidSegment) return 0;
  Segment* victim = log_.segment(victimId);
  if (victim == nullptr || !victim->sealed()) return 0;

  ++stats_.passes;
  const std::uint64_t before = victim->appendedBytes();

  // Snapshot entries: relocation appends can reshape the log but never this
  // sealed victim.
  const std::size_t n = victim->entryCount();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!victim->hotEntries()[i].live) continue;
    const LogEntry e = victim->entry(i);
    bool keep = true;
    if (e.type == EntryType::kTombstone) {
      // A tombstone only matters while the dead object's segment exists
      // (it prevents crash replay from resurrecting the object).
      keep = e.refSegment != kInvalidSegment &&
             log_.segment(e.refSegment) != nullptr &&
             e.refSegment != victimId;
      if (!keep) ++stats_.tombstonesDropped;
    }
    log_.markDead(LogRef{victimId, i});
    if (keep) {
      const LogRef newRef = log_.append(e, now);
      stats_.bytesRelocated += e.sizeBytes;
      if (relocate_) relocate_(e, newRef);
    }
  }

  log_.freeSegment(victimId);
  ++stats_.segmentsFreed;
  stats_.bytesReclaimed += before;
  return before;
}

}  // namespace rc::log
