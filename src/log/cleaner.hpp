#pragma once

#include <cstdint>
#include <functional>

#include "log/log.hpp"

namespace rc::log {

struct CleanerStats {
  std::uint64_t passes = 0;
  std::uint64_t segmentsFreed = 0;
  std::uint64_t bytesRelocated = 0;
  std::uint64_t bytesReclaimed = 0;
  std::uint64_t tombstonesDropped = 0;

  /// Write amplification: bytes copied per byte reclaimed.
  double writeAmplification() const {
    return bytesReclaimed > 0 ? static_cast<double>(bytesRelocated) /
                                    static_cast<double>(bytesReclaimed)
                              : 0.0;
  }
};

/// Victim-selection policy. RAMCloud (following LFS/Sprite) uses
/// cost-benefit; greedy (lowest utilisation first) is the classic
/// baseline it beats on skewed/aging workloads.
enum class CleanerPolicy { kCostBenefit, kGreedy };

/// RAMCloud's cost-benefit log cleaner.
///
/// Victim selection scores each sealed segment with
///   (1 - u) * age / (1 + u)
/// where u is the live fraction and age the seconds since creation
/// (older data is more stable, so copying it forward pays off for longer).
/// Live objects are relocated to the log head; tombstones are relocated
/// only while the segment holding the deleted object still exists.
///
/// The cleaner is pure storage logic: the owning master accounts its CPU
/// cost and invokes the relocation callback to fix up its hash table.
class LogCleaner {
 public:
  /// Invoked for every relocated live entry so the owner can re-point its
  /// index at `newRef`.
  using RelocateFn = std::function<void(const LogEntry&, LogRef newRef)>;

  LogCleaner(Log& log, RelocateFn relocate,
             CleanerPolicy policy = CleanerPolicy::kCostBenefit);

  /// Best victim by cost-benefit, or kInvalidSegment if nothing is
  /// cleanable (no sealed segments).
  SegmentId selectVictim(sim::SimTime now) const;

  /// Clean one victim segment. Returns bytes reclaimed (0 if nothing to
  /// clean). Relocations may seal the head and trigger log hooks.
  std::uint64_t cleanOnce(sim::SimTime now);

  /// Clean a specific (sealed) segment. Returns bytes reclaimed.
  std::uint64_t cleanSegment(SegmentId victim, sim::SimTime now);

  const CleanerStats& stats() const { return stats_; }
  CleanerPolicy policy() const { return policy_; }

 private:
  Log& log_;
  RelocateFn relocate_;
  CleanerPolicy policy_;
  CleanerStats stats_;
};

}  // namespace rc::log
