#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "log/segment.hpp"
#include "server/common.hpp"

namespace rc::server {

/// One recovery master's share of a crashed master's data: a set of
/// key-hash subranges (derived from the crashed master's will).
struct PartitionSpec {
  std::vector<Tablet> ranges;

  bool covers(std::uint64_t tableId, std::uint64_t hash) const {
    for (const Tablet& t : ranges) {
      if (t.covers(tableId, hash)) return true;
    }
    return false;
  }
};

/// The coordinator's plan for recovering one crashed master, shared with
/// the participating backups and recovery masters. (In RAMCloud this state
/// travels inside the recovery RPCs; here the RPCs carry a plan id and the
/// plan structure is read through the ServiceDirectory — the bytes on the
/// wire are still accounted via the RPC payload sizes.)
struct RecoveryPlan {
  std::uint64_t planId = 0;
  ServerId crashedMaster = node::kInvalidNode;

  /// Journal context: the coordinator's recovery id and its root
  /// "recovery" span, so recovery masters and backups parent their phase
  /// spans into the same cross-node span tree (0 when tracing is off).
  std::uint64_t recoveryId = 0;
  std::uint64_t rootSpan = 0;

  std::vector<PartitionSpec> partitions;
  std::vector<ServerId> recoveryMasters;  ///< partition index -> master

  struct SegmentSource {
    log::SegmentId segment = log::kInvalidSegment;
    std::uint64_t bytes = 0;               ///< replicated watermark
    std::vector<node::NodeId> backups;     ///< replica holders (primary first)
  };
  std::vector<SegmentSource> segments;
};

using RecoveryPlanPtr = std::shared_ptr<const RecoveryPlan>;

}  // namespace rc::server
