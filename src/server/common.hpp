#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hash/object_map.hpp"
#include "node/node.hpp"
#include "sim/backoff.hpp"

namespace rc::server {

/// RAMCloud server id. Masters and backups are collocated one per node in
/// the paper's deployment, so server id == node id here.
using ServerId = node::NodeId;

/// A contiguous range of the 64-bit key-hash space of one table, owned by
/// one master. [startHash, endHash] inclusive.
struct Tablet {
  std::uint64_t tableId = 0;
  std::uint64_t startHash = 0;
  std::uint64_t endHash = ~0ULL;
  ServerId owner = node::kInvalidNode;

  bool covers(std::uint64_t tableId_, std::uint64_t hash) const {
    return tableId == tableId_ && hash >= startHash && hash <= endHash;
  }
};

class MasterService;
class BackupService;

/// How simulator components find each other's *state* (the data plane's
/// bytes travel out-of-band through shared memory; all *timing* is still
/// paid through RPCs, CPU tasks and disk operations).
struct ServiceDirectory {
  std::function<MasterService*(node::NodeId)> masterOn;
  std::function<BackupService*(node::NodeId)> backupOn;
  /// Nodes with a live backup service (replica-placement candidates).
  std::function<std::vector<node::NodeId>()> liveBackups;
  /// Coordinator lease check: is this client id's lease still valid?
  /// Masters consult it on every tracked RPC and in the reclamation sweep
  /// (content-plane side channel; lease *grants* still travel as RPCs).
  std::function<bool(std::uint64_t)> leaseValid;
  /// First segment id of a new recovery side log: a fresh block per call,
  /// counted per cluster (log::sideLogIdBase), so a cluster's ids do not
  /// depend on what else ran in the process.
  std::function<log::SegmentId()> nextSideLogBase;
};

/// Default RPC deadlines.
namespace timeouts {
constexpr sim::Duration kClientOp = sim::seconds(1);
constexpr sim::Duration kReplication = sim::msec(800);
constexpr sim::Duration kPing = sim::msec(150);
constexpr sim::Duration kRecoveryData = sim::seconds(30);
constexpr sim::Duration kControl = sim::seconds(5);
}  // namespace timeouts

/// The shared jittered-backoff policy lives in sim/backoff.hpp; server and
/// client retry paths use the same type so their schedules stay comparable.
using Backoff = sim::Backoff;

}  // namespace rc::server
