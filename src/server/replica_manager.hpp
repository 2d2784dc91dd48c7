#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "log/segment.hpp"
#include "net/rpc.hpp"
#include "node/node.hpp"
#include "obs/event_journal.hpp"
#include "server/common.hpp"
#include "sim/inline_task.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace rc::server {

/// Master-side CPU to build and send one replication RPC. Charged to the
/// worker holding the update (it stays busy-spinning through the sync) —
/// this, plus the ack wait, is the paper's Finding-3 contention.
inline constexpr sim::Duration kPerReplicaSendCpu = sim::usec(18);

/// Master-side CPU to process one replication acknowledgement.
inline constexpr sim::Duration kAckProcessing = sim::usec(15);

/// Overload degradation (docs/OVERLOAD.md): while the owning node is
/// shedding, background-repair rounds are stretched by this factor — but
/// only when every damaged segment still has >= 1 healthy replica, so the
/// deferral can never widen a full-exposure window.
inline constexpr int kPressureStretch = 4;

struct ReplicationParams {
  /// Replicas per segment (the paper sweeps 1..5; 0 disables durability,
  /// as in the paper's Sections IV-V).
  int factor = 0;

  /// Strong consistency: the update is acknowledged to the client only
  /// after every backup acked (paper SS VI). false = the SS IX-B ablation
  /// (fire-and-forget replication, relaxed consistency).
  bool waitForAcks = true;

  /// SS IX-B's other proposal: one-sided RDMA writes into backup frames.
  /// The master posts a DMA (~1 us CPU) and the backup's CPU is not
  /// involved at all — the NIC deposits the bytes and the completion is
  /// polled. Keeps the ack wait (consistency preserved) but removes the
  /// CPU contention of Finding 3.
  bool oneSidedRdma = false;

  /// Replacement attempts when a backup times out before giving up.
  int maxRetries = 3;

  /// Wait before re-sending after a failed replica write, and between
  /// background-repair rounds (deterministic jitter; see sim::Backoff).
  Backoff retryBackoff{sim::msec(2), sim::msec(200)};
};

/// Manages segment replica placement and replication traffic for one
/// master (RAMCloud's ReplicaManager + ReplicatedSegment).
class ReplicaManager {
 public:
  using DoneFn = sim::InlineFunction<void(bool ok)>;
  /// Candidate backup nodes (alive, backup service up, excluding self).
  using CandidatesFn = std::function<std::vector<node::NodeId>()>;
  /// Resolve one of this master's segments (for watermark resends).
  using SegmentLookupFn =
      std::function<const log::Segment*(log::SegmentId)>;

  /// Background repairs emit "rereplication" spans on `self` into
  /// `journal`. A recovery task's side-log manager passes nullptr: its
  /// repairs emit no span (the task journals its own side-log
  /// replication).
  ReplicaManager(sim::Simulation& sim, net::RpcSystem& rpc,
                 node::NodeId self, ReplicationParams params,
                 CandidatesFn candidates, SegmentLookupFn segmentLookup,
                 obs::EventJournal* journal, sim::Rng rng);

  /// Recovery tasks destroy their ReplicaManager mid-run; the pending
  /// repair-tick event must not outlive `this` (eager O(log n) cancel),
  /// and in-flight writes find `life_` expired and drop their replies.
  ~ReplicaManager();

  /// Pick `factor` distinct backups for a fresh segment (random scatter —
  /// RAMCloud's placement, chosen so recovery can enlist many machines).
  void onSegmentOpened(const log::Segment& seg);

  /// Replicate `bytes` just appended to `segId`, in the caller's worker
  /// context: replicas are serviced one after another and `done` runs when
  /// the last ack arrives (or immediately if waitForAcks is false).
  void replicateAppend(log::SegmentId segId, std::uint64_t bytes,
                       DoneFn done);

  /// Asynchronously replicate the still-unreplicated tail of a sealed
  /// segment and mark replicas closed (triggers backup disk flushes).
  void sealSegment(const log::Segment& seg);

  /// Replicate an entire (sealed) segment in one batched write per replica
  /// — the recovery-replay path. Sequential per replica; `done` runs after
  /// the last (flush-gated) ack.
  void replicateWholeSegment(const log::Segment& seg, DoneFn done);

  /// Tell the replicas' backups to drop a cleaned segment.
  void freeSegment(log::SegmentId segId);

  /// A backup died (coordinator broadcast / local timeout evidence): every
  /// placement slot pointing at it is invalidated and a background-repair
  /// loop re-replicates the affected segments — open heads up to their
  /// watermark, sealed segments in full — onto fresh backups, with capped
  /// exponential backoff between rounds.
  void onBackupFailed(node::NodeId backup);

  /// Replica slots currently missing across all segments (invalidated by a
  /// backup death and not yet repaired, plus under-placed segments). The
  /// cluster-level `cluster.rf_deficit` gauge sums this over live masters.
  std::uint64_t rfDeficit() const;

  /// Replication writes in flight that nobody is waiting on (seal tails).
  std::uint64_t pendingAsyncWrites() const { return pendingAsync_; }

  const std::vector<node::NodeId>* placementOf(log::SegmentId segId) const;

  std::uint64_t replicaTimeouts() const { return replicaTimeouts_; }
  std::uint64_t replacementsMade() const { return replacements_; }
  /// Cumulative payload bytes pushed to backups (all replicas counted).
  std::uint64_t bytesReplicated() const { return bytesReplicated_; }
  const ReplicationParams& params() const { return params_; }

  /// Aliveness guard supplied by the owning master (crash safety).
  std::function<bool()> stillAlive;

  /// Overload probe supplied by the owning master (dispatch shedding state);
  /// unset or false means repair runs at full cadence.
  std::function<bool()> underPressure;

  /// Repair rounds stretched because the node was shedding.
  std::uint64_t repairsDeferred() const { return repairsDeferred_; }

 private:
  struct SegmentState {
    std::vector<node::NodeId> backups;
    std::uint64_t bytesSent = 0;  ///< per-replica watermark (kept in sync)
    bool closedSent = false;
    int repairsInFlight = 0;
  };

  void sendChain(log::SegmentId segId, std::uint64_t bytes, bool close,
                 std::size_t replicaIdx, int retriesLeft, DoneFn done);
  node::NodeId pickReplacement(const std::vector<node::NodeId>& current);
  void scheduleRepair();
  void repairTick();
  void repairSlot(log::SegmentId segId, std::size_t slot);
  bool anySegmentFullyExposed() const;

  sim::Simulation& sim_;
  net::RpcSystem& rpc_;
  node::NodeId self_;
  ReplicationParams params_;
  CandidatesFn candidates_;
  SegmentLookupFn segmentLookup_;
  obs::EventJournal* journal_;
  sim::Rng rng_;

  std::unordered_map<log::SegmentId, SegmentState> segments_;
  std::uint64_t pendingAsync_ = 0;
  std::uint64_t replicaTimeouts_ = 0;
  std::uint64_t replacements_ = 0;
  std::uint64_t bytesReplicated_ = 0;
  std::uint64_t repairsDeferred_ = 0;
  bool repairScheduled_ = false;
  sim::EventId repairEvent_ = sim::kInvalidEvent;
  int repairAttempt_ = 0;

  /// Lifetime token: every send timer, RPC reply and ack/backoff
  /// continuation holds a weak_ptr to it and touches `this` only while it
  /// is alive, so a manager destroyed with writes in flight (a recovery
  /// task's side log) turns them into no-ops.
  std::shared_ptr<bool> life_ = std::make_shared<bool>(true);
};

}  // namespace rc::server
