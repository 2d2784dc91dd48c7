#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/token_bucket.hpp"
#include "coordinator/tablet_map.hpp"
#include "net/rpc.hpp"
#include "node/node.hpp"
#include "obs/time_trace.hpp"
#include "server/common.hpp"
#include "sim/backoff.hpp"
#include "sim/inline_task.hpp"
#include "sim/simulation.hpp"

namespace rc::client {

/// Wait between retries while the target tablet is being recovered. These
/// waits do not consume the retry budget: the op blocks until the data is
/// available again (paper Fig. 10's "client 1").
inline constexpr sim::Duration kRecoveringBackoff = sim::msec(20);
/// How long an op may block on recovery before giving up entirely.
inline constexpr sim::Duration kRecoveringDeadline = sim::seconds(180);

struct ClientParams {
  sim::Duration opTimeout = server::timeouts::kClientOp;
  /// Hard-failure retry budget (timeouts, stale routing).
  int maxRetries = 5;
  /// Capped exponential backoff between hard-failure retries, with
  /// deterministic jitter so a dead server isn't hammered by synchronized
  /// client retries (shared policy, sim/backoff.hpp).
  sim::Backoff retryBackoff{sim::msec(1), sim::msec(100)};
  /// Backoff between kOverloaded bounces. Starts above retryBackoff and
  /// caps higher: an overloaded server is alive, so the goal is spacing,
  /// not failover. The server's retry-after hint acts as a floor.
  sim::Backoff overloadBackoff{sim::msec(2), sim::msec(200)};
  /// Retry budget (docs/OVERLOAD.md): every retry — hard failure or
  /// overload bounce — reserves a token from this bucket; an empty bucket
  /// delays the retry until a token accrues, so a cluster-wide incident
  /// caps retry traffic at retryBudgetPerSec per client instead of
  /// multiplying offered load. <= 0 disables (the anti-metastability
  /// regression fixture runs that way).
  double retryBudgetPerSec = 100.0;
  double retryBudgetBurst = 20.0;
};

struct ClientStats {
  std::uint64_t opsIssued = 0;
  std::uint64_t opsSucceeded = 0;
  std::uint64_t rpcTimeouts = 0;
  std::uint64_t staleRoutes = 0;
  std::uint64_t mapRefreshes = 0;
  std::uint64_t leaseExpiries = 0;  ///< kExpiredLease responses observed
  std::uint64_t overloadedBounces = 0;  ///< kOverloaded responses observed
  std::uint64_t overloadedGiveUps = 0;  ///< ops failed after bounce budget
  std::uint64_t retryBudgetWaits = 0;   ///< retries delayed by empty bucket
};

/// RAMCloud client library: tablet-map caching, request routing, retry and
/// recovery back-off. Writes, removes and tx prepares/decisions are
/// exactly-once (RIFL, docs/LINEARIZABILITY.md).
class RamCloudClient {
 public:
  /// status + end-to-end latency (first issue to final completion,
  /// including every retry and recovery wait — the paper's Fig. 10 metric).
  using OpCallback = std::function<void(net::Status, sim::Duration)>;

  RamCloudClient(sim::Simulation& sim, net::RpcSystem& rpc,
                 node::NodeId self, node::NodeId coordinatorNode,
                 std::function<const coordinator::TabletMap*()> mapAccess,
                 obs::TimeTrace& trace, ClientParams params);

  void read(std::uint64_t tableId, std::uint64_t keyId, OpCallback cb);
  void write(std::uint64_t tableId, std::uint64_t keyId,
             std::uint32_t valueBytes, OpCallback cb);
  void remove(std::uint64_t tableId, std::uint64_t keyId, OpCallback cb);

  /// Version-carrying variants. cb(status, version, latency): for reads the
  /// version of the returned object (0 if missing); for writes the version
  /// the write produced — or, on kVersionMismatch, the current version the
  /// conditional write lost to.
  using VersionCallback =
      std::function<void(net::Status, std::uint64_t, sim::Duration)>;
  void readV(std::uint64_t tableId, std::uint64_t keyId, VersionCallback cb);
  /// Conditional write: applies only if the object's current version equals
  /// `expectedVersion` (0 = unconditional). The version check runs on the
  /// master under the append lock, so an already-applied duplicate cannot
  /// silently apply twice — the retry is either suppressed by the
  /// UnackedRpcResults table or rejected with kVersionMismatch.
  void writeV(std::uint64_t tableId, std::uint64_t keyId,
              std::uint32_t valueBytes, std::uint64_t expectedVersion,
              VersionCallback cb);

  // ----- minitransactions (docs/TRANSACTIONS.md)
  //
  // Sinfonia-style client-driven two-phase commit over RIFL. Reads join an
  // optimistic read set; writes are buffered locally; txCommit runs the
  // prepare round (per-object version locks + durable kTxPrepare records on
  // the participants) and, if every vote is yes, the decision round. Any
  // vote-no or unknown vote aborts. The locks are reclaimed through the
  // owning lease when this client dies.

  /// Open a transaction context; returns its globally-unique txId.
  std::uint64_t txBegin();
  /// Transactional read: a plain read whose observed version joins the
  /// read set; the prepare round re-validates it on the owning master.
  void txRead(std::uint64_t txId, std::uint64_t tableId, std::uint64_t keyId,
              VersionCallback cb);
  /// Buffer a write locally; nothing reaches a master until txCommit.
  void txWrite(std::uint64_t txId, std::uint64_t tableId, std::uint64_t keyId,
               std::uint32_t valueBytes);
  /// Run two-phase commit. cb status: kOk = definitely committed,
  /// kTxConflict = definitely aborted (version/lock conflict), anything
  /// else = outcome unknown to this client — crash recovery plus the
  /// orphan-resolution sweep drive it to one atomic outcome.
  void txCommit(std::uint64_t txId, OpCallback cb);

  const ClientStats& stats() const { return stats_; }
  node::NodeId nodeId() const { return self_; }

  /// Fault hook (FaultPlan client_stall): freeze the client — no new RPC
  /// issues and no lease renewals — until `d` from now. Used to drive a
  /// client past its lease expiry deterministically.
  void stallFor(sim::Duration d);

  /// Current lease (0 = none open). A stalled-out client drops to 0 when a
  /// renewal or a tracked op observes kExpiredLease, then reopens lazily.
  std::uint64_t clientId() const { return clientId_; }

  /// Client-side retry counters per opcode, mirroring the RPC system's
  /// net.rpc.timeouts.*: incremented each time an already-sent RPC is
  /// re-issued (timeout, stale route, recovering bounce, expired lease).
  std::uint64_t retriesForOpcode(net::Opcode op) const {
    return opRetries_[static_cast<std::size_t>(op)];
  }
  std::uint64_t totalRetries() const {
    std::uint64_t n = 0;
    for (const std::uint64_t v : opRetries_) n += v;
    return n;
  }

  /// kOverloaded bounces per opcode (mirrors retriesForOpcode; summed
  /// cluster-wide into net.rpc.overloaded.*).
  std::uint64_t overloadedForOpcode(net::Opcode op) const {
    return opOverloaded_[static_cast<std::size_t>(op)];
  }

  /// Tenant/op-class tag stamped on every traced span and RPC this client
  /// issues (0 = untagged). The SLO tracker keys windows by tenant; trace
  /// ring entries carry it too (docs/SLO.md).
  void setTenant(std::uint16_t tenant) { tenant_ = tenant; }

  /// Span detail of the most recently *completed* RPC attempt, captured at
  /// endSpan so workload drivers can hand the SLO tracker a full stage
  /// decomposition without a second lookup. Invalidated by timeouts
  /// (abandoned spans have no reply leg). Valid only inside the completion
  /// callback of the op that produced it — the next RPC overwrites it.
  struct LastOp {
    bool valid = false;
    std::uint64_t span = 0;
    int node = -1;  ///< serving master
    obs::TimeTrace::SpanDetail detail;
  };
  const LastOp& lastOp() const { return lastOp_; }

 private:
  /// An op's completion: final status, the reply words (a, b and
  /// payloadBytes of the final reply when it is kOk or kVersionMismatch,
  /// else zero) and the latency from first issue. Sized so a wrapped
  /// std::function callback stays inline.
  using Done = sim::InlineFunction<
      void(net::Status, const net::RpcResponse&, sim::Duration), 32>;

  /// One data-plane op, carried unchanged through every retry.
  struct OpState {
    OpState(const RamCloudClient& client, net::Opcode op,
            std::uint64_t tableId, std::uint64_t keyId,
            std::uint32_t valueBytes, Done done)
        : op(op),
          valueBytes(valueBytes),
          retriesLeft(client.params_.maxRetries),
          tableId(tableId),
          keyId(keyId),
          startedAt(client.sim_.now()),
          done(std::move(done)) {}

    net::Opcode op;
    /// Prepare ops keep their seq in outstandingSeqs_ past completion: the
    /// firstUnacked watermark must not pass a prepare whose decision is
    /// still pending, or the master GCs the prepare record while the lock
    /// still needs it. txCommit erases them after the decision round.
    bool holdSeq = false;
    std::uint32_t valueBytes;
    int retriesLeft;
    std::uint64_t tableId;
    std::uint64_t keyId;
    /// Request word c: a write's or prepare's expected version (0 = blind),
    /// a decision's commit flag.
    std::uint64_t c = 0;
    std::uint64_t txId = 0;  ///< kTxPrepare / kTxDecision
    sim::SimTime startedAt;
    /// RIFL sequence number, assigned once at the first issue of a tracked
    /// op and reused verbatim by every retry — the master's duplicate key.
    std::uint64_t seq = 0;
    /// Tx prepare: the participant list, packed.
    std::shared_ptr<const std::vector<std::uint64_t>> keys;
    Done done;
  };

  static bool tracked(const OpState& st) {
    return st.op == net::Opcode::kWrite || st.op == net::Opcode::kRemove ||
           st.op == net::Opcode::kTxDecision ||
           (st.op == net::Opcode::kTxPrepare && st.valueBytes > 0);
  }

  /// The one attempt path every data-plane RPC takes.
  void issue(OpState st);
  void start(OpState st) {
    ++stats_.opsIssued;
    issue(std::move(st));
  }
  void refreshThenIssue(OpState st);
  void openLease();
  void startRenewals();
  void noteRetry(net::Opcode op) {
    ++opRetries_[static_cast<std::size_t>(op)];
  }
  void finish(OpState& st, net::Status status,
              const net::RpcResponse& reply = net::RpcResponse{});

  /// Routing decision against the *cached* map.
  enum class Route { kOk, kRecovering, kUnknown };
  Route routeFor(std::uint64_t tableId, std::uint64_t keyId,
                 node::NodeId* target) const;

  sim::Simulation& sim_;
  net::RpcSystem& rpc_;
  node::NodeId self_;
  node::NodeId coordinator_;
  std::function<const coordinator::TabletMap*()> mapAccess_;
  /// The cluster's per-RPC time trace: every data-plane RPC attempt opens
  /// a span at issue and closes it at completion (a timed-out attempt
  /// abandons it).
  obs::TimeTrace& trace_;
  ClientParams params_;

  coordinator::TabletMap cachedMap_;  ///< empty until the first refresh
  bool refreshing_ = false;
  std::vector<OpState> refreshWaiters_;

  // ----- exactly-once state (docs/LINEARIZABILITY.md)
  std::uint64_t clientId_ = 0;
  sim::Duration leaseTerm_ = 0;
  bool openingLease_ = false;
  std::vector<OpState> leaseWaiters_;
  /// Never reset, even across lease reopen: a (clientId, seq) pair must
  /// stay unique for the client's lifetime.
  std::uint64_t nextSeq_ = 1;
  /// Seqs issued but not yet terminally completed; min() is the
  /// firstUnacked watermark stamped on every tracked RPC.
  std::set<std::uint64_t> outstandingSeqs_;
  std::unique_ptr<sim::PeriodicTask> renewTask_;
  sim::SimTime stalledUntil_ = 0;

  // ----- minitransaction state (docs/TRANSACTIONS.md)
  struct TxItem {
    bool written = false;
    std::uint32_t valueBytes = 0;
    bool read = false;
    std::uint64_t readVersion = 0;
  };
  struct TxState {
    std::map<std::pair<std::uint64_t, std::uint64_t>, TxItem> items;
  };
  std::map<std::uint64_t, TxState> activeTxs_;
  std::uint64_t nextTxLocal_ = 1;
  std::array<std::uint64_t, net::kOpcodeCount> opRetries_{};
  std::array<std::uint64_t, net::kOpcodeCount> opOverloaded_{};
  sim::TokenBucket retryBudget_;

  ClientStats stats_;
  std::uint16_t tenant_ = 0;
  LastOp lastOp_;
};

}  // namespace rc::client
