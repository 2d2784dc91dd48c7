#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "node/node.hpp"
#include "power/energy_model.hpp"
#include "sim/simulation.hpp"

namespace rc::net {

/// RPC operations understood by the cluster's services.
enum class Opcode : std::uint8_t {
  kPing,
  kRead,
  kWrite,
  kRemove,
  kBackupWrite,        ///< master -> backup: replicate segment data
  kBackupFree,         ///< coordinator -> backup: drop dead master's frames
  kGetSegmentList,     ///< coordinator -> backup: frames held for a master
  kGetRecoveryData,    ///< recovery master -> backup: filtered segment data
  kStartRecovery,      ///< coordinator -> recovery master
  kRecoveryDone,       ///< recovery master -> coordinator
  kGetTabletMap,       ///< client -> coordinator
  kEnlist,             ///< server -> coordinator (registration)
  kMigrateTablet,      ///< coordinator -> source master: start migration
  kMigrationData,      ///< source master -> destination master: batch
  kMigrationDone,      ///< source master -> coordinator
  kServerListUpdate,   ///< coordinator -> masters: a server was declared dead
  kOpenLease,          ///< client -> coordinator: obtain a client id + lease
  kRenewLease,         ///< client -> coordinator: extend an existing lease
  kTxPrepare,          ///< tx client -> participant master: lock + vote
  kTxDecision,         ///< tx client/coordinator -> participant: commit/abort
  kTxResolve,          ///< participant master -> coordinator: orphan tx found
  kTxVote,             ///< coordinator -> participant: query vote status
};

constexpr std::size_t kOpcodeCount =
    static_cast<std::size_t>(Opcode::kTxVote) + 1;

/// Stable lower-case name for metric paths ("net.rpc.timeouts.<opcode>").
const char* opcodeName(Opcode op);

/// Energy-attribution class of an opcode (docs/ENERGY.md): data-path reads
/// and updates, replication, recovery, migration, and control-plane chatter
/// each land in their own ledger row.
power::OpClass opcodeClass(Opcode op);

enum class Status : std::uint8_t {
  kOk,
  kTimeout,        ///< synthesised client-side when no reply arrives
  kUnknownTablet,  ///< wrong/stale routing: refresh the tablet map
  kRecovering,     ///< tablet currently being recovered: back off and retry
  kError,
  kOverloaded,  ///< shed by dispatch admission control; reply carries a
                ///< retry-after hint (ns) in `a` — back off, charge the
                ///< retry budget, reissue (docs/OVERLOAD.md)
  kVersionMismatch,  ///< conditional write rejected: reply carries current
                     ///< version in `b`
  kExpiredLease,     ///< master no longer tracks this client: reopen lease
  kStaleRpc,         ///< rpcSeq below the client's own firstUnacked watermark
  kTxConflict,       ///< tx prepare vote-no: object locked by another tx, or
                     ///< the transaction was already fenced aborted
};

/// Compact wire format: an opcode plus a few op-specific integer fields and
/// a payload size (bytes actually occupy simulated wire/CPU time; contents
/// are carried out-of-band through the simulator's shared memory).
struct RpcRequest {
  Opcode op = Opcode::kPing;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
  std::uint64_t payloadBytes = 0;
  /// obs::TimeTrace span carried with the request (0 = untraced). Servers
  /// stamp pipeline stages against it; costs nothing on the wire.
  std::uint64_t traceSpan = 0;
  /// Tenant/op-class tag propagated alongside the span (0 = untagged).
  /// Lets servers attribute flight-recorder stamps and future QoS
  /// decisions to the issuing tenant even for RPCs whose span the client
  /// has already abandoned (docs/SLO.md).
  std::uint16_t tenant = 0;
  /// Linearizability header (docs/LINEARIZABILITY.md). clientId == 0 means
  /// the RPC is untracked (at-least-once, the pre-RIFL behaviour); the
  /// bulk-load path stays untracked. A retried RPC carries the *same*
  /// (clientId, rpcSeq), which is what lets the owner suppress duplicates.
  std::uint64_t clientId = 0;
  std::uint64_t rpcSeq = 0;
  std::uint64_t firstUnacked = 0;  ///< master may GC results below this
  /// Key list: the participants of a kTxPrepare or kTxResolve. Shared so
  /// the copy in flight costs nothing; the wire bytes are charged via
  /// payloadBytes.
  std::shared_ptr<const std::vector<std::uint64_t>> keys;
};

struct RpcResponse {
  Status status = Status::kOk;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t payloadBytes = 0;
};

constexpr std::uint64_t kRpcHeaderBytes = 96;

/// Well-known service ports.
constexpr int kMasterPort = 1;
constexpr int kBackupPort = 2;
constexpr int kCoordinatorPort = 3;

/// A service bound to (node, port). `respond` must be invoked at most once;
/// never invoking it (e.g. because the process died) surfaces as a client
/// timeout, exactly like the real system.
class RpcService {
 public:
  virtual ~RpcService() = default;
  /// Move-only so continuations can own it without heap allocation; may
  /// capture pooled request state.
  using Responder = sim::InlineFunction<void(RpcResponse)>;
  virtual void handleRpc(const RpcRequest& req, node::NodeId from,
                         Responder respond) = 0;
};

/// Cluster-wide RPC fabric with timeouts.
///
/// Pending RPCs live in a generation-checked slab; an RPC id packs
/// (generation << 32 | slot), so a late reply to a slot since reused finds
/// a different generation and is dropped. Timeouts do not cost an event
/// per RPC. Calls sharing a timeout value share one FIFO deadline queue
/// whose (deadline, seq) keys only grow, and each queue keeps a single
/// timer armed at its head. call() reserves an event seq as if it
/// scheduled a per-RPC timer, and the queue timer is always armed under
/// its head's own (deadline, seq), so a timeout fires at exactly the point
/// in the event order a per-RPC timer would — seeded runs stay
/// bit-identical. A timer that finds its head already answered re-arms at
/// the next live entry; an emptied queue cancels its timer, so run() ends
/// where it did with per-RPC timers.
class RpcSystem {
 public:
  using ResponseFn = sim::InlineFunction<void(const RpcResponse&)>;

  RpcSystem(sim::Simulation& sim, Network& net);

  void bind(node::NodeId node, int port, RpcService* service);
  void unbind(node::NodeId node, int port);
  bool isBound(node::NodeId node, int port) const;

  /// Issue an RPC. `cb` is invoked exactly once: with the response, or with
  /// Status::kTimeout after `timeout` elapses without one.
  void call(node::NodeId from, node::NodeId to, int port, RpcRequest req,
            sim::Duration timeout, ResponseFn cb);

  std::uint64_t timeoutsObserved() const { return timeouts_; }

  /// Timeouts attributed to the request's opcode (stall attribution for
  /// chaos runs and rcdiag).
  std::uint64_t timeoutsForOpcode(Opcode op) const {
    return opTimeouts_[static_cast<std::size_t>(op)];
  }

 private:
  struct Pending {
    ResponseFn cb;
    std::uint32_t gen = 1;  ///< bumped on release; part of the RPC id
    std::uint32_t queue = 0;
    Opcode op = Opcode::kPing;
  };
  struct Deadline {
    sim::SimTime at;
    std::uint64_t seq;
    std::uint64_t rpcId;
  };
  /// Deadlines of every pending RPC issued with `timeout`, oldest first.
  /// Answered entries stay until they reach the head or a compaction.
  struct DeadlineQueue {
    sim::Duration timeout = 0;
    std::vector<Deadline> fifo;
    std::size_t head = 0;
    std::size_t live = 0;
    sim::EventId timer = sim::kInvalidEvent;
    std::uint64_t armedSeq = 0;
  };

  /// Pending entry for `rpcId`, or nullptr once answered or timed out.
  Pending* findPending(std::uint64_t rpcId) {
    const auto slot = static_cast<std::uint32_t>(rpcId & 0xffffffffu);
    Pending& p = pending_[slot];
    return p.gen == static_cast<std::uint32_t>(rpcId >> 32) ? &p : nullptr;
  }
  std::uint32_t queueFor(sim::Duration timeout);
  /// Take a pending RPC's callback and free its slot; the last live RPC
  /// of a deadline queue cancels the queue's timer.
  ResponseFn retire(std::uint64_t rpcId);
  void dropAnsweredHeads(DeadlineQueue& q);
  void armHead(std::uint32_t qi);
  void onDeadline(std::uint32_t qi);
  static std::uint64_t addrKey(node::NodeId n, int port) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(n)) << 16) |
           static_cast<std::uint64_t>(port);
  }

  /// Pooled in-flight request storage: the request travels the wire as a
  /// pointer into this free-list arena instead of being copied into (and
  /// heap-allocated by) the delivery closure. Released when the delivery
  /// event runs — or when it is destroyed undelivered (message dropped).
  /// The arena is shared-owned: pending delivery events can outlive the
  /// RpcSystem (the Simulation's event heap drains last at teardown), so
  /// each handle keeps the arena alive until it has released its slot.
  struct TxSlot {
    RpcRequest req;
    TxSlot* next = nullptr;
  };
  struct TxArena {
    std::vector<std::unique_ptr<TxSlot>> slots;
    TxSlot* free = nullptr;
    TxSlot* acquire(RpcRequest req);
    void release(TxSlot* slot);
  };
  class TxHandle {
   public:
    TxHandle(std::shared_ptr<TxArena> arena, TxSlot* slot)
        : arena_(std::move(arena)), slot_(slot) {}
    TxHandle(TxHandle&& o) noexcept
        : arena_(std::move(o.arena_)), slot_(o.slot_) {
      o.slot_ = nullptr;
    }
    TxHandle(const TxHandle&) = delete;
    TxHandle& operator=(const TxHandle&) = delete;
    TxHandle& operator=(TxHandle&&) = delete;
    ~TxHandle() {
      if (slot_ != nullptr) arena_->release(slot_);
    }
    const RpcRequest& req() const { return slot_->req; }

   private:
    std::shared_ptr<TxArena> arena_;
    TxSlot* slot_;
  };

  sim::Simulation& sim_;
  Network& net_;
  std::unordered_map<std::uint64_t, RpcService*> services_;
  std::vector<Pending> pending_;
  std::vector<std::uint32_t> freePending_;
  std::vector<DeadlineQueue> queues_;
  std::shared_ptr<TxArena> txArena_ = std::make_shared<TxArena>();
  std::uint64_t timeouts_ = 0;
  std::array<std::uint64_t, kOpcodeCount> opTimeouts_{};
};

}  // namespace rc::net
