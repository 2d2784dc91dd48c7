#include "net/rpc.hpp"

#include <algorithm>
#include <utility>

namespace rc::net {

const char* opcodeName(Opcode op) {
  switch (op) {
    case Opcode::kPing: return "ping";
    case Opcode::kRead: return "read";
    case Opcode::kWrite: return "write";
    case Opcode::kRemove: return "remove";
    case Opcode::kScan: return "scan";
    case Opcode::kMultiRead: return "multi_read";
    case Opcode::kMultiWrite: return "multi_write";
    case Opcode::kBackupWrite: return "backup_write";
    case Opcode::kBackupFree: return "backup_free";
    case Opcode::kGetSegmentList: return "get_segment_list";
    case Opcode::kGetRecoveryData: return "get_recovery_data";
    case Opcode::kStartRecovery: return "start_recovery";
    case Opcode::kRecoveryDone: return "recovery_done";
    case Opcode::kGetTabletMap: return "get_tablet_map";
    case Opcode::kEnlist: return "enlist";
    case Opcode::kMigrateTablet: return "migrate_tablet";
    case Opcode::kMigrationData: return "migration_data";
    case Opcode::kMigrationDone: return "migration_done";
    case Opcode::kServerListUpdate: return "server_list_update";
    case Opcode::kOpenLease: return "open_lease";
    case Opcode::kRenewLease: return "renew_lease";
    case Opcode::kTxPrepare: return "tx_prepare";
    case Opcode::kTxDecision: return "tx_decision";
    case Opcode::kTxResolve: return "tx_resolve";
    case Opcode::kTxVote: return "tx_vote";
  }
  return "unknown";
}

power::OpClass opcodeClass(Opcode op) {
  switch (op) {
    case Opcode::kRead:
    case Opcode::kScan:
    case Opcode::kMultiRead:
      return power::OpClass::kRead;
    case Opcode::kWrite:
    case Opcode::kRemove:
    case Opcode::kMultiWrite:
    case Opcode::kTxPrepare:
    case Opcode::kTxDecision:
      return power::OpClass::kUpdate;
    case Opcode::kBackupWrite:
      return power::OpClass::kReplication;
    case Opcode::kBackupFree:
    case Opcode::kGetSegmentList:
    case Opcode::kGetRecoveryData:
    case Opcode::kStartRecovery:
    case Opcode::kRecoveryDone:
      return power::OpClass::kRecovery;
    case Opcode::kMigrateTablet:
    case Opcode::kMigrationData:
    case Opcode::kMigrationDone:
      return power::OpClass::kMigration;
    case Opcode::kPing:
    case Opcode::kGetTabletMap:
    case Opcode::kEnlist:
    case Opcode::kServerListUpdate:
    case Opcode::kOpenLease:
    case Opcode::kRenewLease:
    case Opcode::kTxResolve:
    case Opcode::kTxVote:
      return power::OpClass::kControl;
  }
  return power::OpClass::kUnattributed;
}

RpcSystem::RpcSystem(sim::Simulation& sim, Network& net)
    : sim_(sim), net_(net) {}

void RpcSystem::bind(node::NodeId node, int port, RpcService* service) {
  services_[addrKey(node, port)] = service;
}

void RpcSystem::unbind(node::NodeId node, int port) {
  services_.erase(addrKey(node, port));
}

bool RpcSystem::isBound(node::NodeId node, int port) const {
  return services_.count(addrKey(node, port)) > 0;
}

RpcSystem::TxSlot* RpcSystem::TxArena::acquire(RpcRequest req) {
  TxSlot* slot = free;
  if (slot != nullptr) {
    free = slot->next;
    slot->next = nullptr;
  } else {
    slots.push_back(std::make_unique<TxSlot>());
    slot = slots.back().get();
  }
  slot->req = std::move(req);
  return slot;
}

void RpcSystem::TxArena::release(TxSlot* slot) {
  slot->req = RpcRequest{};  // drop the shared key list promptly
  slot->next = free;
  free = slot;
}

std::uint32_t RpcSystem::queueFor(sim::Duration timeout) {
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    if (queues_[i].timeout == timeout) return static_cast<std::uint32_t>(i);
  }
  queues_.emplace_back().timeout = timeout;
  return static_cast<std::uint32_t>(queues_.size() - 1);
}

RpcSystem::ResponseFn RpcSystem::retire(std::uint64_t rpcId) {
  const auto slot = static_cast<std::uint32_t>(rpcId & 0xffffffffu);
  Pending& p = pending_[slot];
  ResponseFn cb = std::move(p.cb);
  if (++p.gen == 0) p.gen = 1;
  freePending_.push_back(slot);
  DeadlineQueue& q = queues_[p.queue];
  if (--q.live == 0) {
    sim_.cancel(q.timer);
    q.timer = sim::kInvalidEvent;
    q.fifo.clear();
    q.head = 0;
  }
  return cb;
}

void RpcSystem::dropAnsweredHeads(DeadlineQueue& q) {
  while (q.head < q.fifo.size() &&
         findPending(q.fifo[q.head].rpcId) == nullptr) {
    ++q.head;
  }
}

void RpcSystem::armHead(std::uint32_t qi) {
  DeadlineQueue& q = queues_[qi];
  dropAnsweredHeads(q);
  const Deadline& h = q.fifo[q.head];
  q.armedSeq = h.seq;
  q.timer = sim_.scheduleAtSeq(h.at, h.seq, [this, qi] { onDeadline(qi); });
}

void RpcSystem::onDeadline(std::uint32_t qi) {
  DeadlineQueue& q = queues_[qi];
  q.timer = sim::kInvalidEvent;
  dropAnsweredHeads(q);
  // The queue still holds a live RPC: an emptied queue cancels its timer.
  const Deadline head = q.fifo[q.head];
  if (head.seq != q.armedSeq) {
    armHead(qi);  // the armed RPC was answered; wait for the next one
    return;
  }
  const Opcode op = findPending(head.rpcId)->op;
  ++q.head;
  ResponseFn cb = retire(head.rpcId);
  if (q.live > 0) armHead(qi);
  ++opTimeouts_[static_cast<std::size_t>(op)];
  ++timeouts_;
  RpcResponse resp;
  resp.status = Status::kTimeout;
  cb(resp);
}

void RpcSystem::call(node::NodeId from, node::NodeId to, int port,
                     RpcRequest req, sim::Duration timeout, ResponseFn cb) {
  // The timeout takes its place in the event order here, before the
  // request's own delivery event.
  const sim::SimTime deadline =
      sim_.now() + std::max<sim::Duration>(timeout, 0);
  const std::uint64_t seq = sim_.reserveSeq();
  std::uint32_t slot;
  if (!freePending_.empty()) {
    slot = freePending_.back();
    freePending_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  }
  const std::uint32_t qi = queueFor(timeout);
  Pending& p = pending_[slot];
  p.cb = std::move(cb);
  p.queue = qi;
  p.op = req.op;
  const std::uint64_t rpcId = (static_cast<std::uint64_t>(p.gen) << 32) | slot;

  DeadlineQueue& q = queues_[qi];
  if (q.fifo.size() >= 2 * q.live + 64) {
    // Answered entries pile up behind a long-lived head; drop them (and
    // the consumed prefix) so the queue stays proportional to live RPCs.
    std::erase_if(q.fifo, [this](const Deadline& d) {
      return findPending(d.rpcId) == nullptr;
    });
    q.head = 0;
  }
  q.fifo.push_back(Deadline{deadline, seq, rpcId});
  ++q.live;
  if (q.timer == sim::kInvalidEvent) armHead(qi);

  const std::uint64_t wireBytes = kRpcHeaderBytes + req.payloadBytes;
  const power::EnergyTag tag{opcodeClass(req.op), req.tenant};
  TxHandle tx(txArena_, txArena_->acquire(std::move(req)));
  net_.send(from, to, wireBytes,
            [this, rpcId, from, to, port, tag, tx = std::move(tx)] {
    auto it = services_.find(addrKey(to, port));
    if (it == services_.end()) return;  // dead service: caller times out
    RpcService* service = it->second;
    auto respond = [this, rpcId, from, to, tag](RpcResponse resp) {
      net_.send(to, from, kRpcHeaderBytes + resp.payloadBytes,
                [this, rpcId, resp] {
        if (findPending(rpcId) == nullptr) return;  // already timed out
        ResponseFn cb = retire(rpcId);
        cb(resp);
      }, tag);
    };
    service->handleRpc(tx.req(), from, std::move(respond));
  }, tag);
}

}  // namespace rc::net
