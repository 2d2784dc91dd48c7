#include "client/ramcloud_client.hpp"

#include <algorithm>
#include <utility>

namespace rc::client {

RamCloudClient::RamCloudClient(
    sim::Simulation& sim, net::RpcSystem& rpc, node::NodeId self,
    node::NodeId coordinatorNode,
    std::function<const coordinator::TabletMap*()> mapAccess,
    ClientParams params)
    : sim_(sim),
      rpc_(rpc),
      self_(self),
      coordinator_(coordinatorNode),
      mapAccess_(std::move(mapAccess)),
      params_(params),
      retryBudget_(params.retryBudgetPerSec, params.retryBudgetBurst) {}

namespace {

// Adapters from the public callbacks to the completion every op carries.
auto latencyOnly(RamCloudClient::OpCallback cb) {
  return [cb = std::move(cb)](net::Status s, const net::RpcResponse&,
                              sim::Duration d) { cb(s, d); };
}

auto withVersion(RamCloudClient::VersionCallback cb) {
  return [cb = std::move(cb)](net::Status s, const net::RpcResponse& r,
                              sim::Duration d) { cb(s, r.b, d); };
}

}  // namespace

void RamCloudClient::read(std::uint64_t tableId, std::uint64_t keyId,
                          OpCallback cb) {
  start(OpState(*this, net::Opcode::kRead, tableId, keyId, 0,
                latencyOnly(std::move(cb))));
}

void RamCloudClient::write(std::uint64_t tableId, std::uint64_t keyId,
                           std::uint32_t valueBytes, OpCallback cb) {
  start(OpState(*this, net::Opcode::kWrite, tableId, keyId, valueBytes,
                latencyOnly(std::move(cb))));
}

void RamCloudClient::remove(std::uint64_t tableId, std::uint64_t keyId,
                            OpCallback cb) {
  start(OpState(*this, net::Opcode::kRemove, tableId, keyId, 0,
                latencyOnly(std::move(cb))));
}

void RamCloudClient::readV(std::uint64_t tableId, std::uint64_t keyId,
                           VersionCallback cb) {
  start(OpState(*this, net::Opcode::kRead, tableId, keyId, 0,
                withVersion(std::move(cb))));
}

void RamCloudClient::writeV(std::uint64_t tableId, std::uint64_t keyId,
                            std::uint32_t valueBytes,
                            std::uint64_t expectedVersion,
                            VersionCallback cb) {
  OpState st(*this, net::Opcode::kWrite, tableId, keyId, valueBytes,
             withVersion(std::move(cb)));
  st.c = expectedVersion;
  start(std::move(st));
}

std::uint64_t RamCloudClient::txBegin() {
  // (node << 40) | counter: globally unique without coordination, and the
  // node id is recoverable from the txId for diagnostics.
  const std::uint64_t txId =
      (static_cast<std::uint64_t>(self_) << 40) | nextTxLocal_++;
  activeTxs_[txId];
  return txId;
}

void RamCloudClient::txRead(std::uint64_t txId, std::uint64_t tableId,
                            std::uint64_t keyId, VersionCallback cb) {
  readV(tableId, keyId,
        [this, txId, tableId, keyId, cb = std::move(cb)](
            net::Status s, std::uint64_t version, sim::Duration lat) {
          auto it = activeTxs_.find(txId);
          if (it != activeTxs_.end() && s == net::Status::kOk) {
            TxItem& item = it->second.items[{tableId, keyId}];
            item.read = true;
            item.readVersion = version;  // 0 = key absent
          }
          cb(s, version, lat);
        });
}

void RamCloudClient::txWrite(std::uint64_t txId, std::uint64_t tableId,
                             std::uint64_t keyId, std::uint32_t valueBytes) {
  auto it = activeTxs_.find(txId);
  if (it == activeTxs_.end()) return;
  TxItem& item = it->second.items[{tableId, keyId}];
  item.written = true;
  // A zero-byte write would be indistinguishable on the wire from a
  // validation-only item; clamp so it still takes a lock.
  item.valueBytes = valueBytes > 0 ? valueBytes : 1;
}

void RamCloudClient::txCommit(std::uint64_t txId, OpCallback cb) {
  auto it = activeTxs_.find(txId);
  if (it == activeTxs_.end()) {
    cb(net::Status::kError, 0);
    return;
  }
  TxState tx = std::move(it->second);
  activeTxs_.erase(it);
  if (tx.items.empty()) {
    cb(net::Status::kOk, 0);
    return;
  }

  struct CommitCtx {
    std::uint64_t txId = 0;
    sim::SimTime startedAt = 0;
    OpCallback cb;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> writeKeys;
    std::shared_ptr<const std::vector<std::uint64_t>> participants;
    int pendingVotes = 0;
    bool anyNo = false;       ///< explicit, durable vote-no
    bool anyUnknown = false;  ///< vote never arrived (timeout / dead server)
    std::vector<std::uint64_t> prepareSeqs;
    int pendingDecisions = 0;
    int decisionsAcked = 0;
    int decisionsApplied = 0;  ///< acks that actually released a lock
    bool commit = false;
  };
  auto cx = std::make_shared<CommitCtx>();
  cx->txId = txId;
  cx->startedAt = sim_.now();
  cx->cb = std::move(cb);
  {
    auto packed = std::make_shared<std::vector<std::uint64_t>>();
    for (const auto& [key, item] : tx.items) {
      if (!item.written) continue;
      cx->writeKeys.push_back(key);
      packed->push_back(key.first);
      packed->push_back(key.second);
    }
    cx->participants = std::move(packed);
  }

  auto finalize = [this, cx]() {
    for (const std::uint64_t seq : cx->prepareSeqs) {
      outstandingSeqs_.erase(seq);
    }
    net::Status result;
    if (cx->commit) {
      // All participants hold a durable yes: even if a decision delivery
      // failed, cooperative termination can only conclude commit.
      result = cx->pendingDecisions == 0 &&
                       cx->decisionsAcked ==
                           static_cast<int>(cx->writeKeys.size())
                   ? net::Status::kOk
                   : net::Status::kTimeout;
    } else if (cx->anyNo || cx->decisionsApplied > 0) {
      // A durable vote-no (or an abort decision that released a lock) pins
      // the outcome: any later vote query answers "aborted". A mere no-op
      // ack (no lock found) pins nothing — resolution may have decided.
      result = net::Status::kTxConflict;
    } else {
      // Abort chosen on an unknown vote, and no abort landed on a lock: if
      // every prepare actually succeeded, resolution commits it instead.
      result = net::Status::kTimeout;
    }
    cx->cb(result, sim_.now() - cx->startedAt);
  };

  auto decisionRound = [this, cx, finalize]() {
    cx->commit = !cx->anyNo && !cx->anyUnknown;
    if (cx->writeKeys.empty()) {
      // Read-only transaction: the validation round IS the commit — if
      // every version check passed, the read set was consistent (OCC).
      finalize();
      return;
    }
    cx->pendingDecisions = static_cast<int>(cx->writeKeys.size());
    for (const auto& [tableId, keyId] : cx->writeKeys) {
      // A decision ack reports in `a` whether it released a held lock.
      OpState st(
          *this, net::Opcode::kTxDecision, tableId, keyId, 0,
          [cx, finalize](net::Status s, const net::RpcResponse& r,
                         sim::Duration) {
            if (s == net::Status::kOk) {
              ++cx->decisionsAcked;
              if (r.a != 0) ++cx->decisionsApplied;
            }
            if (--cx->pendingDecisions == 0) finalize();
          });
      st.txId = cx->txId;
      st.c = cx->commit ? 1 : 0;
      start(std::move(st));
    }
  };

  cx->pendingVotes = static_cast<int>(tx.items.size());
  for (const auto& [key, item] : tx.items) {
    OpState st(
        *this, net::Opcode::kTxPrepare, key.first, key.second,
        item.written ? item.valueBytes : 0,
        [cx, decisionRound](net::Status s, const net::RpcResponse&,
                            sim::Duration) {
          if (s == net::Status::kVersionMismatch ||
              s == net::Status::kTxConflict) {
            cx->anyNo = true;
          } else if (s != net::Status::kOk) {
            cx->anyUnknown = true;
          }
          if (--cx->pendingVotes == 0) decisionRound();
        });
    st.txId = txId;
    st.c = item.read ? item.readVersion : 0;
    st.keys = cx->participants;
    if (item.written) {
      // Tracked: pre-assign the seq so it can be held past the vote (the
      // firstUnacked watermark must not release the prepare record before
      // its decision lands).
      st.seq = nextSeq_++;
      st.holdSeq = true;
      outstandingSeqs_.insert(st.seq);
      cx->prepareSeqs.push_back(st.seq);
    }
    start(std::move(st));
  }
}

void RamCloudClient::stallFor(sim::Duration d) {
  const sim::SimTime until = sim_.now() + d;
  if (until > stalledUntil_) stalledUntil_ = until;
}

void RamCloudClient::finish(OpState& st, net::Status status,
                            const net::RpcResponse& reply) {
  if (status == net::Status::kOk) ++stats_.opsSucceeded;
  // Terminal completion acknowledges the seq: firstUnacked advances past it
  // and the masters may garbage-collect its completion record. Prepare ops
  // hold theirs until txCommit's decision round finishes (holdSeq).
  if (st.seq != 0 && !st.holdSeq) outstandingSeqs_.erase(st.seq);
  st.done(status, reply, sim_.now() - st.startedAt);
}

void RamCloudClient::openLease() {
  if (openingLease_) return;
  openingLease_ = true;
  net::RpcRequest req;
  req.op = net::Opcode::kOpenLease;
  rpc_.call(self_, coordinator_, net::kCoordinatorPort, req,
            server::timeouts::kControl, [this](const net::RpcResponse& resp) {
              openingLease_ = false;
              if (resp.status == net::Status::kOk) {
                clientId_ = resp.a;
                leaseTerm_ = static_cast<sim::Duration>(resp.b);
                startRenewals();
                auto waiters = std::move(leaseWaiters_);
                leaseWaiters_.clear();
                for (auto& w : waiters) issue(std::move(w));
              } else {
                // Coordinator unreachable: retry; queued ops stay queued.
                sim_.schedule(kRecoveringBackoff, [this] {
                  if (clientId_ == 0 && !leaseWaiters_.empty()) openLease();
                });
              }
            });
}

void RamCloudClient::startRenewals() {
  // Renew at term/4: three consecutive lost renewals are needed before the
  // lease can lapse, so a transient loss event cannot expire a live client.
  renewTask_ = std::make_unique<sim::PeriodicTask>(
      sim_, leaseTerm_ / 4, [this](sim::SimTime) {
        if (clientId_ == 0) return;
        if (sim_.now() < stalledUntil_) return;  // stalled: cannot renew
        net::RpcRequest req;
        req.op = net::Opcode::kRenewLease;
        req.a = clientId_;
        rpc_.call(self_, coordinator_, net::kCoordinatorPort, req,
                  server::timeouts::kControl,
                  [this, cid = clientId_](const net::RpcResponse& resp) {
                    if (resp.status == net::Status::kExpiredLease &&
                        clientId_ == cid) {
                      ++stats_.leaseExpiries;
                      clientId_ = 0;  // reopen lazily on the next tracked op
                    }
                  });
      });
}

RamCloudClient::Route RamCloudClient::routeFor(std::uint64_t tableId,
                                               std::uint64_t keyId,
                                               node::NodeId* target) const {
  const auto* e =
      cachedMap_.lookup(tableId, hash::keyHash(hash::Key{tableId, keyId}));
  if (e == nullptr) return Route::kUnknown;
  if (e->state == coordinator::TabletMap::TabletState::kRecovering) {
    return Route::kRecovering;
  }
  *target = e->tablet.owner;
  return Route::kOk;
}

void RamCloudClient::refreshThenIssue(OpState st) {
  refreshWaiters_.push_back(std::move(st));
  if (refreshing_) return;
  refreshing_ = true;
  ++stats_.mapRefreshes;
  net::RpcRequest req;
  req.op = net::Opcode::kGetTabletMap;
  rpc_.call(self_, coordinator_, net::kCoordinatorPort, req,
            server::timeouts::kControl, [this](const net::RpcResponse& resp) {
              if (resp.status == net::Status::kOk && mapAccess_) {
                if (const auto* m = mapAccess_()) cachedMap_ = *m;
              }
              refreshing_ = false;
              auto waiters = std::move(refreshWaiters_);
              refreshWaiters_.clear();
              for (auto& w : waiters) issue(std::move(w));
            });
}

void RamCloudClient::issue(OpState st) {
  // Fault model (client_stall): the client process is frozen — nothing
  // issues until the stall lifts. Renewals skip too, so a long stall lets
  // the lease expire and exercises the reclamation path.
  if (sim_.now() < stalledUntil_) {
    const sim::Duration wait = stalledUntil_ - sim_.now();
    sim_.schedule(wait,
                  [this, st = std::move(st)]() mutable { issue(std::move(st)); });
    return;
  }
  // Tracked mutating ops need a lease before the first attempt (and a new
  // one after an expiry); ops queue behind the open.
  if (tracked(st) && clientId_ == 0) {
    leaseWaiters_.push_back(std::move(st));
    openLease();
    return;
  }

  node::NodeId target = node::kInvalidNode;
  switch (routeFor(st.tableId, st.keyId, &target)) {
    case Route::kOk:
      break;
    case Route::kUnknown:
      if (st.retriesLeft-- <= 0) {
        finish(st, net::Status::kUnknownTablet);
        return;
      }
      refreshThenIssue(std::move(st));
      return;
    case Route::kRecovering:
      if (sim_.now() - st.startedAt > kRecoveringDeadline) {
        finish(st, net::Status::kTimeout);
        return;
      }
      sim_.schedule(kRecoveringBackoff, [this, st = std::move(st)]() mutable {
        refreshThenIssue(std::move(st));
      });
      return;
  }

  net::RpcRequest req;
  req.op = st.op;
  req.a = st.tableId;
  req.b = st.keyId;
  req.c = st.c;
  req.d = st.txId;
  // A prepare without payload is a validation-only item (no lock, no record).
  req.payloadBytes = st.valueBytes;
  req.keys = st.keys;
  if (tracked(st)) {
    if (st.seq == 0) {
      st.seq = nextSeq_++;
      outstandingSeqs_.insert(st.seq);
    }
    req.clientId = clientId_;
    req.rpcSeq = st.seq;  // retries reuse the seq: the duplicate key
    req.firstUnacked = outstandingSeqs_.empty() ? nextSeq_
                                                : *outstandingSeqs_.begin();
  }
  // One span per RPC *attempt*: retries and recovery waits open fresh
  // spans, so stage histograms describe individual RPCs, not op lifetimes.
  const std::uint64_t span = trace_ != nullptr ? trace_->beginSpan(tenant_) : 0;
  req.traceSpan = span;
  req.tenant = tenant_;

  rpc_.call(self_, target, net::kMasterPort, req, params_.opTimeout,
            [this, span, target,
             st = std::move(st)](const net::RpcResponse& resp) mutable {
    lastOp_.valid = false;
    if (trace_ != nullptr && span != 0) {
      if (resp.status == net::Status::kTimeout) {
        // The server died (or the reply was lost): the RPC never finished,
        // so drop the span rather than charging a timeout-length "reply".
        trace_->abandonSpan(span);
      } else {
        trace_->stamp(span, obs::TimeTrace::Stage::kNetworkReply, -1,
                      static_cast<std::int32_t>(self_));
        trace_->endSpan(span, &lastOp_.detail);
        lastOp_.valid = true;
        lastOp_.span = span;
        lastOp_.node = static_cast<int>(target);
      }
    }
    switch (resp.status) {
      case net::Status::kOk:
      case net::Status::kVersionMismatch:
        // Terminal. A conditional write or prepare that lost the race
        // carries the current version; the caller decides whether to
        // re-read.
        finish(st, resp.status, resp);
        return;
      case net::Status::kUnknownTablet:
        ++stats_.staleRoutes;
        break;
      case net::Status::kTimeout:
        ++stats_.rpcTimeouts;
        break;
      case net::Status::kExpiredLease:
        // The master no longer tracks us: reopen a lease (lazily, on the
        // retry) and try again. The seq is reused under the new clientId.
        ++stats_.leaseExpiries;
        clientId_ = 0;
        break;
      case net::Status::kOverloaded:
        ++stats_.overloadedBounces;
        ++opOverloaded_[static_cast<std::size_t>(st.op)];
        break;
      case net::Status::kRecovering:
        // Back off and re-route (no budget consumed: the data will come
        // back once recovery finishes).
        if (sim_.now() - st.startedAt > kRecoveringDeadline) {
          finish(st, net::Status::kTimeout);
          return;
        }
        noteRetry(st.op);
        sim_.schedule(kRecoveringBackoff,
                      [this, st = std::move(st)]() mutable {
          refreshThenIssue(std::move(st));
        });
        return;
      default:
        finish(st, resp.status);
        return;
    }
    const bool overloaded = resp.status == net::Status::kOverloaded;
    if (st.retriesLeft-- <= 0) {
      if (overloaded) ++stats_.overloadedGiveUps;
      finish(st, overloaded ? net::Status::kOverloaded : net::Status::kTimeout);
      return;
    }
    noteRetry(st.op);
    const int attempt = params_.maxRetries - st.retriesLeft - 1;
    const std::uint64_t salt = (static_cast<std::uint64_t>(self_) << 48) ^
                               (st.tableId << 32) ^ (st.keyId << 8) ^
                               static_cast<std::uint64_t>(st.startedAt);
    // Every retry draws on the retry budget: a bounce or timeout storm
    // against a struggling server is the classic metastability trigger
    // (docs/OVERLOAD.md).
    const sim::Duration budgetWait = retryBudget_.reserve(sim_.now());
    if (budgetWait > 0) ++stats_.retryBudgetWaits;
    if (overloaded) {
      // Shed by the server's admission control. The server is alive — no
      // failover, no map refresh — so just space the reissue: jittered
      // exponential backoff floored at the server's retry-after hint
      // (resp.a, ns).
      const sim::Duration wait =
          std::max(params_.overloadBackoff.delay(attempt, salt ^ 0x0ec1ULL),
                   static_cast<sim::Duration>(resp.a));
      sim_.schedule(wait + budgetWait, [this, st = std::move(st)]() mutable {
        issue(std::move(st));
      });
      return;
    }
    // Hard failure (timeout, stale routing or expired lease): back off with
    // deterministic jitter before re-resolving the route.
    sim_.schedule(params_.retryBackoff.delay(attempt, salt) + budgetWait,
                  [this, st = std::move(st)]() mutable {
      refreshThenIssue(std::move(st));
    });
  });
}

}  // namespace rc::client
