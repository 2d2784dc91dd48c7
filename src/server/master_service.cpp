#include "server/master_service.hpp"

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <utility>

#include "server/backup_service.hpp"
#include "server/recovery_task.hpp"

namespace rc::server {

MasterService::MasterService(
    node::Node& node, Dispatch& dispatch, net::RpcSystem& rpc,
    const ServiceDirectory& directory, MasterParams params,
    std::function<RecoveryPlanPtr(std::uint64_t)> planLookup,
    node::NodeId coordinatorNode, sim::Rng rng)
    : node_(node),
      dispatch_(dispatch),
      rpc_(rpc),
      directory_(directory),
      params_(params),
      planLookup_(std::move(planLookup)),
      coordinator_(coordinatorNode),
      rng_(rng),
      log_(params_.log),
      cleaner_(
          log_,
          [this](const log::LogEntry& e, log::LogRef newRef) {
            if (e.type == log::EntryType::kCompletion) {
              // The backing record moved; keep the suppression table's ref
              // fresh so GC marks the relocated copy dead, not the old slot.
              unacked_.updateRecordRef(e.clientId, e.rpcSeq, newRef);
              return;
            }
            if (e.type == log::EntryType::kTxPrepare) {
              // Both the suppression table and the lock table may point at
              // a prepare record; refresh whichever still references it.
              if (e.clientId != 0) {
                unacked_.updateRecordRef(e.clientId, e.rpcSeq, newRef);
              }
              txLocks_.updatePrepareRef(e.txId, e.tableId, e.keyId, newRef);
              return;
            }
            if (e.type == log::EntryType::kTxDecision) {
              if (e.clientId != 0) {
                unacked_.updateRecordRef(e.clientId, e.rpcSeq, newRef);
              }
              txLocks_.updateDecisionRef(e.txId, e.tableId, e.keyId, newRef);
              return;
            }
            if (e.type != log::EntryType::kObject) return;
            map_.relocate(hash::Key{e.tableId, e.keyId}, e.version, newRef);
          },
          params.cleanerPolicy),
      replicaMgr_(
          node.sim(), rpc, node.id(), params_.replication,
          [this] { return backupCandidates(); },
          [this](log::SegmentId id) -> const log::Segment* {
            auto s = findSegment(id);
            return s.get();
          },
          rng_.fork(0xbac)) {
  replicaMgr_.stillAlive = [this] { return node_.cpu().poweredOn(); };
  replicaMgr_.underPressure = [this] { return dispatch_.underPressure(); };
  log_.onSegmentOpened = [this](log::Segment& seg) {
    replicaMgr_.onSegmentOpened(seg);
  };
  log_.onSegmentSealed = [this](log::Segment& seg) {
    if (!bulkMode_) replicaMgr_.sealSegment(seg);
  };
}

MasterService::~MasterService() = default;

std::vector<node::NodeId> MasterService::backupCandidates() const {
  std::vector<node::NodeId> out;
  if (directory_.liveBackups) {
    out = directory_.liveBackups();
    std::erase(out, node_.id());
  }
  return out;
}

int MasterService::concurrentStreams() const {
  const sim::SimTime cutoff = node_.sim().now() - kConcurrencyWindow;
  int n = 0;
  for (const sim::SimTime last : recentStreams_) n += last >= cutoff;
  return n;
}

void MasterService::noteStream(node::NodeId from) {
  const auto i = static_cast<std::size_t>(from);
  if (i >= recentStreams_.size()) recentStreams_.resize(i + 1, kNeverSeen);
  recentStreams_[i] = node_.sim().now();
}

void MasterService::handleRpc(const net::RpcRequest& req, node::NodeId from,
                              Responder respond) {
  // Every data-plane opcode takes the read path or the mutation pipeline;
  // a tx prepare without a payload only validates a read-only tx's read.
  ReadBody read = nullptr;
  Body mutation = nullptr;
  switch (req.op) {
    case net::Opcode::kRead:
      read = &MasterService::readBody;
      break;
    case net::Opcode::kTxPrepare:
      if (req.payloadBytes == 0) {
        read = &MasterService::validateBody;
      } else {
        mutation = &MasterService::prepareBody;
      }
      break;
    case net::Opcode::kWrite:
      mutation = &MasterService::writeBody;
      break;
    case net::Opcode::kRemove:
      mutation = &MasterService::removeBody;
      break;
    case net::Opcode::kTxDecision:
      mutation = &MasterService::decisionBody;
      break;
    case net::Opcode::kPing:
      // Pings are answered by the dispatch thread itself.
      dispatch_.enqueue([respond = std::move(respond)]() mutable {
        respond(net::RpcResponse{});
      });
      return;
    case net::Opcode::kTxVote:
      onTxVote(req, std::move(respond));
      return;
    case net::Opcode::kStartRecovery:
      onStartRecovery(req, std::move(respond));
      return;
    case net::Opcode::kServerListUpdate:
      onServerListUpdate(req, std::move(respond));
      return;
    case net::Opcode::kMigrateTablet:
      onMigrateTablet(req, std::move(respond));
      return;
    case net::Opcode::kMigrationData:
      onMigrationData(req, std::move(respond));
      return;
    default:
      reject(respond, net::Status::kError);
      return;
  }
  noteStream(from);
  // Span opened at client issue time: the elapsed stage is the
  // client->server network + transport leg.
  stampTrace(req.traceSpan, obs::TimeTrace::Stage::kNetworkRequest);
  // Admission control: shed data-plane work before it costs a worker.
  // Exempt: kTxDecision — shedding a lock release would wedge the lock
  // table — and, outside this path, pings and control plane (cheap /
  // load-shedding them hides failures) and replication+recovery (rf
  // safety) (docs/OVERLOAD.md). A tx validation is shed as a write.
  if (req.op != net::Opcode::kTxDecision) {
    const Dispatch::AdmitResult ar =
        dispatch_.admit(/*isWrite=*/read == nullptr ||
                            req.op == net::Opcode::kTxPrepare,
                        static_cast<int>(req.tenant));
    if (!ar.admitted) {
      ++stats_.shedRequests;
      // One dispatch poll to emit the rejection: cheap, but not free.
      dispatch_.enqueue([respond = std::move(respond),
                         retryAfter = ar.retryAfter]() mutable {
        net::RpcResponse r;
        r.status = net::Status::kOverloaded;
        r.a = static_cast<std::uint64_t>(retryAfter);
        respond(std::move(r));
      });
      return;
    }
  }
  auto m = std::make_shared<Request>();
  m->op = req.op;
  m->tableId = req.a;
  m->clientId = req.clientId;
  m->rpcSeq = req.rpcSeq;
  m->firstUnacked = req.firstUnacked;
  m->span = req.traceSpan;
  m->tenant = req.tenant;
  m->arrival = node_.sim().now();
  m->respond = std::move(respond);
  m->keyId = req.b;
  m->valueBytes = static_cast<std::uint32_t>(req.payloadBytes);
  m->txId = req.d;
  if (req.op == net::Opcode::kTxDecision) {
    m->commit = (req.c & 1) != 0;
    m->fromResolution = (req.c & 2) != 0;
  } else {
    m->expected = req.c;
  }
  if (req.op == net::Opcode::kTxPrepare && req.keys && !req.keys->empty()) {
    // Participant key list packed as alternating (tableId, keyId) pairs.
    auto parts = std::make_shared<
        std::vector<std::pair<std::uint64_t, std::uint64_t>>>();
    parts->reserve(req.keys->size() / 2);
    for (std::size_t i = 0; i + 1 < req.keys->size(); i += 2) {
      parts->emplace_back((*req.keys)[i], (*req.keys)[i + 1]);
    }
    m->participants = std::move(parts);
  }
  if (read == nullptr) {
    dispatch_.enqueue(guard([this, m, mutation]() mutable {
      if (admit(*m)) commit(std::move(m), mutation);
    }));
    return;
  }
  if (req.op == net::Opcode::kRead) map_.prefetch(hash::Key{req.a, req.b});
  dispatch_.enqueue(guard([this, m, read]() mutable {
    if (admitRead(*m)) serveRead(std::move(m), read);
  }));
}

void MasterService::crash() {
  for (auto& rt : recoveries_) rt->abort();
  recoveries_.clear();
  for (auto& mt : migrations_) mt->abort();
  migrations_.clear();
  logLock_.reset();
  cleanerActive_ = false;
  // DRAM state dies with the node; suppression state is rebuilt from the
  // replicated kCompletion records by whichever master recovers the tablets,
  // and the tx lock table from the replicated kTxPrepare/kTxDecision records.
  unacked_.clear();
  txLocks_.clear();
  crashBeforeReplyHook_ = nullptr;
  leaseReclaim_.reset();
}

void MasterService::addTablet(const Tablet& t) {
  Tablet owned = t;
  owned.owner = node_.id();
  tablets_.push_back(owned);
  // Heat slots exist from the moment a tablet is owned (recovery and
  // migration add tablets mid-run; their probes appear on the next sample).
  TabletHeat& heat = tabletHeat_[{owned.tableId, owned.startHash}];
  if (metricReg_ != nullptr && !heat.registered) {
    registerTabletHeat(owned.tableId, owned.startHash, heat);
  }
}

const Tablet* MasterService::tabletFor(std::uint64_t tableId,
                                       std::uint64_t hash) const {
  for (const Tablet& t : tablets_) {
    if (t.covers(tableId, hash)) return &t;
  }
  return nullptr;
}

void MasterService::noteTabletOp(std::uint64_t tableId, std::uint64_t hash,
                                 bool isWrite) {
  if (const Tablet* t = tabletFor(tableId, hash)) {
    TabletHeat& heat = tabletHeat_[{t->tableId, t->startHash}];
    ++(isWrite ? heat.writes : heat.reads);
  }
}

void MasterService::registerTabletHeat(std::uint64_t tableId,
                                       std::uint64_t startHash,
                                       TabletHeat& heat) {
  char slot[64];
  std::snprintf(slot, sizeof(slot), ".tablet.heat.t%llu.h%llx",
                static_cast<unsigned long long>(tableId),
                static_cast<unsigned long long>(startHash));
  const std::string base = metricPrefix_ + slot;
  // `heat` lives in the node-keyed std::map: stable address for the probes.
  metricReg_->probeCounter(base + ".reads", "ops", [&heat] {
    return static_cast<double>(heat.reads);
  });
  metricReg_->probeCounter(base + ".writes", "ops", [&heat] {
    return static_cast<double>(heat.writes);
  });
  heat.registered = true;
}

bool MasterService::ownsKey(std::uint64_t tableId, std::uint64_t keyId) const {
  return tabletFor(tableId, hash::keyHash(hash::Key{tableId, keyId})) !=
         nullptr;
}

MasterService::ApplyResult MasterService::applyWrite(std::uint64_t tableId,
                                                     std::uint64_t keyId,
                                                     std::uint32_t valueBytes) {
  log::LogEntry e;
  e.tableId = tableId;
  e.keyId = keyId;
  e.sizeBytes = valueBytes + kObjectOverheadBytes;
  e.version = log_.nextVersion();
  e.type = log::EntryType::kObject;
  const log::LogRef ref = log_.append(e, node_.sim().now());

  if (const auto old = map_.put(hash::Key{tableId, keyId}, ref)) {
    log_.markDead(old->ref);
  }
  return ApplyResult{ref, e.version, e.sizeBytes};
}

log::LogRef MasterService::appendCompletion(std::uint64_t tableId,
                                            std::uint64_t keyId,
                                            std::uint64_t clientId,
                                            std::uint64_t seq,
                                            std::uint64_t version,
                                            net::Status status, bool found) {
  log::LogEntry c;
  c.tableId = tableId;
  c.keyId = keyId;
  c.sizeBytes = kCompletionRecordBytes;
  c.version = version;
  c.type = log::EntryType::kCompletion;
  c.clientId = clientId;
  c.rpcSeq = seq;
  c.opStatus = static_cast<std::uint8_t>(status);
  c.found = found;
  return log_.append(c, node_.sim().now());
}

void MasterService::ensureHeadRoom(std::uint32_t bytes) {
  log::Segment* head = log_.head();
  if (head != nullptr && !head->hasRoom(bytes)) log_.sealHead();
}

void MasterService::releaseCompletionRecords(
    const std::vector<log::LogRef>& freed) {
  for (const log::LogRef& ref : freed) {
    if (!ref.valid() || log_.segment(ref.segment) == nullptr) continue;
    // A freed prepare record may still back a held tx lock (the client acks
    // the prepare seq as soon as the vote reply lands, long before the
    // decision). The lock adopts the record; it is marked dead when the
    // decision releases the lock, keeping it replayable by crash recovery
    // until the transaction is actually resolved.
    if (txLocks_.adoptRecord(ref)) continue;
    log_.markDead(ref);
  }
}

void MasterService::startLeaseReclaim() {
  if (leaseReclaim_ != nullptr || !directory_.leaseValid) return;
  leaseReclaim_ = std::make_unique<sim::PeriodicTask>(
      node_.sim(), kLeaseReclaimInterval, [this](sim::SimTime) {
        if (!node_.cpu().poweredOn()) return;
        std::vector<log::LogRef> freed;
        unacked_.reclaimExpired(directory_.leaseValid, &freed);
        releaseCompletionRecords(freed);
        sweepOrphanedTx();
        std::vector<log::LogRef> txFreed;
        txLocks_.gcResolved(directory_.leaseValid, node_.sim().now(),
                            2 * kLeaseReclaimInterval, &txFreed);
        for (const log::LogRef& ref : txFreed) {
          if (ref.valid() && log_.segment(ref.segment) != nullptr) {
            log_.markDead(ref);
          }
        }
      });
}

bool MasterService::reject(Responder& respond, net::Status status) {
  net::RpcResponse r;
  r.status = status;
  respond(std::move(r));
  return false;
}

void MasterService::serveRead(RequestPtr r, ReadBody body) {
  node_.cpu().acquireWorker(guard([this, r, body](int w) mutable {
    node_.cpu().tagWorker(w, {power::OpClass::kRead, r->tenant});
    if (r->op == net::Opcode::kRead) {
      // The slot was prefetched on arrival; now pull the entry it points
      // at, which holds the version and size the reply carries.
      map_.prefetchEntry(hash::Key{r->tableId, r->keyId});
    }
    node_.sim().schedule(
        params_.readServiceTime, guard([this, r, body, w]() mutable {
          node_.cpu().releaseWorker(w);
          net::RpcResponse reply;
          if ((this->*body)(*r, reply)) {
            ++stats_.reads;
            stats_.readServiceLatency.add(node_.sim().now() - r->arrival);
            dispatch_.noteSojourn(node_.sim().now() - r->arrival);
          }
          stampTrace(r->span, obs::TimeTrace::Stage::kWorkerService);
          r->respond(std::move(reply));
        }));
  }));
}

bool MasterService::admitRead(Request& r) {
  stampTrace(r.span, obs::TimeTrace::Stage::kDispatchWait);
  const std::uint64_t h = hash::keyHash(hash::Key{r.tableId, r.keyId});
  if (tabletFor(r.tableId, h) == nullptr) {
    ++stats_.unknownTablet;
    return reject(r.respond, net::Status::kUnknownTablet);
  }
  if (r.op == net::Opcode::kTxPrepare && isMigratingRange(r.tableId, h)) {
    // A validation answers like a locking prepare: the client backs off and
    // re-routes once the coordinator flips the tablet map.
    return reject(r.respond, net::Status::kRecovering);
  }
  noteTabletOp(r.tableId, h, /*isWrite=*/false);
  return true;
}

bool MasterService::readBody(const Request& r, net::RpcResponse& reply) {
  if (const auto loc = map_.get(hash::Key{r.tableId, r.keyId})) {
    reply.a = 1;
    reply.b = loc->version;
    reply.payloadBytes = loc->sizeBytes;
    node_.chargeDram(loc->sizeBytes, {power::OpClass::kRead, r.tenant});
  } else {
    ++stats_.missingKeys;
  }
  return true;
}

bool MasterService::validateBody(const Request& r, net::RpcResponse& reply) {
  // The read version must still be current and the object unlocked. No
  // lock, no log record — the client decides locally from the votes.
  const auto loc = map_.get(hash::Key{r.tableId, r.keyId});
  reply.b = loc ? loc->version : 0;
  const TxLockTable::Lock* lock = txLocks_.get(r.tableId, r.keyId);
  if (lock != nullptr && lock->txId != r.txId) {
    reply.status = net::Status::kTxConflict;
    txLocks_.countConflict();
  } else if (reply.b != r.expected) {
    reply.status = net::Status::kVersionMismatch;
  }
  return false;
}

bool MasterService::admit(Request& m) {
  stampTrace(m.span, obs::TimeTrace::Stage::kDispatchWait);
  const std::uint64_t h = hash::keyHash(hash::Key{m.tableId, m.keyId});
  if (tabletFor(m.tableId, h) == nullptr) {
    ++stats_.unknownTablet;
    return reject(m.respond, net::Status::kUnknownTablet);
  }
  if (isMigratingRange(m.tableId, h)) {
    // The range is being shipped elsewhere; the client backs off and
    // re-routes once the coordinator flips the tablet map.
    return reject(m.respond, net::Status::kRecovering);
  }
  noteTabletOp(m.tableId, h, /*isWrite=*/true);
  if (m.clientId == 0) {
    // A locking prepare must be RIFL-tracked: without a lease there is no
    // owner to reclaim the lock from when the client dies.
    if (m.op == net::Opcode::kTxPrepare) {
      return reject(m.respond, net::Status::kError);
    }
    return true;
  }
  // RIFL admission: reject expired leases, then check the suppression
  // table before burning a worker on a duplicate.
  if (directory_.leaseValid && !directory_.leaseValid(m.clientId)) {
    return reject(m.respond, net::Status::kExpiredLease);
  }
  startLeaseReclaim();
  std::vector<log::LogRef> freed;
  const auto adm = unacked_.begin(m.clientId, m.rpcSeq, m.firstUnacked, &freed);
  releaseCompletionRecords(freed);
  switch (adm.check) {
    case UnackedRpcResults::Check::kCompleted: {
      // Duplicate of a finished op: replay the recorded outcome, never
      // re-execute (the original may have been a different value).
      net::RpcResponse r;
      r.status = static_cast<net::Status>(adm.result.status);
      r.a = adm.result.found ? 1 : 0;
      r.b = adm.result.version;
      m.respond(std::move(r));
      return false;
    }
    case UnackedRpcResults::Check::kInProgress:
      // First attempt still replicating; the retry backs off like a
      // recovery wait and re-probes.
      return reject(m.respond, net::Status::kRecovering);
    case UnackedRpcResults::Check::kStale:
      return reject(m.respond, net::Status::kStaleRpc);
    case UnackedRpcResults::Check::kNew:
      break;
  }
  return true;
}

sim::Duration MasterService::commitServiceTime(const Request& m) const {
  switch (m.op) {
    case net::Opcode::kRemove:
      return kRemoveServiceTime;
    case net::Opcode::kTxDecision:
      return params_.writeAppendCpu;
    default: {
      // Thread-handling cost under concurrency (Finding 2's root cause): the
      // more distinct streams hammer this server, the more futile context
      // switches each synced update eats. sqrt keeps the penalty sublinear,
      // as fitted to Table II.
      const int streams = concurrentStreams();
      return params_.writeAppendCpu +
             sim::usecF(kConvoyPenaltyUs *
                        std::sqrt(static_cast<double>(streams)));
    }
  }
}

void MasterService::commit(RequestPtr m, Body body) {
  node_.cpu().acquireWorker(guard([this, m, body](int w) mutable {
    node_.cpu().tagWorker(w, {power::OpClass::kUpdate, m->tenant});
    logLock_.acquire(guard([this, m, body, w]() mutable {
      node_.sim().schedule(
          commitServiceTime(*m), guard([this, m, body, w]() mutable {
            Outcome o = (this->*body)(*m);
            if (o.kind == Outcome::Kind::kRetry) {
              // Nothing mutated, so the RIFL entry rolls back (a retry
              // re-runs the check) instead of recording a durable verdict.
              if (m->clientId != 0) {
                unacked_.abortInProgress(m->clientId, m->rpcSeq);
              }
              stampTrace(m->span, obs::TimeTrace::Stage::kWorkerService);
              logLock_.release();
              m->respond(std::move(o.reply));
              node_.cpu().releaseWorker(w);
              return;
            }
            // Hash/log work done; what follows is the log-sync /
            // replication fan-out the paper's Finding 3 is about. A refusal
            // books its whole post-dispatch time to replication-wait.
            if (o.kind == Outcome::Kind::kApplied) {
              stampTrace(m->span, obs::TimeTrace::Stage::kWorkerService);
            }
            const bool refused = o.kind == Outcome::Kind::kRefused;
            const std::uint64_t bytes = o.bytes;
            const log::SegmentId segment = o.segment;
            auto finish = guard([this, m, w, o = std::move(o)](
                                    bool ok) mutable {
              finishCommit(*m, o, w, ok);
            });
            if (bytes == 0 || (refused && params_.replication.factor <= 0)) {
              finish(true);
            } else if (params_.replication.factor <= 0) {
              // Log sync without backups still pays RAMCloud's
              // thread-handling overhead (see MasterParams).
              node_.sim().schedule(
                  kUnreplicatedSyncTime,
                  guard([finish = std::move(finish)]() mutable {
                    finish(true);
                  }));
            } else {
              // A body keeps its entries in one segment (ensureHeadRoom),
              // so they sync as one append.
              replicaMgr_.replicateAppend(segment, bytes, std::move(finish));
            }
          }));
    }));
  }));
}

void MasterService::finishCommit(Request& m, Outcome& o, int w, bool ok) {
  logLock_.release();
  const bool tracked = m.clientId != 0;
  net::RpcResponse r;
  if (!ok) {
    // Nothing durably recorded: the retry re-executes. A tx decision's lock
    // stays held; the retry (or the resolution sweep) re-applies it.
    r.status = net::Status::kError;
    ++stats_.replicationFailures;
    if (tracked) unacked_.abortInProgress(m.clientId, m.rpcSeq);
    if (o.record.valid()) log_.markDead(o.record);
  } else {
    r = o.reply;
    if (o.kind == Outcome::Kind::kApplied &&
        m.op == net::Opcode::kTxPrepare) {
      lockPrepared(m, o.record);
    } else if (o.kind == Outcome::Kind::kApplied &&
               m.op == net::Opcode::kTxDecision && o.found) {
      releaseDecided(m, o.record);
    }
    if (tracked) {
      UnackedRpcResults::Result rr;
      rr.status = static_cast<std::uint8_t>(r.status);
      rr.version = r.b;
      rr.found = o.found;
      rr.tableId = m.tableId;
      rr.keyId = m.keyId;
      rr.record = o.record;
      unacked_.recordCompletion(m.clientId, m.rpcSeq, rr);
    }
  }
  if (o.counted) {
    ++(m.op == net::Opcode::kRemove ? stats_.removes : stats_.writes);
    stats_.writeServiceLatency.add(node_.sim().now() - m.arrival);
    dispatch_.noteSojourn(node_.sim().now() - m.arrival);
  }
  stampTrace(m.span, obs::TimeTrace::Stage::kReplicationWait);
  if (journal_ != nullptr && o.journalSpan != 0) {
    journal_->endSpan(o.journalSpan);
  }
  if (ok && o.crashPoint && crashBeforeReplyHook_) {
    // Fault point: the op is durable (and recorded) but the reply never
    // leaves — the injector crashes us from the hook and the client's retry
    // lands on the new owner.
    auto hook = std::move(crashBeforeReplyHook_);
    crashBeforeReplyHook_ = nullptr;
    node_.cpu().releaseWorker(w);
    hook();
    return;
  }
  m.respond(std::move(r));
  node_.cpu().releaseWorker(w);
  maybeStartCleaner();
}

MasterService::Outcome MasterService::refuse(Request& m, net::Status verdict,
                                             std::uint64_t version) {
  // The refusal is an outcome too: record it durably so a duplicate retry
  // replays it instead of re-running the check against whatever exists by
  // then (a tx vote must never flip once given).
  Outcome o;
  o.kind = Outcome::Kind::kRefused;
  o.reply.status = verdict;
  o.reply.b = version;
  if (m.clientId != 0) {
    o.record = appendCompletion(m.tableId, m.keyId, m.clientId, m.rpcSeq,
                                version, verdict, true);
    o.segment = o.record.segment;
    o.bytes = kCompletionRecordBytes;
    node_.chargeDram(o.bytes, {power::OpClass::kUpdate, m.tenant});
  }
  return o;
}

MasterService::Outcome MasterService::lockConflict(
    const TxLockTable::Lock& held) {
  // A prepared minitransaction holds this object's version lock: an update
  // slipping underneath would invalidate the vote that participant already
  // cast. The writer retries after the decision releases the lock.
  txLocks_.countConflict();
  Outcome o;
  o.kind = Outcome::Kind::kRetry;
  o.reply.status = net::Status::kTxConflict;
  o.reply.b = held.expectedVersion;
  return o;
}

MasterService::Outcome MasterService::writeBody(Request& m) {
  if (const TxLockTable::Lock* held = txLocks_.get(m.tableId, m.keyId)) {
    return lockConflict(*held);
  }
  if (m.expected != 0) {
    // Conditional check under the append lock: an interleaved writer cannot
    // slip between check and apply.
    const auto loc = map_.get(hash::Key{m.tableId, m.keyId});
    const std::uint64_t cur = loc ? loc->version : 0;
    if (cur != m.expected) {
      return refuse(m, net::Status::kVersionMismatch, cur);
    }
  }
  const bool tracked = m.clientId != 0;
  if (tracked) {
    // The completion record must land in the same segment as the object so
    // both replicate (and recover) atomically.
    ensureHeadRoom(m.valueBytes + kObjectOverheadBytes +
                   kCompletionRecordBytes);
  }
  const ApplyResult res = applyWrite(m.tableId, m.keyId, m.valueBytes);
  Outcome o;
  o.reply.b = res.version;
  o.segment = res.ref.segment;
  o.bytes = res.entryBytes;
  o.crashPoint = true;
  if (tracked) {
    o.record = appendCompletion(m.tableId, m.keyId, m.clientId, m.rpcSeq,
                                res.version, net::Status::kOk, true);
    o.bytes += kCompletionRecordBytes;
  }
  node_.chargeDram(o.bytes, {power::OpClass::kUpdate, m.tenant});
  return o;
}

MasterService::Outcome MasterService::prepareBody(Request& m) {
  // Vote checks under the append lock: fence, lock, version. An answer
  // without a lock is not a write: it feeds neither the write counters nor
  // the sojourn estimate.
  auto answer = [this, &m](net::Status verdict, std::uint64_t version) {
    Outcome o = refuse(m, verdict, version);
    o.counted = false;
    return o;
  };
  if (txLocks_.isFencedAborted(m.txId)) {
    return answer(net::Status::kTxConflict, 0);
  }
  const auto loc = map_.get(hash::Key{m.tableId, m.keyId});
  const std::uint64_t cur = loc ? loc->version : 0;
  if (txLocks_.voteStatus(m.txId) == 2) {
    // The tx already committed here (orphan resolution beat a stale prepare
    // retry). Answer yes durably, without a lock: a version-mismatch reject
    // would make the client report abort for data that committed.
    return answer(net::Status::kOk, cur);
  }
  const TxLockTable::Lock* held = txLocks_.get(m.tableId, m.keyId);
  if (held != nullptr && held->txId != m.txId) {
    txLocks_.countConflict();
    return answer(net::Status::kTxConflict, held->expectedVersion);
  }
  // expected == 0 means blind write (same convention as a conditional
  // write).
  if (held == nullptr && m.expected != 0 && cur != m.expected) {
    return answer(net::Status::kVersionMismatch, cur);
  }
  // Vote yes: durable prepare record now, the lock once it is durable.
  ensureHeadRoom(kTxPrepareRecordBytes);
  const log::LogEntry p = TxLockTable::prepareRecord(preparedLock(m), cur);
  Outcome o;
  o.record = log_.append(p, node_.sim().now());
  o.segment = o.record.segment;
  o.bytes = p.sizeBytes;
  o.reply.b = cur;
  node_.chargeDram(p.sizeBytes, {power::OpClass::kUpdate, m.tenant});
  if (journal_ != nullptr) {
    o.journalSpan = journal_->beginSpan("tx_prepare",
                                        static_cast<int>(node_.id()), 0,
                                        m.txId);
  }
  return o;
}

void MasterService::lockPrepared(const Request& m, const log::LogRef& rec) {
  // Re-prepare by the same tx (lease-expiry retry under a new clientId):
  // drop the superseded record so it does not pin live bytes forever.
  const TxLockTable::Lock* prev = txLocks_.get(m.tableId, m.keyId);
  if (prev != nullptr && prev->prepareRecord.valid() &&
      !(prev->prepareRecord == rec) &&
      log_.segment(prev->prepareRecord.segment) != nullptr) {
    log_.markDead(prev->prepareRecord);
  }
  TxLockTable::Lock lock = preparedLock(m);
  lock.prepareRecord = rec;
  lock.preparedAt = node_.sim().now();
  lock.recordOwnedByUnacked = true;
  txLocks_.acquire(std::move(lock));
  txLocks_.countPrepare();
}

TxLockTable::Lock MasterService::preparedLock(const Request& m) {
  TxLockTable::Lock lock;
  lock.txId = m.txId;
  lock.clientId = m.clientId;
  lock.rpcSeq = m.rpcSeq;
  lock.tableId = m.tableId;
  lock.keyId = m.keyId;
  lock.pendingValueBytes = m.valueBytes;
  lock.expectedVersion = m.expected;
  lock.participants = m.participants;
  return lock;
}

MasterService::Outcome MasterService::decisionBody(Request& m) {
  const TxLockTable::Lock* lock = txLocks_.get(m.tableId, m.keyId);
  const bool tracked = m.clientId != 0;
  Outcome o;
  o.found = lock != nullptr && lock->txId == m.txId;
  if (o.found) {
    // Apply: object write (commit only) + decision record land in one
    // segment so they recover atomically.
    const std::uint32_t objBytes =
        m.commit ? lock->pendingValueBytes + kObjectOverheadBytes : 0;
    ensureHeadRoom(objBytes + kCompletionRecordBytes);
    if (m.commit) {
      const ApplyResult res =
          applyWrite(m.tableId, m.keyId, lock->pendingValueBytes);
      o.reply.b = res.version;
      o.bytes = res.entryBytes;
    }
    log::LogEntry d;
    d.tableId = m.tableId;
    d.keyId = m.keyId;
    d.sizeBytes = kCompletionRecordBytes;
    d.version = o.reply.b;
    d.type = log::EntryType::kTxDecision;
    d.clientId = tracked ? m.clientId : lock->clientId;
    d.rpcSeq = tracked ? m.rpcSeq : 0;
    d.opStatus = static_cast<std::uint8_t>(net::Status::kOk);
    d.txId = m.txId;
    d.txCommit = m.commit;
    o.record = log_.append(d, node_.sim().now());
    o.bytes += d.sizeBytes;
    node_.chargeDram(o.bytes, {power::OpClass::kUpdate, m.tenant});
    // Fault point "crash a participant mid-commit": decision durable and
    // applied, reply never leaves this node.
    o.crashPoint = true;
    if (journal_ != nullptr) {
      o.journalSpan = journal_->beginSpan(m.commit ? "tx_commit" : "tx_abort",
                                          static_cast<int>(node_.id()), 0,
                                          m.txId);
    }
  } else if (tracked) {
    // No lock for this tx here (already resolved, or never prepared): the
    // answer must still be durable so a retry replays it instead of racing
    // whatever happens later.
    const auto loc = map_.get(hash::Key{m.tableId, m.keyId});
    o.reply.b = loc ? loc->version : 0;
    ensureHeadRoom(kCompletionRecordBytes);
    o.record = appendCompletion(m.tableId, m.keyId, m.clientId, m.rpcSeq,
                                o.reply.b, net::Status::kOk, false);
    o.bytes = kCompletionRecordBytes;
    node_.chargeDram(o.bytes, {power::OpClass::kUpdate, m.tenant});
  }
  o.segment = o.record.segment;
  o.reply.a = o.found ? 1 : 0;
  return o;
}

void MasterService::releaseDecided(const Request& m, const log::LogRef& rec) {
  TxLockTable::Lock released;
  if (!txLocks_.release(m.tableId, m.keyId, m.txId, &released)) return;
  // The prepare record has served its purpose: without it, crash replay
  // cannot resurrect the lock (the decision record fences retries).
  // markDead is idempotent wrt the suppression table's later GC.
  if (released.prepareRecord.valid() &&
      log_.segment(released.prepareRecord.segment) != nullptr) {
    log_.markDead(released.prepareRecord);
  }
  txLocks_.countDecision(m.commit, m.fromResolution);
  txLocks_.noteResolved(m.txId, m.commit, released.clientId, m.tableId,
                        m.keyId, rec, m.clientId != 0, node_.sim().now());
}

void MasterService::onTxVote(const net::RpcRequest& req, Responder respond) {
  const std::uint64_t tableId = req.a;
  const std::uint64_t keyId = req.b;
  const std::uint64_t txId = req.d;
  dispatch_.enqueue(guard([this, tableId, keyId, txId,
                           respond = std::move(respond)]() mutable {
    if (!ownsKey(tableId, keyId)) {
      reject(respond, net::Status::kUnknownTablet);
      return;
    }
    net::RpcResponse r;
    const TxLockTable::Lock* lock = txLocks_.get(tableId, keyId);
    if (lock != nullptr && lock->txId == txId) {
      r.a = 1;  // prepared here: vote yes
    } else {
      const int st = txLocks_.voteStatus(txId);
      if (st == 2) {
        r.a = 2;  // decision commit already applied
      } else {
        // No vote (or already aborted). Fence the tx so a late prepare
        // cannot acquire the lock after we told the coordinator "no".
        r.a = 3;
        txLocks_.fenceAbort(txId, node_.sim().now());
      }
    }
    respond(std::move(r));
  }));
}

void MasterService::sweepOrphanedTx() {
  if (!directory_.leaseValid) return;
  const auto orphans = txLocks_.orphanedLocks(directory_.leaseValid);
  for (const TxLockTable::Lock& lock : orphans) {
    // Cooperative termination (docs/TRANSACTIONS.md): ship the tx's full
    // participant list to the coordinator, which collects votes from the
    // current owners and fans out the decision. Fire-and-forget: the sweep
    // re-requests on the next tick while the lock survives.
    net::RpcRequest req;
    req.op = net::Opcode::kTxResolve;
    req.a = lock.txId;
    req.b = lock.clientId;
    auto keys = std::make_shared<std::vector<std::uint64_t>>();
    if (lock.participants && !lock.participants->empty()) {
      keys->reserve(lock.participants->size() * 2);
      for (const auto& [t, k] : *lock.participants) {
        keys->push_back(t);
        keys->push_back(k);
      }
    } else {
      // Degenerate single-object tx: the lock itself is the only vote.
      keys->push_back(lock.tableId);
      keys->push_back(lock.keyId);
    }
    req.keys = std::move(keys);
    ++txResolveRequests_;
    rpc_.call(node_.id(), coordinator_, net::kCoordinatorPort, std::move(req),
              timeouts::kControl, [](const net::RpcResponse&) {});
  }
}

bool MasterService::installRecoveredTxLock(const log::LogEntry& prepare,
                                           const log::LogRef& ref,
                                           bool ownedByUnacked) {
  if (!txLocks_.acquire(TxLockTable::lockFor(prepare, ref, node_.sim().now(),
                                              ownedByUnacked))) {
    return false;
  }
  startLeaseReclaim();  // the sweep is what resolves orphans
  return true;
}

bool MasterService::recoverRiflRecord(const log::LogEntry& e,
                                      const log::LogRef& ref) {
  // Untracked records carry no suppression entry (an untracked decision
  // keeps the lock owner's clientId, with seq 0).
  if (e.clientId == 0 || e.rpcSeq == 0) return false;
  UnackedRpcResults::Result rr;
  rr.status = e.opStatus;
  rr.version = e.version;
  rr.found = e.type != log::EntryType::kCompletion || e.found;
  rr.tableId = e.tableId;
  rr.keyId = e.keyId;
  rr.record = ref;
  return unacked_.recover(e.clientId, e.rpcSeq, rr);
}

bool MasterService::installReplayedPrepare(const log::LogEntry& e,
                                           const log::LogRef& ref) {
  const bool owned = recoverRiflRecord(e, ref);
  if (installRecoveredTxLock(e, ref, owned)) return true;
  if (!owned) log_.markDead(ref);
  return false;
}

MasterService::Outcome MasterService::removeBody(Request& m) {
  if (const TxLockTable::Lock* held = txLocks_.get(m.tableId, m.keyId)) {
    return lockConflict(*held);
  }
  const bool tracked = m.clientId != 0;
  const hash::Key k{m.tableId, m.keyId};
  const auto loc = map_.get(k);
  Outcome o;
  o.found = loc.has_value();
  o.crashPoint = true;
  if (o.found) {
    if (tracked) {
      ensureHeadRoom(kTombstoneBytes + kCompletionRecordBytes);
    }
    log::LogEntry t;
    t.tableId = m.tableId;
    t.keyId = m.keyId;
    t.sizeBytes = kTombstoneBytes;
    t.version = log_.nextVersion();
    t.type = log::EntryType::kTombstone;
    t.refSegment = loc->ref.segment;
    o.segment = log_.append(t, node_.sim().now()).segment;
    o.bytes = t.sizeBytes;
    o.reply.b = t.version;
    log_.markDead(loc->ref);
    map_.erase(k);
  }
  if (tracked) {
    // Even a not-found remove gets a record: the retry must see the original
    // answer, not whatever a later write put there.
    o.record = appendCompletion(m.tableId, m.keyId, m.clientId, m.rpcSeq,
                                o.reply.b, net::Status::kOk, o.found);
    o.segment = o.record.segment;
    o.bytes += kCompletionRecordBytes;
  }
  node_.chargeDram(o.bytes, {power::OpClass::kUpdate, m.tenant});
  o.reply.a = o.found ? 1 : 0;
  return o;
}

bool MasterService::isMigratingRange(std::uint64_t tableId,
                                     std::uint64_t hash) const {
  for (const auto& m : migrations_) {
    if (m->tablet().covers(tableId, hash)) return true;
  }
  return false;
}

void MasterService::startMigration(const Tablet& tablet,
                                   node::NodeId destination) {
  auto task = std::make_unique<MigrationTask>(*this, tablet, destination);
  MigrationTask* raw = task.get();
  migrations_.push_back(std::move(task));
  raw->start();
}

std::vector<log::LogEntry> MasterService::takeMigrationBatch(
    std::uint64_t batchId) {
  for (auto& m : migrations_) {
    auto batch = m->takeBatch(batchId);
    if (!batch.empty()) return batch;
  }
  return {};
}

void MasterService::dropObjectForMigration(const hash::Key& k) {
  if (const auto loc = map_.get(k)) {
    log_.markDead(loc->ref);
    map_.erase(k);
  }
}

void MasterService::removeTablet(const Tablet& t) {
  std::erase_if(tablets_, [&t](const Tablet& mine) {
    return mine.tableId == t.tableId && mine.startHash == t.startHash &&
           mine.endHash == t.endHash;
  });
}

void MasterService::onMigrationTaskFinished(MigrationTask* task) {
  node_.sim().schedule(0, guard([this, task] {
    std::erase_if(migrations_, [task](const std::unique_ptr<MigrationTask>& p) {
      return p.get() == task;
    });
  }));
}

void MasterService::onMigrateTablet(const net::RpcRequest& req,
                                    Responder respond) {
  const std::uint64_t tableId = req.a;
  const std::uint64_t start = req.b;
  const std::uint64_t end = req.c;
  const auto dest = static_cast<node::NodeId>(req.d);
  dispatch_.enqueue(guard([this, tableId, start, end, dest,
                           respond = std::move(respond)]() mutable {
    // Must own exactly this tablet.
    const Tablet* mine = nullptr;
    for (const Tablet& t : tablets_) {
      if (t.tableId == tableId && t.startHash == start && t.endHash == end) {
        mine = &t;
        break;
      }
    }
    if (mine == nullptr || directory_.masterOn(dest) == nullptr) {
      reject(respond, net::Status::kError);
      return;
    }
    respond(net::RpcResponse{});  // ack; completion via kMigrationDone
    startMigration(*mine, dest);
  }));
}

void MasterService::onMigrationData(const net::RpcRequest& req,
                                    Responder respond) {
  const auto source = static_cast<node::NodeId>(req.a);
  const std::uint64_t batchId = req.b;
  const std::uint64_t count = req.c;

  dispatch_.enqueue(guard([this, source, batchId, count,
                           respond = std::move(respond)]() mutable {
    node_.cpu().acquireWorker(guard([this, source, batchId, count,
                                     respond =
                                         std::move(respond)](int w) mutable {
      node_.cpu().tagWorker(w, {power::OpClass::kMigration, 0});
      const sim::Duration cpu =
          kMigrationDestPerObjectCpu * static_cast<sim::Duration>(count);
      node_.sim().schedule(cpu, guard([this, source, batchId, w,
                                       respond =
                                           std::move(respond)]() mutable {
        MasterService* src = directory_.masterOn(source);
        if (src == nullptr) {
          reject(respond, net::Status::kError);
          node_.cpu().releaseWorker(w);
          return;
        }
        const std::vector<log::LogEntry> batch =
            src->takeMigrationBatch(batchId);
        std::uint64_t bytes = 0;
        log::SegmentId lastSeg = log::kInvalidSegment;
        for (const log::LogEntry& e : batch) {
          log::LogEntry copy = e;
          copy.live = true;
          const log::LogRef ref = log_.append(copy, node_.sim().now());
          bytes += e.sizeBytes;
          lastSeg = ref.segment;
          if (e.type == log::EntryType::kCompletion) {
            // Migrated suppression state: install, never index.
            if (!recoverRiflRecord(e, ref)) log_.markDead(ref);
            continue;
          }
          if (e.type == log::EntryType::kTxPrepare) {
            // A version lock moves with its tablet: re-install it and its
            // suppression entry so the new owner votes consistently and the
            // orphan sweep here can finish the tx (docs/TRANSACTIONS.md).
            if (installReplayedPrepare(e, ref)) txLocks_.countMigrated();
            continue;
          }
          map_.put(hash::Key{e.tableId, e.keyId}, ref);
        }
        node_.chargeDram(bytes, {power::OpClass::kMigration, 0});
        net::RpcResponse r;
        r.a = batch.size();
        auto finish = guard([this, w, r,
                             respond = std::move(respond)](bool ok) mutable {
          if (!ok) r.status = net::Status::kError;
          respond(std::move(r));
          node_.cpu().releaseWorker(w);
          maybeStartCleaner();
        });
        if (params_.replication.factor <= 0 ||
            lastSeg == log::kInvalidSegment) {
          finish(true);
        } else {
          // Durability before ack: the batch is synced like a write (seal
          // hooks true up any bytes that landed in earlier segments).
          replicaMgr_.replicateAppend(lastSeg, bytes, std::move(finish));
        }
      }));
    }));
  }));
}

void MasterService::onStartRecovery(const net::RpcRequest& req,
                                    Responder respond) {
  const std::uint64_t planId = req.a;
  const int partition = static_cast<int>(req.b);
  dispatch_.enqueue(guard([this, planId, partition,
                           respond = std::move(respond)]() mutable {
    RecoveryPlanPtr plan = planLookup_ ? planLookup_(planId) : nullptr;
    if (!plan || partition < 0 ||
        partition >= static_cast<int>(plan->partitions.size())) {
      reject(respond, net::Status::kError);
      return;
    }
    respond(net::RpcResponse{});  // ack start; completion arrives via
                            // kRecoveryDone
    startRecovery(std::move(plan), partition);
  }));
}

void MasterService::onServerListUpdate(const net::RpcRequest& req,
                                       Responder respond) {
  const auto dead = static_cast<node::NodeId>(req.a);
  dispatch_.enqueue(guard([this, dead,
                           respond = std::move(respond)]() mutable {
    // Invalidate every replica slot pointing at the dead server and kick
    // off background repair; in-flight recoveries fail over their segment
    // fetches immediately instead of waiting out the RPC timeout.
    replicaMgr_.onBackupFailed(dead);
    for (auto& rt : recoveries_) rt->onBackupDown(dead);
    respond(net::RpcResponse{});
  }));
}

void MasterService::startRecovery(RecoveryPlanPtr plan, int partitionIndex) {
  auto task = std::make_unique<RecoveryTask>(*this, std::move(plan),
                                             partitionIndex);
  RecoveryTask* raw = task.get();
  recoveries_.push_back(std::move(task));
  raw->start();
}

void MasterService::onRecoveryTaskFinished(RecoveryTask* task) {
  // Deferred erase: the task may still be on the call stack.
  node_.sim().schedule(0, guard([this, task] {
    std::erase_if(recoveries_, [task](const std::unique_ptr<RecoveryTask>& p) {
      return p.get() == task;
    });
  }));
}

void MasterService::bulkInsert(std::uint64_t tableId, std::uint64_t keyId,
                               std::uint32_t valueBytes) {
  bulkMode_ = true;
  applyWrite(tableId, keyId, valueBytes);
  bulkMode_ = false;
}

void MasterService::installReplicasAfterBulkLoad() {
  if (params_.replication.factor <= 0) return;
  for (const auto& [segId, seg] : log_.segments()) {
    const auto* placement = replicaMgr_.placementOf(segId);
    if (placement == nullptr) continue;
    for (node::NodeId b : *placement) {
      if (BackupService* bs = directory_.backupOn(b)) {
        bs->bulkInstallFrame(node_.id(), seg, seg->appendedBytes(),
                             seg->sealed(), /*onDisk=*/seg->sealed());
      }
    }
  }
}

std::shared_ptr<const log::Segment> MasterService::findSegment(
    log::SegmentId id) const {
  if (auto s = log_.sharedSegment(id)) return s;
  for (const auto& rt : recoveries_) {
    // Side-log segments are resolved through the task's log.
    if (auto s = rt->sideSegment(id)) return s;
  }
  return nullptr;
}

void MasterService::registerMetrics(obs::MetricRegistry& reg,
                                    const std::string& prefix) {
  // Every probe reads a live counter; registration order is export order.
  auto probe = [&](const char* name, const char* unit, auto read) {
    reg.probeCounter(prefix + name, unit,
                     [read] { return static_cast<double>(read()); });
  };
  auto gauge = [&](const char* name, auto read) {
    reg.probeGauge(prefix + name, "items",
                   [read] { return static_cast<double>(read()); });
  };
  probe(".reads", "ops", [this] { return stats_.reads; });
  probe(".writes", "ops", [this] { return stats_.writes; });
  probe(".removes", "ops", [this] { return stats_.removes; });
  probe(".missing_keys", "ops", [this] { return stats_.missingKeys; });
  probe(".unknown_tablet", "ops", [this] { return stats_.unknownTablet; });
  probe(".cleaner_runs", "ops", [this] { return stats_.cleanerRuns; });
  probe(".replication_failures", "ops",
        [this] { return stats_.replicationFailures; });
  probe(".shed_requests", "ops", [this] { return stats_.shedRequests; });
  probe(".cleaner_deferrals", "ops",
        [this] { return stats_.cleanerDeferrals; });
  probe(".replication.repairs_deferred", "ops",
        [this] { return replicaMgr_.repairsDeferred(); });
  gauge(".log_lock_waiters", [this] { return logLock_.waiters(); });
  gauge(".log_segments", [this] { return log_.segments().size(); });
  gauge(".objects", [this] { return map_.size(); });
  reg.probeHistogram(prefix + ".read_service", "us",
                     [this]() -> const sim::Histogram* {
                       return &stats_.readServiceLatency;
                     });
  reg.probeHistogram(prefix + ".write_service", "us",
                     [this]() -> const sim::Histogram* {
                       return &stats_.writeServiceLatency;
                     });
  probe(".replication.bytes", "bytes",
        [this] { return replicaMgr_.bytesReplicated(); });
  probe(".replication.timeouts", "ops",
        [this] { return replicaMgr_.replicaTimeouts(); });
  probe(".replication.replacements", "ops",
        [this] { return replicaMgr_.replacementsMade(); });
  gauge(".replication.pending_async",
        [this] { return replicaMgr_.pendingAsyncWrites(); });
  probe(".linearize.duplicates_suppressed", "ops",
        [this] { return unacked_.duplicatesSuppressed(); });
  probe(".linearize.completion_records", "ops",
        [this] { return unacked_.completionsRecorded(); });
  probe(".linearize.records_recovered", "ops",
        [this] { return unacked_.recordsRecovered(); });
  probe(".linearize.records_gced", "ops",
        [this] { return unacked_.recordsGced(); });
  probe(".linearize.stale_rejected", "ops",
        [this] { return unacked_.staleRejected(); });
  probe(".linearize.expired_clients", "ops",
        [this] { return unacked_.clientsExpired(); });
  gauge(".linearize.tracked_clients",
        [this] { return unacked_.trackedClients(); });
  probe(".tx.prepares", "ops", [this] { return txLocks_.prepares(); });
  probe(".tx.commits", "ops", [this] { return txLocks_.commits(); });
  probe(".tx.aborts", "ops", [this] { return txLocks_.aborts(); });
  probe(".tx.conflicts", "ops", [this] { return txLocks_.conflicts(); });
  probe(".tx.orphans_resolved", "ops",
        [this] { return txLocks_.orphansResolved(); });
  probe(".tx.locks_recovered", "ops",
        [this] { return txLocks_.locksRecovered(); });
  probe(".tx.locks_migrated", "ops",
        [this] { return txLocks_.locksMigrated(); });
  probe(".tx.resolve_requests", "ops", [this] { return txResolveRequests_; });
  gauge(".tx.locks_held", [this] { return txLocks_.locksHeld(); });
  // Tablet heat: probes for tablets owned now, plus dynamic registration
  // for tablets gained later (recovery, migration) via addTablet.
  metricReg_ = &reg;
  metricPrefix_ = prefix;
  for (auto& [key, heat] : tabletHeat_) {
    if (!heat.registered) registerTabletHeat(key.first, key.second, heat);
  }
}

void MasterService::maybeStartCleaner() {
  if (cleanerActive_ || !log_.needsCleaning()) return;
  // Degradation ladder (docs/OVERLOAD.md): while the node is shedding, the
  // cleaner's CPU and replication bandwidth go to foreground work. Deferred,
  // not cancelled — every write completion re-checks — and the deferral
  // stops at the hard memory ceiling, where cleaning beats admission.
  if (dispatch_.underPressure() &&
      static_cast<double>(log_.memoryInUse()) <
          kCleanerDeferUtilization *
              static_cast<double>(log_.params().capacityBytes)) {
    ++stats_.cleanerDeferrals;
    return;
  }
  cleanerActive_ = true;
  cleanerLoop();
}

void MasterService::cleanerLoop() {
  if (!node_.cpu().poweredOn() || !log_.needsCleaning()) {
    cleanerActive_ = false;
    return;
  }
  const log::SegmentId victim = cleaner_.selectVictim(node_.sim().now());
  if (victim == log::kInvalidSegment) {
    cleanerActive_ = false;
    return;
  }
  const log::Segment* seg = log_.segment(victim);
  const std::uint64_t liveBytes = seg != nullptr ? seg->liveBytes() : 0;
  const sim::Duration cost =
      kCleanerPassCpu +
      sim::nsec(static_cast<sim::Duration>(
          kCleanerPerByteCpuNs * static_cast<double>(liveBytes)));
  // One journal span per pass; cleaner passes on a node are serialized by
  // cleanerActive_, so these spans never overlap per actor.
  std::uint64_t passSpan = 0;
  if (journal_ != nullptr) {
    passSpan = journal_->beginSpan("cleaner_pass", node_.id());
    journal_->addBytes(passSpan, liveBytes);
  }
  node_.cpu().run(cost, {power::OpClass::kCleaner, 0},
                  guard([this, victim, liveBytes, passSpan] {
    if (log_.segment(victim) != nullptr) {
      // Relocations run under the same single-threaded event, so they
      // cannot interleave with a write's append (documented simplification
      // of RAMCloud's fine-grained cleaner/append synchronisation).
      cleaner_.cleanSegment(victim, node_.sim().now());
      replicaMgr_.freeSegment(victim);
      ++stats_.cleanerRuns;
      node_.chargeDram(liveBytes, {power::OpClass::kCleaner, 0});
    }
    if (journal_ != nullptr && passSpan != 0) journal_->endSpan(passSpan);
    cleanerLoop();
  }));
}

}  // namespace rc::server
