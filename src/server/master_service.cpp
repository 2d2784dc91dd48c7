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
            const hash::Key k{e.tableId, e.keyId};
            if (auto* loc = map_.getMutable(k);
                loc != nullptr && loc->version == e.version) {
              loc->ref = newRef;
            }
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
  const sim::SimTime cutoff = node_.sim().now() - params_.concurrencyWindow;
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
  if (req.op == net::Opcode::kRead || req.op == net::Opcode::kWrite ||
      req.op == net::Opcode::kRemove || req.op == net::Opcode::kTxPrepare ||
      req.op == net::Opcode::kTxDecision) {
    noteStream(from);
    // Span opened at client issue time: the elapsed stage is the
    // client->server network + transport leg.
    stampTrace(req.traceSpan, obs::TimeTrace::Stage::kNetworkRequest);
  }
  // Admission control: shed data-plane work before it costs a worker.
  // Exempt: pings and control plane (cheap / load-shedding them hides
  // failures), replication+recovery (rf safety), and kTxDecision — shedding
  // a lock release would wedge the lock table (docs/OVERLOAD.md).
  switch (req.op) {
    case net::Opcode::kRead:
    case net::Opcode::kWrite:
    case net::Opcode::kRemove:
    case net::Opcode::kTxPrepare:
    case net::Opcode::kScan:
    case net::Opcode::kMultiRead:
    case net::Opcode::kMultiWrite: {
      const bool isWrite = req.op != net::Opcode::kRead &&
                           req.op != net::Opcode::kScan &&
                           req.op != net::Opcode::kMultiRead;
      const Dispatch::AdmitResult ar =
          dispatch_.admit(isWrite, static_cast<int>(req.tenant));
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
      break;
    }
    default:
      break;
  }
  switch (req.op) {
    case net::Opcode::kPing: {
      // Pings are answered by the dispatch thread itself.
      dispatch_.enqueue([respond = std::move(respond)]() mutable {
        respond(net::RpcResponse{});
      });
      break;
    }
    case net::Opcode::kRead:
      onRead(req, std::move(respond));
      break;
    case net::Opcode::kWrite:
      onMutation(req, std::move(respond), &MasterService::writeBody);
      break;
    case net::Opcode::kTxPrepare:
      onMutation(req, std::move(respond), &MasterService::prepareBody);
      break;
    case net::Opcode::kTxDecision:
      onMutation(req, std::move(respond), &MasterService::decisionBody);
      break;
    case net::Opcode::kTxVote:
      onTxVote(req, std::move(respond));
      break;
    case net::Opcode::kRemove:
      onMutation(req, std::move(respond), &MasterService::removeBody);
      break;
    case net::Opcode::kScan:
      onScan(req, std::move(respond));
      break;
    case net::Opcode::kMultiRead:
      onMultiRead(req, std::move(respond));
      break;
    case net::Opcode::kMultiWrite:
      onMutation(req, std::move(respond), &MasterService::multiWriteBody);
      break;
    case net::Opcode::kStartRecovery:
      onStartRecovery(req, std::move(respond));
      break;
    case net::Opcode::kServerListUpdate:
      onServerListUpdate(req, std::move(respond));
      break;
    case net::Opcode::kMigrateTablet:
      onMigrateTablet(req, std::move(respond));
      break;
    case net::Opcode::kMigrationData:
      onMigrationData(req, std::move(respond));
      break;
    default: {
      net::RpcResponse r;
      r.status = net::Status::kError;
      respond(std::move(r));
    }
  }
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

void MasterService::noteTabletOp(std::uint64_t tableId, std::uint64_t keyId,
                                 bool isWrite) {
  const std::uint64_t h = hash::keyHash(hash::Key{tableId, keyId});
  for (const Tablet& t : tablets_) {
    if (t.covers(tableId, h)) {
      TabletHeat& heat = tabletHeat_[{t.tableId, t.startHash}];
      if (isWrite) {
        ++heat.writes;
      } else {
        ++heat.reads;
      }
      return;
    }
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
  const std::uint64_t h = hash::keyHash(hash::Key{tableId, keyId});
  for (const Tablet& t : tablets_) {
    if (t.covers(tableId, h)) return true;
  }
  return false;
}

MasterService::ApplyResult MasterService::applyWrite(std::uint64_t tableId,
                                                     std::uint64_t keyId,
                                                     std::uint32_t valueBytes) {
  log::LogEntry e;
  e.tableId = tableId;
  e.keyId = keyId;
  e.sizeBytes = valueBytes + params_.objectOverheadBytes;
  e.version = log_.nextVersion();
  e.type = log::EntryType::kObject;
  const log::LogRef ref = log_.append(e, node_.sim().now());

  const hash::Key k{tableId, keyId};
  if (const auto* old = map_.get(k)) log_.markDead(old->ref);
  map_.put(k, hash::ObjectLocation{ref, e.version, e.sizeBytes});
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
  c.sizeBytes = params_.completionRecordBytes;
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
      node_.sim(), params_.leaseReclaimInterval, [this](sim::SimTime) {
        if (!node_.cpu().poweredOn()) return;
        std::vector<log::LogRef> freed;
        unacked_.reclaimExpired(directory_.leaseValid, &freed);
        releaseCompletionRecords(freed);
        sweepOrphanedTx();
        std::vector<log::LogRef> txFreed;
        txLocks_.gcResolved(directory_.leaseValid, node_.sim().now(),
                            2 * params_.leaseReclaimInterval, &txFreed);
        for (const log::LogRef& ref : txFreed) {
          if (ref.valid() && log_.segment(ref.segment) != nullptr) {
            log_.markDead(ref);
          }
        }
      });
}

void MasterService::onRead(const net::RpcRequest& req, Responder respond) {
  const std::uint64_t tableId = req.a;
  const std::uint64_t keyId = req.b;
  const std::uint64_t span = req.traceSpan;
  const std::uint16_t tenant = req.tenant;
  const sim::SimTime arrival = node_.sim().now();
  map_.prefetch(hash::Key{tableId, keyId});

  dispatch_.enqueue(guard([this, tableId, keyId, span, arrival, tenant,
                           respond = std::move(respond)]() mutable {
    stampTrace(span, obs::TimeTrace::Stage::kDispatchWait);
    if (!ownsKey(tableId, keyId)) {
      ++stats_.unknownTablet;
      net::RpcResponse r;
      r.status = net::Status::kUnknownTablet;
      respond(std::move(r));
      return;
    }
    noteTabletOp(tableId, keyId, /*isWrite=*/false);
    node_.cpu().acquireWorker(guard([this, tableId, keyId, span, arrival,
                                     tenant,
                                     respond =
                                         std::move(respond)](int w) mutable {
      node_.cpu().tagWorker(w, {power::OpClass::kRead, tenant});
      node_.sim().schedule(
          params_.readServiceTime,
          guard([this, tableId, keyId, span, arrival, tenant, w,
                 respond = std::move(respond)]() mutable {
            node_.cpu().releaseWorker(w);
            const auto* loc = map_.get(hash::Key{tableId, keyId});
            net::RpcResponse r;
            if (loc != nullptr) {
              r.a = 1;
              r.b = loc->version;
              r.payloadBytes = loc->sizeBytes;
              node_.chargeDram(loc->sizeBytes,
                               {power::OpClass::kRead, tenant});
            } else {
              r.a = 0;
              ++stats_.missingKeys;
            }
            ++stats_.reads;
            stats_.readServiceLatency.add(node_.sim().now() - arrival);
            dispatch_.noteSojourn(node_.sim().now() - arrival);
            stampTrace(span, obs::TimeTrace::Stage::kWorkerService);
            respond(std::move(r));
          }));
    }));
  }));
}

void MasterService::onMutation(const net::RpcRequest& req, Responder respond,
                               Body body) {
  auto m = std::make_shared<Mutation>();
  m->op = req.op;
  m->tableId = req.a;
  m->clientId = req.clientId;
  m->rpcSeq = req.rpcSeq;
  m->firstUnacked = req.firstUnacked;
  m->span = req.traceSpan;
  m->tenant = req.tenant;
  m->arrival = node_.sim().now();
  m->respond = std::move(respond);
  if (req.op == net::Opcode::kMultiWrite) {
    m->valueBytes = static_cast<std::uint32_t>(req.b);
    m->keys = req.keys;
  } else {
    m->keyId = req.b;
    m->valueBytes = static_cast<std::uint32_t>(req.payloadBytes);
    m->txId = req.d;
    if (req.op == net::Opcode::kTxDecision) {
      m->commit = (req.c & 1) != 0;
      m->fromResolution = (req.c & 2) != 0;
    } else {
      m->expected = req.c;
    }
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
  dispatch_.enqueue(guard([this, m, body]() mutable {
    if (!admit(*m)) return;
    if (m->validateOnly()) {
      validatePrepare(std::move(m));  // reads only: no commit
    } else {
      commit(std::move(m), body);
    }
  }));
}

bool MasterService::admit(Mutation& m) {
  auto reject = [&m](net::Status status) {
    net::RpcResponse r;
    r.status = status;
    m.respond(std::move(r));
    return false;
  };
  stampTrace(m.span, obs::TimeTrace::Stage::kDispatchWait);
  if (m.op == net::Opcode::kMultiWrite) {
    // A batch is checked key by key (ownership, fence, lock) in its body.
    if (!m.keys || m.keys->empty()) return reject(net::Status::kError);
  } else {
    if (!ownsKey(m.tableId, m.keyId)) {
      ++stats_.unknownTablet;
      return reject(net::Status::kUnknownTablet);
    }
    if (isMigratingRange(m.tableId,
                         hash::keyHash(hash::Key{m.tableId, m.keyId}))) {
      // The range is being shipped elsewhere; the client backs off and
      // re-routes once the coordinator flips the tablet map.
      return reject(net::Status::kRecovering);
    }
    noteTabletOp(m.tableId, m.keyId, /*isWrite=*/!m.validateOnly());
  }
  if (m.validateOnly()) return true;
  if (m.clientId == 0) {
    // A locking prepare must be RIFL-tracked: without a lease there is no
    // owner to reclaim the lock from when the client dies.
    if (m.op == net::Opcode::kTxPrepare) return reject(net::Status::kError);
    return true;
  }
  // RIFL admission: reject expired leases, then check the suppression
  // table before burning a worker on a duplicate.
  if (directory_.leaseValid && !directory_.leaseValid(m.clientId)) {
    return reject(net::Status::kExpiredLease);
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
      return reject(net::Status::kRecovering);
    case UnackedRpcResults::Check::kStale:
      return reject(net::Status::kStaleRpc);
    case UnackedRpcResults::Check::kNew:
      break;
  }
  return true;
}

sim::Duration MasterService::commitServiceTime(const Mutation& m) const {
  switch (m.op) {
    case net::Opcode::kRemove:
      return params_.removeServiceTime;
    case net::Opcode::kTxDecision:
      return params_.writeAppendCpu;
    case net::Opcode::kMultiWrite:
      return params_.multiOpBaseCpu +
             params_.multiWritePerKeyCpu *
                 static_cast<sim::Duration>(m.keys->size());
    default: {
      // Thread-handling cost under concurrency (Finding 2's root cause): the
      // more distinct streams hammer this server, the more futile context
      // switches each synced update eats. sqrt keeps the penalty sublinear,
      // as fitted to Table II.
      const int streams = concurrentStreams();
      return params_.writeAppendCpu +
             sim::usecF(params_.convoyPenaltyUs *
                        std::sqrt(static_cast<double>(streams)));
    }
  }
}

void MasterService::commit(MutationPtr m, Body body) {
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
                  params_.unreplicatedSyncTime,
                  guard([finish = std::move(finish)]() mutable {
                    finish(true);
                  }));
            } else {
              // A single-key body keeps its entries in one segment
              // (ensureHeadRoom), so they sync as one append. A multi-write
              // syncs its bytes against the head; segments it filled are
              // closed by the seal chain.
              replicaMgr_.replicateAppend(segment, bytes, std::move(finish));
            }
          }));
    }));
  }));
}

void MasterService::finishCommit(Mutation& m, Outcome& o, int w, bool ok) {
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
  if (o.counted > 0) {
    (m.op == net::Opcode::kRemove ? stats_.removes : stats_.writes) +=
        o.counted;
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

MasterService::Outcome MasterService::refuse(Mutation& m, net::Status verdict,
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
    o.bytes = params_.completionRecordBytes;
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

MasterService::Outcome MasterService::writeBody(Mutation& m) {
  if (const TxLockTable::Lock* held = txLocks_.get(m.tableId, m.keyId)) {
    return lockConflict(*held);
  }
  if (m.expected != 0) {
    // Conditional check under the append lock: an interleaved writer cannot
    // slip between check and apply.
    const auto* loc = map_.get(hash::Key{m.tableId, m.keyId});
    const std::uint64_t cur = loc != nullptr ? loc->version : 0;
    if (cur != m.expected) {
      return refuse(m, net::Status::kVersionMismatch, cur);
    }
  }
  const bool tracked = m.clientId != 0;
  if (tracked) {
    // The completion record must land in the same segment as the object so
    // both replicate (and recover) atomically.
    ensureHeadRoom(m.valueBytes + params_.objectOverheadBytes +
                   params_.completionRecordBytes);
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
    o.bytes += params_.completionRecordBytes;
  }
  node_.chargeDram(o.bytes, {power::OpClass::kUpdate, m.tenant});
  return o;
}

void MasterService::validatePrepare(MutationPtr m) {
  // Validation-only item (read-only transaction, docs/TRANSACTIONS.md):
  // check the read version is still current and the object unlocked. No
  // lock, no log record — the client decides locally from the votes.
  node_.cpu().acquireWorker(guard([this, m](int w) mutable {
    node_.cpu().tagWorker(w, {power::OpClass::kRead, m->tenant});
    node_.sim().schedule(
        params_.readServiceTime, guard([this, m, w]() mutable {
          node_.cpu().releaseWorker(w);
          const auto* loc = map_.get(hash::Key{m->tableId, m->keyId});
          const std::uint64_t cur = loc != nullptr ? loc->version : 0;
          const TxLockTable::Lock* lock = txLocks_.get(m->tableId, m->keyId);
          net::RpcResponse r;
          r.b = cur;
          if (lock != nullptr && lock->txId != m->txId) {
            r.status = net::Status::kTxConflict;
            txLocks_.countConflict();
          } else if (cur != m->expected) {
            r.status = net::Status::kVersionMismatch;
          }
          stampTrace(m->span, obs::TimeTrace::Stage::kWorkerService);
          m->respond(std::move(r));
        }));
  }));
}

MasterService::Outcome MasterService::prepareBody(Mutation& m) {
  // Vote checks under the append lock: fence, lock, version. An answer
  // without a lock is not a write: it feeds neither the write counters nor
  // the sojourn estimate.
  auto answer = [this, &m](net::Status verdict, std::uint64_t version) {
    Outcome o = refuse(m, verdict, version);
    o.counted = 0;
    return o;
  };
  if (txLocks_.isFencedAborted(m.txId)) {
    return answer(net::Status::kTxConflict, 0);
  }
  const auto* loc = map_.get(hash::Key{m.tableId, m.keyId});
  const std::uint64_t cur = loc != nullptr ? loc->version : 0;
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
  ensureHeadRoom(params_.txPrepareRecordBytes);
  log::LogEntry p;
  p.tableId = m.tableId;
  p.keyId = m.keyId;
  p.sizeBytes = params_.txPrepareRecordBytes;
  p.version = cur;
  p.type = log::EntryType::kTxPrepare;
  p.clientId = m.clientId;
  p.rpcSeq = m.rpcSeq;
  p.opStatus = static_cast<std::uint8_t>(net::Status::kOk);
  p.txId = m.txId;
  p.txPendingBytes = m.valueBytes;
  p.txExpectedVersion = m.expected;
  p.txParticipants = m.participants;
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

void MasterService::lockPrepared(const Mutation& m, const log::LogRef& rec) {
  // Re-prepare by the same tx (lease-expiry retry under a new clientId):
  // drop the superseded record so it does not pin live bytes forever.
  const TxLockTable::Lock* prev = txLocks_.get(m.tableId, m.keyId);
  if (prev != nullptr && prev->prepareRecord.valid() &&
      !(prev->prepareRecord == rec) &&
      log_.segment(prev->prepareRecord.segment) != nullptr) {
    log_.markDead(prev->prepareRecord);
  }
  TxLockTable::Lock lock;
  lock.txId = m.txId;
  lock.clientId = m.clientId;
  lock.rpcSeq = m.rpcSeq;
  lock.tableId = m.tableId;
  lock.keyId = m.keyId;
  lock.pendingValueBytes = m.valueBytes;
  lock.expectedVersion = m.expected;
  lock.prepareRecord = rec;
  lock.participants = m.participants;
  lock.preparedAt = node_.sim().now();
  lock.recordOwnedByUnacked = true;
  txLocks_.acquire(std::move(lock));
  txLocks_.countPrepare();
}

MasterService::Outcome MasterService::decisionBody(Mutation& m) {
  const TxLockTable::Lock* lock = txLocks_.get(m.tableId, m.keyId);
  const bool tracked = m.clientId != 0;
  Outcome o;
  o.found = lock != nullptr && lock->txId == m.txId;
  if (o.found) {
    // Apply: object write (commit only) + decision record land in one
    // segment so they recover atomically.
    const std::uint32_t objBytes =
        m.commit ? lock->pendingValueBytes + params_.objectOverheadBytes : 0;
    ensureHeadRoom(objBytes + params_.completionRecordBytes);
    if (m.commit) {
      const ApplyResult res =
          applyWrite(m.tableId, m.keyId, lock->pendingValueBytes);
      o.reply.b = res.version;
      o.bytes = res.entryBytes;
    }
    log::LogEntry d;
    d.tableId = m.tableId;
    d.keyId = m.keyId;
    d.sizeBytes = params_.completionRecordBytes;
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
    const auto* loc = map_.get(hash::Key{m.tableId, m.keyId});
    o.reply.b = loc != nullptr ? loc->version : 0;
    ensureHeadRoom(params_.completionRecordBytes);
    o.record = appendCompletion(m.tableId, m.keyId, m.clientId, m.rpcSeq,
                                o.reply.b, net::Status::kOk, false);
    o.bytes = params_.completionRecordBytes;
    node_.chargeDram(o.bytes, {power::OpClass::kUpdate, m.tenant});
  }
  o.segment = o.record.segment;
  o.reply.a = o.found ? 1 : 0;
  return o;
}

void MasterService::releaseDecided(const Mutation& m, const log::LogRef& rec) {
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
    net::RpcResponse r;
    if (!ownsKey(tableId, keyId)) {
      r.status = net::Status::kUnknownTablet;
      respond(std::move(r));
      return;
    }
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
    if (lock.participants && !lock.participants->empty()) {
      auto keys = std::make_shared<std::vector<std::uint64_t>>();
      keys->reserve(lock.participants->size() * 2);
      for (const auto& [t, k] : *lock.participants) {
        keys->push_back(t);
        keys->push_back(k);
      }
      req.keys = std::move(keys);
    } else {
      // Degenerate single-object tx: the lock itself is the only vote.
      auto keys = std::make_shared<std::vector<std::uint64_t>>();
      keys->push_back(lock.tableId);
      keys->push_back(lock.keyId);
      req.keys = std::move(keys);
    }
    ++txResolveRequests_;
    rpc_.call(node_.id(), coordinator_, net::kCoordinatorPort, std::move(req),
              timeouts::kControl, [](const net::RpcResponse&) {});
  }
}

bool MasterService::installRecoveredTxLock(const log::LogEntry& prepare,
                                           const log::LogRef& ref,
                                           bool ownedByUnacked) {
  TxLockTable::Lock lock;
  lock.txId = prepare.txId;
  lock.clientId = prepare.clientId;
  lock.rpcSeq = prepare.rpcSeq;
  lock.tableId = prepare.tableId;
  lock.keyId = prepare.keyId;
  lock.pendingValueBytes = prepare.txPendingBytes;
  lock.expectedVersion = prepare.txExpectedVersion;
  lock.prepareRecord = ref;
  lock.participants = prepare.txParticipants;
  lock.preparedAt = node_.sim().now();
  lock.recordOwnedByUnacked = ownedByUnacked;
  if (!txLocks_.acquire(std::move(lock))) return false;
  startLeaseReclaim();  // the sweep is what resolves orphans
  return true;
}

MasterService::Outcome MasterService::removeBody(Mutation& m) {
  if (const TxLockTable::Lock* held = txLocks_.get(m.tableId, m.keyId)) {
    return lockConflict(*held);
  }
  const bool tracked = m.clientId != 0;
  const hash::Key k{m.tableId, m.keyId};
  const auto* loc = map_.get(k);
  Outcome o;
  o.found = loc != nullptr;
  o.crashPoint = true;
  if (o.found) {
    if (tracked) {
      ensureHeadRoom(params_.tombstoneBytes + params_.completionRecordBytes);
    }
    log::LogEntry t;
    t.tableId = m.tableId;
    t.keyId = m.keyId;
    t.sizeBytes = params_.tombstoneBytes;
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
    o.bytes += params_.completionRecordBytes;
  }
  node_.chargeDram(o.bytes, {power::OpClass::kUpdate, m.tenant});
  o.reply.a = o.found ? 1 : 0;
  return o;
}

void MasterService::onScan(const net::RpcRequest& req, Responder respond) {
  const std::uint64_t tableId = req.a;
  const std::uint64_t startHash = req.b;
  const std::uint64_t endHash = req.c;
  const std::uint16_t tenant = req.tenant;

  dispatch_.enqueue(guard([this, tableId, startHash, endHash, tenant,
                           respond = std::move(respond)]() mutable {
    node_.cpu().acquireWorker(guard([this, tableId, startHash, endHash,
                                     tenant,
                                     respond =
                                         std::move(respond)](int w) mutable {
      node_.cpu().tagWorker(w, {power::OpClass::kRead, tenant});
      // Walk the index; objects outside [startHash, endHash] or the table
      // are skipped (they still cost a probe, folded into perEntry).
      std::uint64_t count = 0;
      std::uint64_t bytes = 0;
      map_.forEach([&](const hash::Key& k, const hash::ObjectLocation& loc) {
        if (k.tableId != tableId) return;
        const std::uint64_t h = hash::keyHash(k);
        if (h < startHash || h > endHash) return;
        ++count;
        bytes += loc.sizeBytes;
      });
      const sim::Duration cpu =
          params_.scanSetupCpu +
          params_.scanPerEntryCpu *
              static_cast<sim::Duration>(map_.size());
      node_.sim().schedule(cpu, guard([this, w, count, bytes, tenant,
                                       respond =
                                           std::move(respond)]() mutable {
        node_.chargeDram(bytes, {power::OpClass::kRead, tenant});
        node_.cpu().releaseWorker(w);
        net::RpcResponse r;
        r.a = count;
        r.payloadBytes = bytes;
        respond(std::move(r));
      }));
    }));
  }));
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
  if (const auto* loc = map_.get(k)) {
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

void MasterService::onMultiRead(const net::RpcRequest& req,
                                Responder respond) {
  const std::uint64_t tableId = req.a;
  const std::uint16_t tenant = req.tenant;
  auto keys = req.keys;

  dispatch_.enqueue(guard([this, tableId, keys, tenant,
                           respond = std::move(respond)]() mutable {
    if (!keys || keys->empty()) {
      net::RpcResponse r;
      r.status = net::Status::kError;
      respond(std::move(r));
      return;
    }
    node_.cpu().acquireWorker(guard([this, tableId, keys, tenant,
                                     respond =
                                         std::move(respond)](int w) mutable {
      node_.cpu().tagWorker(w, {power::OpClass::kRead, tenant});
      const sim::Duration cpu =
          params_.multiOpBaseCpu +
          params_.multiReadPerKeyCpu * static_cast<sim::Duration>(keys->size());
      node_.sim().schedule(cpu, guard([this, tableId, keys, w, tenant,
                                       respond =
                                           std::move(respond)]() mutable {
        std::uint64_t found = 0;
        std::uint64_t bytes = 0;
        for (const std::uint64_t key : *keys) {
          if (!ownsKey(tableId, key)) {
            ++stats_.unknownTablet;
            continue;
          }
          if (const auto* loc = map_.get(hash::Key{tableId, key})) {
            ++found;
            bytes += loc->sizeBytes;
          }
          ++stats_.reads;
        }
        node_.chargeDram(bytes, {power::OpClass::kRead, tenant});
        net::RpcResponse r;
        r.a = found;
        r.b = static_cast<std::uint64_t>(keys->size()) - found;  // missing
        r.payloadBytes = bytes;
        respond(std::move(r));
        node_.cpu().releaseWorker(w);
        maybeStartCleaner();
      }));
    }));
  }));
}

MasterService::Outcome MasterService::multiWriteBody(Mutation& m) {
  // Every key passes the single-key rules. A refused key (wrong tablet,
  // migration fence, prepared tx lock) is not applied and is reported as
  // not served.
  Outcome o;
  o.counted = 0;
  for (const std::uint64_t key : *m.keys) {
    if (!ownsKey(m.tableId, key)) {
      ++stats_.unknownTablet;
      continue;
    }
    if (isMigratingRange(m.tableId, hash::keyHash(hash::Key{m.tableId, key}))) {
      continue;
    }
    if (txLocks_.get(m.tableId, key) != nullptr) {
      txLocks_.countConflict();
      continue;
    }
    noteTabletOp(m.tableId, key, /*isWrite=*/true);
    o.bytes += applyWrite(m.tableId, key, m.valueBytes).entryBytes;
    ++o.counted;
  }
  node_.chargeDram(o.bytes, {power::OpClass::kUpdate, m.tenant});
  o.reply.a = o.counted;
  o.reply.b = static_cast<std::uint64_t>(m.keys->size()) - o.counted;
  if (log_.head() != nullptr) o.segment = log_.head()->id();
  return o;
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
    net::RpcResponse r;
    if (mine == nullptr || directory_.masterOn(dest) == nullptr) {
      r.status = net::Status::kError;
      respond(std::move(r));
      return;
    }
    respond(std::move(r));  // ack; completion via kMigrationDone
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
          params_.migration.destPerObjectCpu *
          static_cast<sim::Duration>(count);
      node_.sim().schedule(cpu, guard([this, source, batchId, w,
                                       respond =
                                           std::move(respond)]() mutable {
        MasterService* src = directory_.masterOn(source);
        std::vector<log::LogEntry> batch =
            src != nullptr ? src->takeMigrationBatch(batchId)
                           : std::vector<log::LogEntry>{};
        net::RpcResponse r;
        if (src == nullptr) {
          r.status = net::Status::kError;
          respond(std::move(r));
          node_.cpu().releaseWorker(w);
          return;
        }
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
            UnackedRpcResults::Result rr;
            rr.status = e.opStatus;
            rr.version = e.version;
            rr.found = e.found;
            rr.tableId = e.tableId;
            rr.keyId = e.keyId;
            rr.record = ref;
            if (!unacked_.recover(e.clientId, e.rpcSeq, rr)) {
              log_.markDead(ref);
            }
            continue;
          }
          if (e.type == log::EntryType::kTxPrepare) {
            // A version lock moves with its tablet: re-install it and its
            // suppression entry so the new owner votes consistently and the
            // orphan sweep here can finish the tx (docs/TRANSACTIONS.md).
            UnackedRpcResults::Result rr;
            rr.status = e.opStatus;
            rr.version = e.version;
            rr.found = true;
            rr.tableId = e.tableId;
            rr.keyId = e.keyId;
            rr.record = ref;
            const bool owned =
                e.clientId != 0 && unacked_.recover(e.clientId, e.rpcSeq, rr);
            if (installRecoveredTxLock(e, ref, owned)) {
              txLocks_.countMigrated();
            } else if (!owned) {
              log_.markDead(ref);
            }
            continue;
          }
          map_.put(hash::Key{e.tableId, e.keyId},
                   hash::ObjectLocation{ref, e.version, e.sizeBytes});
        }
        node_.chargeDram(bytes, {power::OpClass::kMigration, 0});
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
    net::RpcResponse r;
    if (!plan || partition < 0 ||
        partition >= static_cast<int>(plan->partitions.size())) {
      r.status = net::Status::kError;
      respond(std::move(r));
      return;
    }
    respond(std::move(r));  // ack start; completion arrives via
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
                               std::uint32_t valueBytes, sim::SimTime now) {
  bulkMode_ = true;
  log::LogEntry e;
  e.tableId = tableId;
  e.keyId = keyId;
  e.sizeBytes = valueBytes + params_.objectOverheadBytes;
  e.version = log_.nextVersion();
  const log::LogRef ref = log_.append(e, now);
  const hash::Key k{tableId, keyId};
  if (const auto* old = map_.get(k)) log_.markDead(old->ref);
  map_.put(k, hash::ObjectLocation{ref, e.version, e.sizeBytes});
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
  reg.probeCounter(prefix + ".reads", "ops", [this] {
    return static_cast<double>(stats_.reads);
  });
  reg.probeCounter(prefix + ".writes", "ops", [this] {
    return static_cast<double>(stats_.writes);
  });
  reg.probeCounter(prefix + ".removes", "ops", [this] {
    return static_cast<double>(stats_.removes);
  });
  reg.probeCounter(prefix + ".missing_keys", "ops", [this] {
    return static_cast<double>(stats_.missingKeys);
  });
  reg.probeCounter(prefix + ".unknown_tablet", "ops", [this] {
    return static_cast<double>(stats_.unknownTablet);
  });
  reg.probeCounter(prefix + ".cleaner_runs", "ops", [this] {
    return static_cast<double>(stats_.cleanerRuns);
  });
  reg.probeCounter(prefix + ".replication_failures", "ops", [this] {
    return static_cast<double>(stats_.replicationFailures);
  });
  reg.probeCounter(prefix + ".shed_requests", "ops", [this] {
    return static_cast<double>(stats_.shedRequests);
  });
  reg.probeCounter(prefix + ".cleaner_deferrals", "ops", [this] {
    return static_cast<double>(stats_.cleanerDeferrals);
  });
  reg.probeCounter(prefix + ".replication.repairs_deferred", "ops", [this] {
    return static_cast<double>(replicaMgr_.repairsDeferred());
  });
  reg.probeGauge(prefix + ".log_lock_waiters", "items", [this] {
    return static_cast<double>(logLock_.waiters());
  });
  reg.probeGauge(prefix + ".log_segments", "items", [this] {
    return static_cast<double>(log_.segments().size());
  });
  reg.probeGauge(prefix + ".objects", "items", [this] {
    return static_cast<double>(map_.size());
  });
  reg.probeHistogram(prefix + ".read_service", "us",
                     [this]() -> const sim::Histogram* {
                       return &stats_.readServiceLatency;
                     });
  reg.probeHistogram(prefix + ".write_service", "us",
                     [this]() -> const sim::Histogram* {
                       return &stats_.writeServiceLatency;
                     });
  reg.probeCounter(prefix + ".replication.bytes", "bytes", [this] {
    return static_cast<double>(replicaMgr_.bytesReplicated());
  });
  reg.probeCounter(prefix + ".replication.timeouts", "ops", [this] {
    return static_cast<double>(replicaMgr_.replicaTimeouts());
  });
  reg.probeCounter(prefix + ".replication.replacements", "ops", [this] {
    return static_cast<double>(replicaMgr_.replacementsMade());
  });
  reg.probeGauge(prefix + ".replication.pending_async", "items", [this] {
    return static_cast<double>(replicaMgr_.pendingAsyncWrites());
  });
  reg.probeCounter(prefix + ".linearize.duplicates_suppressed", "ops", [this] {
    return static_cast<double>(unacked_.duplicatesSuppressed());
  });
  reg.probeCounter(prefix + ".linearize.completion_records", "ops", [this] {
    return static_cast<double>(unacked_.completionsRecorded());
  });
  reg.probeCounter(prefix + ".linearize.records_recovered", "ops", [this] {
    return static_cast<double>(unacked_.recordsRecovered());
  });
  reg.probeCounter(prefix + ".linearize.records_gced", "ops", [this] {
    return static_cast<double>(unacked_.recordsGced());
  });
  reg.probeCounter(prefix + ".linearize.stale_rejected", "ops", [this] {
    return static_cast<double>(unacked_.staleRejected());
  });
  reg.probeCounter(prefix + ".linearize.expired_clients", "ops", [this] {
    return static_cast<double>(unacked_.clientsExpired());
  });
  reg.probeGauge(prefix + ".linearize.tracked_clients", "items", [this] {
    return static_cast<double>(unacked_.trackedClients());
  });
  reg.probeCounter(prefix + ".tx.prepares", "ops", [this] {
    return static_cast<double>(txLocks_.prepares());
  });
  reg.probeCounter(prefix + ".tx.commits", "ops", [this] {
    return static_cast<double>(txLocks_.commits());
  });
  reg.probeCounter(prefix + ".tx.aborts", "ops", [this] {
    return static_cast<double>(txLocks_.aborts());
  });
  reg.probeCounter(prefix + ".tx.conflicts", "ops", [this] {
    return static_cast<double>(txLocks_.conflicts());
  });
  reg.probeCounter(prefix + ".tx.orphans_resolved", "ops", [this] {
    return static_cast<double>(txLocks_.orphansResolved());
  });
  reg.probeCounter(prefix + ".tx.locks_recovered", "ops", [this] {
    return static_cast<double>(txLocks_.locksRecovered());
  });
  reg.probeCounter(prefix + ".tx.locks_migrated", "ops", [this] {
    return static_cast<double>(txLocks_.locksMigrated());
  });
  reg.probeCounter(prefix + ".tx.resolve_requests", "ops", [this] {
    return static_cast<double>(txResolveRequests_);
  });
  reg.probeGauge(prefix + ".tx.locks_held", "items", [this] {
    return static_cast<double>(txLocks_.locksHeld());
  });
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
          params_.cleanerDeferUtilization *
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
      params_.cleanerPassCpu +
      sim::nsec(static_cast<sim::Duration>(
          params_.cleanerPerByteCpuNs * static_cast<double>(liveBytes)));
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
