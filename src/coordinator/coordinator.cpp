#include "coordinator/coordinator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "hash/object_map.hpp"
#include "log/segment.hpp"
#include "server/backup_service.hpp"
#include "server/master_service.hpp"

namespace rc::coordinator {

using server::RecoveryPlan;
using server::RecoveryPlanPtr;
using server::ServerId;
using server::Tablet;

Coordinator::Coordinator(node::Node& node, net::RpcSystem& rpc,
                         const server::ServiceDirectory& directory,
                         obs::EventJournal& journal, CoordinatorParams params,
                         sim::Rng rng)
    : node_(node),
      rpc_(rpc),
      directory_(directory),
      journal_(journal),
      params_(params),
      rng_(rng) {}

void Coordinator::handleRpc(const net::RpcRequest& req, node::NodeId /*from*/,
                            Responder respond) {
  switch (req.op) {
    case net::Opcode::kPing: {
      respond(net::RpcResponse{});
      break;
    }
    case net::Opcode::kGetTabletMap: {
      net::RpcResponse r;
      r.a = map_.version();
      r.payloadBytes = 64 * map_.entries().size();
      respond(std::move(r));
      break;
    }
    case net::Opcode::kRecoveryDone: {
      const std::uint64_t planId = req.a;
      const int partition = static_cast<int>(req.b);
      const bool failed = req.c != 0;
      respond(net::RpcResponse{});
      onRecoveryDone(planId, partition, failed);
      break;
    }
    case net::Opcode::kEnlist: {
      enlistServer(static_cast<ServerId>(req.a));
      respond(net::RpcResponse{});
      break;
    }
    case net::Opcode::kMigrationDone: {
      respond(net::RpcResponse{});
      onMigrationDone(req);
      break;
    }
    case net::Opcode::kOpenLease: {
      const std::uint64_t cid = nextClientId_++;
      leases_[cid] = node_.sim().now() + params_.leaseTerm;
      ++leasesIssued_;
      if (!leaseSweep_) {
        leaseSweep_ = std::make_unique<sim::PeriodicTask>(
            node_.sim(), params_.leaseSweepInterval,
            [this](sim::SimTime) { sweepLeases(); });
      }
      net::RpcResponse r;
      r.a = cid;
      r.b = static_cast<std::uint64_t>(params_.leaseTerm);
      respond(std::move(r));
      break;
    }
    case net::Opcode::kTxResolve: {
      // A master's reclamation sweep found version locks whose transaction
      // client's lease is gone: run cooperative termination for them.
      const std::uint64_t txId = req.a;
      const std::uint64_t txClient = req.b;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> participants;
      if (req.keys != nullptr) {
        const auto& keys = *req.keys;
        for (std::size_t i = 0; i + 1 < keys.size(); i += 2) {
          participants.emplace_back(keys[i], keys[i + 1]);
        }
      }
      respond(net::RpcResponse{});
      startTxResolution(txId, txClient, std::move(participants));
      break;
    }
    case net::Opcode::kRenewLease: {
      net::RpcResponse r;
      auto it = leases_.find(req.a);
      if (it == leases_.end()) {
        // Lease already expired: the client must reopen and accept that its
        // pre-expiry retries lost the exactly-once guarantee.
        r.status = net::Status::kExpiredLease;
      } else {
        it->second = node_.sim().now() + params_.leaseTerm;
        ++leaseRenewals_;
        r.a = req.a;
        r.b = static_cast<std::uint64_t>(params_.leaseTerm);
      }
      respond(std::move(r));
      break;
    }
    default: {
      net::RpcResponse r;
      r.status = net::Status::kError;
      respond(std::move(r));
    }
  }
}

void Coordinator::enlistServer(ServerId id) {
  if (std::find(up_.begin(), up_.end(), id) == up_.end()) up_.push_back(id);
}

std::uint64_t Coordinator::createTable(const std::string& name,
                                       int serverSpan) {
  if (auto it = tablesByName_.find(name); it != tablesByName_.end()) {
    return it->second;
  }
  if (nextTableId_ > log::kMaxTableId) {
    throw std::length_error("table ids exhausted: a log entry stores 16 bits");
  }
  const std::uint64_t tableId = nextTableId_++;
  tablesByName_[name] = tableId;

  const int span =
      std::max(1, std::min<int>(serverSpan, static_cast<int>(up_.size())));
  const std::uint64_t step = (~0ULL) / static_cast<std::uint64_t>(span);
  for (int i = 0; i < span; ++i) {
    Tablet t;
    t.tableId = tableId;
    t.startHash = static_cast<std::uint64_t>(i) * step;
    t.endHash = (i == span - 1)
                    ? ~0ULL
                    : static_cast<std::uint64_t>(i + 1) * step - 1;
    t.owner = up_[static_cast<std::size_t>(i) % up_.size()];
    map_.addTablet(t);
    if (auto* m = directory_.masterOn(t.owner)) m->addTablet(t);
  }
  return tableId;
}

void Coordinator::migrateTablet(const server::Tablet& tablet, ServerId dest,
                                std::function<void(bool)> done) {
  // Validate: the tablet must exist as-is and the destination must be up.
  const auto* entry = map_.lookup(tablet.tableId, tablet.startHash);
  const bool valid =
      entry != nullptr && entry->tablet.startHash == tablet.startHash &&
      entry->tablet.endHash == tablet.endHash &&
      entry->state == TabletMap::TabletState::kUp &&
      std::find(up_.begin(), up_.end(), dest) != up_.end() &&
      entry->tablet.owner != dest;
  if (!valid) {
    if (done) done(false);
    return;
  }
  ActiveMigration am;
  am.tablet = entry->tablet;
  am.from = entry->tablet.owner;
  am.to = dest;
  am.done = std::move(done);
  activeMigrations_.push_back(std::move(am));

  net::RpcRequest req;
  req.op = net::Opcode::kMigrateTablet;
  req.a = tablet.tableId;
  req.b = tablet.startHash;
  req.c = tablet.endHash;
  req.d = static_cast<std::uint64_t>(dest);
  rpc_.call(node_.id(), entry->tablet.owner, net::kMasterPort, req,
            server::timeouts::kControl, [this, t = tablet](
                                            const net::RpcResponse& resp) {
              if (resp.status == net::Status::kOk) return;  // in progress
              // Source refused or died: fail the migration record.
              net::RpcRequest fake;
              fake.a = t.tableId;
              fake.b = t.startHash;
              fake.c = t.endHash;
              fake.d = static_cast<std::uint64_t>(node::kInvalidNode);
              onMigrationDone(fake);
            });
}

void Coordinator::onMigrationDone(const net::RpcRequest& req) {
  const std::uint64_t tableId = req.a;
  const std::uint64_t start = req.b;
  const std::uint64_t end = req.c;
  const auto dest = static_cast<ServerId>(req.d);
  const bool ok = dest != node::kInvalidNode;

  auto it = std::find_if(activeMigrations_.begin(), activeMigrations_.end(),
                         [&](const ActiveMigration& am) {
                           return am.tablet.tableId == tableId &&
                                  am.tablet.startHash == start &&
                                  am.tablet.endHash == end;
                         });
  if (it == activeMigrations_.end()) return;
  ActiveMigration am = std::move(*it);
  activeMigrations_.erase(it);
  if (ok) {
    map_.reassign(tableId, start, end, am.from, am.to);
    if (auto* m = directory_.masterOn(am.to)) {
      server::Tablet t = am.tablet;
      t.owner = am.to;
      m->addTablet(t);
    }
    // req.traceSpan carries the source master's migration span id, so the
    // ownership flip is a cross-node child of the migration.
    journal_.event("ownership_transfer", node_.id(), req.traceSpan);
  }
  if (am.done) am.done(ok);
}

bool Coordinator::decommissionServer(ServerId id) {
  if (!map_.tabletsOwnedBy(id).empty()) return false;
  auto it = std::find(up_.begin(), up_.end(), id);
  if (it == up_.end()) return true;
  up_.erase(it);
  pingMisses_.erase(id);
  return true;
}

bool Coordinator::leaseValid(std::uint64_t clientId) const {
  auto it = leases_.find(clientId);
  return it != leases_.end() && it->second > node_.sim().now();
}

void Coordinator::sweepLeases() {
  const sim::SimTime now = node_.sim().now();
  std::vector<std::uint64_t> expired;
  for (const auto& [cid, expiry] : leases_) {
    if (expiry <= now) expired.push_back(cid);
  }
  std::sort(expired.begin(), expired.end());  // deterministic journal order
  for (std::uint64_t cid : expired) {
    leases_.erase(cid);
    ++leasesExpired_;
    const auto ev = journal_.event("lease_expire", node_.id());
    journal_.addCount(ev, cid);
  }
}

void Coordinator::startTxResolution(
    std::uint64_t txId, std::uint64_t txClient,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> participants) {
  if (participants.empty()) return;
  if (activeTxResolutions_.count(txId) != 0) return;  // already resolving
  // The transaction client is still alive: it drives its own commit point,
  // and resolving under it would race the decision it is about to make.
  // The participant's sweep re-requests once the lease actually lapses.
  if (leaseValid(txClient)) return;
  activeTxResolutions_.insert(txId);
  ++txResolutionsStarted_;

  struct ResolveCtx {
    std::uint64_t txId = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> participants;
    std::vector<std::uint64_t> votes;  // 1 prepared, 2 committed, 3 no-vote
    int pendingVotes = 0;
    int pendingDecisions = 0;
    bool abandoned = false;
    obs::EventJournal::SpanId span = 0;
  };
  auto cx = std::make_shared<ResolveCtx>();
  cx->txId = txId;
  cx->participants = std::move(participants);
  cx->pendingVotes = static_cast<int>(cx->participants.size());
  cx->span = journal_.beginSpan("tx_resolution", node_.id(), 0, txId);

  // Any participant unreachable (owner recovering, vote timed out) aborts
  // this attempt without deciding anything; the surviving locks re-request
  // resolution on the next reclamation sweep.
  auto abandon = [this, cx] {
    if (cx->abandoned) return;
    cx->abandoned = true;
    activeTxResolutions_.erase(cx->txId);
    ++txResolutionsAbandoned_;
    journal_.abandonSpan(cx->span);
  };

  auto decide = [this, cx, abandon] {
    // Sinfonia cooperative termination: a participant that already applied
    // a decision pins the outcome; otherwise the transaction commits iff
    // *every* participant is still prepared (the client reached its commit
    // point exactly when all prepares voted yes). Any no-vote — the
    // participant also fences the tx so a straggling prepare cannot
    // resurrect it — forces abort.
    bool anyCommitted = false;
    bool anyNo = false;
    for (const std::uint64_t v : cx->votes) {
      if (v == 2) anyCommitted = true;
      if (v == 3) anyNo = true;
    }
    const bool commit = anyCommitted || !anyNo;
    cx->pendingDecisions = static_cast<int>(cx->participants.size());
    for (const auto& [tableId, keyId] : cx->participants) {
      const auto finishOne = [this, cx, commit] {
        if (--cx->pendingDecisions > 0) return;
        activeTxResolutions_.erase(cx->txId);
        if (commit) {
          ++txResolutionsCommitted_;
        } else {
          ++txResolutionsAborted_;
        }
        journal_.addCount(cx->span, commit ? 1 : 0);
        journal_.endSpan(cx->span);
      };
      const auto* entry =
          map_.lookup(tableId, hash::keyHash(hash::Key{tableId, keyId}));
      if (entry == nullptr ||
          entry->state == TabletMap::TabletState::kRecovering) {
        // Undeliverable now: the recovered lock re-requests resolution and
        // the (deterministic) decision is re-derived then.
        finishOne();
        continue;
      }
      net::RpcRequest dec;
      dec.op = net::Opcode::kTxDecision;
      dec.a = tableId;
      dec.b = keyId;
      dec.c = (commit ? 1ULL : 0ULL) | 2ULL;  // bit1: from resolution
      dec.d = cx->txId;
      rpc_.call(node_.id(), entry->tablet.owner, net::kMasterPort, dec,
                server::timeouts::kControl,
                [finishOne](const net::RpcResponse&) { finishOne(); });
    }
  };

  for (std::size_t i = 0; i < cx->participants.size(); ++i) {
    const auto [tableId, keyId] = cx->participants[i];
    const auto* entry =
        map_.lookup(tableId, hash::keyHash(hash::Key{tableId, keyId}));
    if (entry == nullptr ||
        entry->state == TabletMap::TabletState::kRecovering) {
      abandon();
      return;
    }
    net::RpcRequest vote;
    vote.op = net::Opcode::kTxVote;
    vote.a = tableId;
    vote.b = keyId;
    vote.d = txId;
    rpc_.call(node_.id(), entry->tablet.owner, net::kMasterPort, vote,
              server::timeouts::kControl,
              [cx, abandon, decide](const net::RpcResponse& resp) {
                if (cx->abandoned) return;
                if (resp.status != net::Status::kOk) {
                  abandon();
                  return;
                }
                cx->votes.push_back(resp.a);
                if (--cx->pendingVotes == 0) decide();
              });
  }
}

void Coordinator::startFailureDetector() {
  if (detector_) return;
  detector_ = std::make_unique<sim::PeriodicTask>(
      node_.sim(), kPingInterval, [this](sim::SimTime) { pingAll(); });
}

void Coordinator::stopFailureDetector() { detector_.reset(); }

void Coordinator::pingAll() {
  for (ServerId id : up_) {
    net::RpcRequest req;
    req.op = net::Opcode::kPing;
    rpc_.call(node_.id(), id, net::kMasterPort, req, server::timeouts::kPing,
              [this, id](const net::RpcResponse& resp) {
                if (resp.status == net::Status::kOk) {
                  pingMisses_[id] = 0;
                  // A reply after misses: false alarm, drop the suspicion.
                  if (auto ds = detectSpans_.find(id);
                      ds != detectSpans_.end()) {
                    journal_.abandonSpan(ds->second);
                    detectSpans_.erase(ds);
                  }
                } else {
                  onPingMiss(id);
                }
              });
  }
}

void Coordinator::onPingMiss(ServerId id) {
  if (std::find(up_.begin(), up_.end(), id) == up_.end()) return;
  const int misses = ++pingMisses_[id];
  if (misses == 1 && detectSpans_.find(id) == detectSpans_.end()) {
    // Suspicion starts at the first missed ping; the span ends when the
    // server is declared dead (or is abandoned if it answers again).
    detectSpans_[id] = journal_.beginSpan("failure_detection", node_.id());
  }
  if (misses >= kMissesBeforeDead) {
    onServerDead(id);
  }
}

void Coordinator::onServerDead(ServerId id) {
  auto it = std::find(up_.begin(), up_.end(), id);
  if (it == up_.end()) return;  // already handled
  up_.erase(it);
  pingMisses_.erase(id);
  // Detection is complete; the entry stays until beginRecovery links the
  // span under the recovery root (or discards it if nothing to recover).
  if (auto ds = detectSpans_.find(id); ds != detectSpans_.end()) {
    journal_.endSpan(ds->second);
  }
  if (onCrashDetected) onCrashDetected(id);

  // Tell every surviving master: replica slots on the dead server must be
  // re-replicated, and in-flight recovery fetches from it should fail over
  // now rather than wait out their RPC timeouts.
  for (ServerId m : up_) {
    net::RpcRequest req;
    req.op = net::Opcode::kServerListUpdate;
    req.a = static_cast<std::uint64_t>(id);
    rpc_.call(node_.id(), m, net::kMasterPort, req,
              server::timeouts::kControl, [](const net::RpcResponse&) {});
  }

  // If the dead server was acting as a recovery master, re-run its
  // partitions elsewhere — including ones it already reported done, since
  // the recovered data died with it. (Collect first: retries can finish —
  // and erase — a recovery, invalidating iterators.)
  std::vector<std::pair<std::uint64_t, int>> toRetry;
  for (auto& [rid, rec] : activeRecoveries_) {
    for (std::size_t p = 0; p < rec.partitionOwner.size(); ++p) {
      if (rec.partitionOwner[p] != id) continue;
      if (rec.partitionDone[p]) {
        rec.partitionDone[p] = false;
        ++rec.remaining;
      }
      toRetry.emplace_back(rid, static_cast<int>(p));
    }
  }
  for (const auto& [rid, p] : toRetry) {
    auto it2 = activeRecoveries_.find(rid);
    if (it2 != activeRecoveries_.end()) retryPartition(it2->second, p);
  }

  beginRecovery(id);
}

void Coordinator::beginRecovery(ServerId id) {
  // Consume the failure_detection span (if the detector saw this crash):
  // either it becomes the first child of the recovery root below, or the
  // crash needs no recovery and the closed span stays a lone root.
  std::uint64_t detectSpan = 0;
  if (auto ds = detectSpans_.find(id); ds != detectSpans_.end()) {
    detectSpan = ds->second;
    detectSpans_.erase(ds);
  }

  if (map_.tabletsOwnedBy(id).empty()) return;  // nothing to recover
  for (const auto& [rid, rec] : activeRecoveries_) {
    if (rec.crashed == id) return;  // already recovering this master
  }
  map_.markRecovering(id);

  const std::uint64_t recoveryId = nextRecoveryId_++;
  ActiveRecovery rec;
  rec.recoveryId = recoveryId;
  rec.crashed = id;
  rec.detectedAt = node_.sim().now();
  rec.rootSpan = journal_.beginSpan("recovery", node_.id(), 0, recoveryId);
  journal_.linkSpan(detectSpan, rec.rootSpan, recoveryId);  // no-op if 0
  // Covers crash verification, scheduling and the segment-list gather (the
  // paper's "will lookup"); closed in buildAndStartPlan.
  rec.lookupSpan =
      journal_.beginSpan("will_lookup", node_.id(), rec.rootSpan, recoveryId);
  activeRecoveries_[recoveryId] = std::move(rec);
  if (onRecoveryStarted) onRecoveryStarted(recoveryId, id);

  // Verify the crash and schedule (paper: the coordinator double-checks,
  // confirms backup availability, selects recovery masters a-priori).
  node_.sim().schedule(kRecoverySetupDelay, [this, recoveryId] {
    auto it = activeRecoveries_.find(recoveryId);
    if (it == activeRecoveries_.end()) return;
    // Gather segment lists from every live backup (timing via RPC; the
    // frame contents are read through the directory).
    auto pendingReplies = std::make_shared<int>(0);
    const std::vector<ServerId> backups =
        directory_.liveBackups ? directory_.liveBackups()
                               : std::vector<ServerId>{};
    if (backups.empty()) {
      auto& rec = activeRecoveries_[recoveryId];
      finishRecovery(rec, false);
      return;
    }
    *pendingReplies = static_cast<int>(backups.size());
    for (ServerId b : backups) {
      net::RpcRequest req;
      req.op = net::Opcode::kGetSegmentList;
      req.a = static_cast<std::uint64_t>(activeRecoveries_[recoveryId].crashed);
      rpc_.call(node_.id(), b, net::kBackupPort, req,
                server::timeouts::kControl,
                [this, recoveryId, pendingReplies](const net::RpcResponse&) {
                  if (--*pendingReplies > 0) return;
                  auto it2 = activeRecoveries_.find(recoveryId);
                  if (it2 == activeRecoveries_.end()) return;
                  buildAndStartPlan(it2->second);
                });
    }
  });
}

void Coordinator::buildAndStartPlan(ActiveRecovery& rec) {
  journal_.endSpan(rec.lookupSpan);  // segment lists are in
  rec.lookupSpan = 0;
  std::vector<ServerId> masters = up_;
  if (masters.empty()) {
    finishRecovery(rec, false);
    return;
  }
  const int p = static_cast<int>(masters.size());
  rec.partitionDone.assign(static_cast<std::size_t>(p), false);
  rec.partitionOwner = masters;
  rec.remaining = p;

  const std::uint64_t assignSpan = journal_.beginSpan(
      "partition_assignment", node_.id(), rec.rootSpan, rec.recoveryId);
  std::vector<int> all(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) all[static_cast<std::size_t>(i)] = i;
  RecoveryPlanPtr plan = buildPlan(rec, all, masters);
  journal_.addCount(assignSpan, static_cast<std::uint64_t>(p));
  journal_.endSpan(assignSpan);
  if (!plan || plan->segments.empty()) {
    // No backup holds a single replica of this master (e.g. replication
    // disabled, or every replica holder also died): the data is lost.
    finishRecovery(rec, false);
    return;
  }
  const std::uint64_t recoveryId = rec.recoveryId;
  for (int i = 0; i < p; ++i) {
    net::RpcRequest req;
    req.op = net::Opcode::kStartRecovery;
    req.a = plan->planId;
    req.b = static_cast<std::uint64_t>(i);
    rpc_.call(node_.id(), masters[static_cast<std::size_t>(i)],
              net::kMasterPort, req, server::timeouts::kControl,
              [this, recoveryId, i](const net::RpcResponse& resp) {
                if (resp.status == net::Status::kOk) return;
                // The designated recovery master never started (crashed or
                // unreachable): hand the partition to someone else.
                auto it = activeRecoveries_.find(recoveryId);
                if (it == activeRecoveries_.end()) return;
                ActiveRecovery& r = it->second;
                if (i < static_cast<int>(r.partitionDone.size()) &&
                    !r.partitionDone[static_cast<std::size_t>(i)]) {
                  retryPartition(r, i);
                }
              });
  }
}

server::RecoveryPlanPtr Coordinator::buildPlan(
    ActiveRecovery& rec, const std::vector<int>& partitionsToRun,
    const std::vector<ServerId>& masters) {
  const int totalPartitions = static_cast<int>(rec.partitionDone.size());
  auto plan = std::make_shared<RecoveryPlan>();
  plan->planId = nextPlanId_++;
  plan->crashedMaster = rec.crashed;
  plan->recoveryId = rec.recoveryId;
  plan->rootSpan = rec.rootSpan;

  // Partition specs: split each of the dead master's tablets into
  // `totalPartitions` equal hash subranges (the "will").
  const std::vector<Tablet> tablets = map_.tabletsOwnedBy(rec.crashed);
  if (tablets.empty()) return nullptr;

  std::vector<server::PartitionSpec> allParts(
      static_cast<std::size_t>(totalPartitions));
  for (const Tablet& t : tablets) {
    const std::uint64_t width = t.endHash - t.startHash;
    const std::uint64_t step =
        width / static_cast<std::uint64_t>(totalPartitions);
    for (int i = 0; i < totalPartitions; ++i) {
      Tablet sub = t;
      sub.startHash = t.startHash + static_cast<std::uint64_t>(i) * step;
      sub.endHash = (i == totalPartitions - 1)
                        ? t.endHash
                        : sub.startHash + step - 1;
      allParts[static_cast<std::size_t>(i)].ranges.push_back(sub);
    }
  }

  // The plan carries only the partitions to run now (retries are
  // single-partition plans); owners index into `masters`.
  for (std::size_t i = 0; i < partitionsToRun.size(); ++i) {
    const int global = partitionsToRun[i];
    plan->partitions.push_back(allParts[static_cast<std::size_t>(global)]);
    plan->recoveryMasters.push_back(masters[i % masters.size()]);
    rec.planPartitionBase[plan->planId] = partitionsToRun.front();
  }
  rec.partitions = allParts;

  // Segment sources: union of all live backups' frames for the crashed
  // master, replicas ordered by watermark (they agree unless a write was
  // in flight at the crash).
  std::unordered_map<log::SegmentId, RecoveryPlan::SegmentSource> sources;
  if (directory_.liveBackups && directory_.backupOn) {
    for (ServerId b : directory_.liveBackups()) {
      server::BackupService* bs = directory_.backupOn(b);
      if (bs == nullptr) continue;
      for (const auto& fi : bs->framesForMaster(rec.crashed)) {
        auto& src = sources[fi.segment];
        src.segment = fi.segment;
        src.bytes = std::max(src.bytes, fi.bytes);
        src.backups.push_back(b);
      }
    }
  }
  for (auto& [segId, src] : sources) plan->segments.push_back(std::move(src));
  std::sort(plan->segments.begin(), plan->segments.end(),
            [](const auto& a, const auto& b) { return a.segment < b.segment; });

  plans_[plan->planId] = plan;
  planRecovery_[plan->planId] = rec.recoveryId;
  return plan;
}

server::RecoveryPlanPtr Coordinator::planById(std::uint64_t id) const {
  auto it = plans_.find(id);
  return it == plans_.end() ? nullptr : it->second;
}

void Coordinator::onRecoveryDone(std::uint64_t planId, int planPartition,
                                 bool failed) {
  auto pr = planRecovery_.find(planId);
  if (pr == planRecovery_.end()) return;
  auto ar = activeRecoveries_.find(pr->second);
  if (ar == activeRecoveries_.end()) return;
  ActiveRecovery& rec = ar->second;

  auto baseIt = rec.planPartitionBase.find(planId);
  const int base = baseIt == rec.planPartitionBase.end() ? 0 : baseIt->second;
  const int global = base + planPartition;
  if (global < 0 || global >= static_cast<int>(rec.partitionDone.size()) ||
      rec.partitionDone[static_cast<std::size_t>(global)]) {
    return;
  }

  if (failed) {
    retryPartition(rec, global);
    return;
  }

  rec.partitionDone[static_cast<std::size_t>(global)] = true;
  if (--rec.remaining == 0) finishRecovery(rec, true);
}

void Coordinator::retryPartition(ActiveRecovery& rec, int globalPartition) {
  if (++rec.retries > 8) {
    finishRecovery(rec, false);
    return;
  }
  // Pick a fresh owner, preferring someone other than the failed one.
  const ServerId old =
      rec.partitionOwner[static_cast<std::size_t>(globalPartition)];
  std::vector<ServerId> candidates = up_;
  std::erase(candidates, old);
  if (candidates.empty()) candidates = up_;
  if (candidates.empty()) {
    finishRecovery(rec, false);
    return;
  }
  const ServerId fresh = candidates[rng_.uniformInt(candidates.size())];
  rec.partitionOwner[static_cast<std::size_t>(globalPartition)] = fresh;

  RecoveryPlanPtr plan = buildPlan(rec, {globalPartition}, {fresh});
  if (!plan) {
    finishRecovery(rec, false);
    return;
  }
  const std::uint64_t recoveryId = rec.recoveryId;
  net::RpcRequest req;
  req.op = net::Opcode::kStartRecovery;
  req.a = plan->planId;
  req.b = 0;
  rpc_.call(node_.id(), fresh, net::kMasterPort, req,
            server::timeouts::kControl,
            [this, recoveryId, globalPartition](const net::RpcResponse& resp) {
              if (resp.status == net::Status::kOk) return;
              auto it = activeRecoveries_.find(recoveryId);
              if (it == activeRecoveries_.end()) return;
              ActiveRecovery& r = it->second;
              if (globalPartition <
                      static_cast<int>(r.partitionDone.size()) &&
                  !r.partitionDone[static_cast<std::size_t>(
                      globalPartition)]) {
                retryPartition(r, globalPartition);
              }
            });
}

void Coordinator::finishRecovery(ActiveRecovery& rec, bool success) {
  if (success) {
    // Flip ownership in the tablet map partition by partition.
    for (std::size_t p = 0; p < rec.partitions.size(); ++p) {
      const ServerId owner = rec.partitionOwner[p];
      for (const Tablet& sub : rec.partitions[p].ranges) {
        map_.reassign(sub.tableId, sub.startHash, sub.endHash, rec.crashed,
                      owner);
      }
    }
    const auto tabletRemap = journal_.event("tablet_remap", node_.id(),
                                            rec.rootSpan, rec.recoveryId);
    journal_.addCount(tabletRemap,
                      static_cast<std::uint64_t>(rec.partitions.size()));
    // Old replicas are no longer needed: free the dead master's frames.
    if (directory_.liveBackups) {
      for (ServerId b : directory_.liveBackups()) {
        net::RpcRequest req;
        req.op = net::Opcode::kBackupFree;
        req.a = static_cast<std::uint64_t>(rec.crashed);
        req.c = 1;  // all frames of this master
        rpc_.call(node_.id(), b, net::kBackupPort, req,
                  server::timeouts::kControl, [](const net::RpcResponse&) {});
      }
    }
  }

  RecoveryRecord out;
  out.crashed = rec.crashed;
  out.detectedAt = rec.detectedAt;
  out.finishedAt = node_.sim().now();
  out.partitions = static_cast<int>(rec.partitionDone.size());
  out.partitionRetries = rec.retries;
  out.succeeded = success;
  recoveryLog_.push_back(out);

  journal_.abandonSpan(rec.lookupSpan);
  if (success) {
    journal_.endSpan(rec.rootSpan);
  } else {
    journal_.abandonSpan(rec.rootSpan);
  }

  const std::uint64_t rid = rec.recoveryId;
  if (onRecoveryFinished) onRecoveryFinished(out);
  activeRecoveries_.erase(rid);
}

}  // namespace rc::coordinator
