#include "server/recovery_task.hpp"

#include <algorithm>
#include <utility>

#include "server/backup_service.hpp"
#include "server/master_service.hpp"

namespace rc::server {

RecoveryTask::RecoveryTask(MasterService& master, RecoveryPlanPtr plan,
                           int partitionIndex)
    : master_(master),
      plan_(std::move(plan)),
      part_(partitionIndex),
      alive_(std::make_shared<bool>(true)) {
  log::LogParams lp = master_.params().log;
  lp.segmentIdBase = master_.directory().nextSideLogBase();
  sideLog_ = std::make_unique<log::Log>(lp);
  sideRepl_ = std::make_unique<ReplicaManager>(
      master_.node().sim(), master_.rpc(), master_.node().id(),
      master_.params().replication,
      [this] { return master_.backupCandidates(); },
      [this](log::SegmentId id) -> const log::Segment* {
        auto s = sideSegment(id);
        return s.get();
      },
      /*journal=*/nullptr, master_.rng_.fork(0x51de));
  sideRepl_->stillAlive = [w = std::weak_ptr<bool>(alive_)] {
    auto p = w.lock();
    return p != nullptr && *p;
  };
  sideLog_->onSegmentOpened = [this](log::Segment& seg) {
    sideRepl_->onSegmentOpened(seg);
  };
  sideLog_->onSegmentSealed = [this](log::Segment& seg) {
    onSideSegmentSealed(seg);
  };
}

RecoveryTask::~RecoveryTask() { *alive_ = false; }

void RecoveryTask::abort() {
  if (aborted_) return;
  aborted_ = true;
  *alive_ = false;
  unpinWorkers();
}

std::shared_ptr<const log::Segment> RecoveryTask::sideSegment(
    log::SegmentId id) const {
  return sideLog_ ? sideLog_->sharedSegment(id) : nullptr;
}

void RecoveryTask::pinWorkers() {
  auto* cpu = &master_.node().cpu();
  workerEpoch_ = cpu->epoch();
  // Grants may arrive after the task finished (commit/abort set *alive_
  // false); such late grants hand the worker straight back.
  auto pin = [this, cpu, w = std::weak_ptr<bool>(alive_)](int* slot) {
    cpu->acquireWorker([this, cpu, w, slot](int wk) {
      auto p = w.lock();
      if (p != nullptr && *p) {
        cpu->tagWorker(wk, {power::OpClass::kRecovery, 0});
        *slot = wk;
      } else {
        cpu->releaseWorker(wk);
      }
    });
  };
  pin(&replayWorker_);
  if (master_.params().replication.factor > 0) pin(&syncWorker_);
}

void RecoveryTask::unpinWorkers() {
  *alive_ = false;  // cut continuations; the task is done either way
  auto& cpu = master_.node().cpu();
  if (cpu.epoch() == workerEpoch_ && cpu.poweredOn()) {
    if (replayWorker_ >= 0) cpu.releaseWorker(replayWorker_);
    if (syncWorker_ >= 0) cpu.releaseWorker(syncWorker_);
  }
  replayWorker_ = -1;
  syncWorker_ = -1;
}

void RecoveryTask::start() {
  taskSpan_ = master_.journal().beginSpan("partition_recovery",
                                          master_.node().id(), plan_->rootSpan,
                                          plan_->recoveryId);
  pinWorkers();
  pumpFetches();
}

void RecoveryTask::abandonJournalSpans() {
  // abandonSpan is a no-op on closed spans and on id 0.
  obs::EventJournal& j = master_.journal();
  for (const auto& [segIdx, span] : fetchSpans_) j.abandonSpan(span);
  j.abandonSpan(replaySpan_);
  j.abandonSpan(taskSpan_);
}

void RecoveryTask::pumpFetches() {
  if (aborted_ || failed_) return;
  while (nextFetch_ < plan_->segments.size() &&
         outstandingFetches_ < kRecoveryFetchWindow) {
    const std::size_t idx = nextFetch_++;
    ++outstandingFetches_;
    fetchSegment(idx, 0);
  }
  maybeFinish();
}

void RecoveryTask::fetchSegment(std::size_t segIdx, std::size_t sourceIdx) {
  const RecoveryPlan::SegmentSource& src = plan_->segments[segIdx];
  // Skip sources already known dead (coordinator broadcast) — no point
  // burning a full RPC timeout on them.
  while (sourceIdx < src.backups.size() &&
         deadBackups_.contains(src.backups[sourceIdx])) {
    ++sourceIdx;
  }
  if (sourceIdx >= src.backups.size()) {
    // Every replica of this segment is gone: data loss, partition fails.
    inFlightFetches_.erase(segIdx);
    fail();
    return;
  }
  const node::NodeId backup = src.backups[sourceIdx];
  // One span per segment, spanning replica fallbacks; up to
  // kRecoveryFetchWindow of these legitimately overlap per actor.
  auto [fetchSpan, firstTry] = fetchSpans_.try_emplace(segIdx, 0);
  if (firstTry) {
    fetchSpan->second = master_.journal().beginSpan(
        "segment_fetch", master_.node().id(), taskSpan_, plan_->recoveryId);
  }
  FetchState& fs = inFlightFetches_[segIdx];
  fs.backup = backup;
  fs.sourceIdx = sourceIdx;
  fs.generation = ++fetchGeneration_;
  const std::uint64_t gen = fs.generation;

  net::RpcRequest req;
  req.op = net::Opcode::kGetRecoveryData;
  req.a = static_cast<std::uint64_t>(plan_->crashedMaster);
  req.b = src.segment;
  req.c = static_cast<std::uint64_t>(part_);
  req.d = plan_->planId;
  // Carry the fetch span so the backup parents its segment_read under it
  // (backups never stamp TimeTrace, so the field is free on this opcode).
  req.traceSpan = fetchSpan->second;

  master_.rpc().call(
      master_.node().id(), backup, net::kBackupPort, req,
      timeouts::kRecoveryData,
      [this, w = std::weak_ptr<bool>(alive_), segIdx, sourceIdx, gen,
       backup](const net::RpcResponse& resp) {
        auto p = w.lock();
        if (p == nullptr || !*p) return;
        auto fit = inFlightFetches_.find(segIdx);
        if (fit == inFlightFetches_.end() || fit->second.generation != gen) {
          return;  // superseded by an onBackupDown failover
        }
        if (resp.status != net::Status::kOk) {
          fetchSegment(segIdx, sourceIdx + 1);
          return;
        }
        BackupService* bs = master_.directory().backupOn(backup);
        if (bs == nullptr) {
          fetchSegment(segIdx, sourceIdx + 1);
          return;
        }
        inFlightFetches_.erase(fit);
        onSegmentData(segIdx,
                      bs->filteredEntries(plan_->crashedMaster,
                                          plan_->segments[segIdx].segment,
                                          plan_->partitions[static_cast<
                                              std::size_t>(part_)]));
      });
}

void RecoveryTask::onBackupDown(node::NodeId dead) {
  if (aborted_ || failed_ || committed_) return;
  deadBackups_.insert(dead);
  if (sideRepl_) sideRepl_->onBackupFailed(dead);
  // Collect first: fetchSegment mutates inFlightFetches_.
  std::vector<std::pair<std::size_t, std::size_t>> failover;
  for (const auto& [segIdx, fs] : inFlightFetches_) {
    if (fs.backup == dead) failover.emplace_back(segIdx, fs.sourceIdx + 1);
  }
  std::sort(failover.begin(), failover.end());
  for (const auto& [segIdx, next] : failover) fetchSegment(segIdx, next);
}

void RecoveryTask::onSegmentData(std::size_t segIdx,
                                 std::vector<log::LogEntry> entries) {
  if (aborted_ || failed_) return;
  --outstandingFetches_;
  if (auto it = fetchSpans_.find(segIdx); it != fetchSpans_.end()) {
    obs::EventJournal& j = master_.journal();
    j.addBytes(it->second, plan_->segments[segIdx].bytes);
    j.addCount(it->second, entries.size());
    j.endSpan(it->second);
    fetchSpans_.erase(it);
  }
  replayQueue_.push_back(std::move(entries));
  pumpFetches();
  pumpReplay();
}

void RecoveryTask::pumpReplay() {
  if (aborted_ || failed_ || replaying_) return;
  if (unackedSegments_ > kRecoveryMaxUnackedSegments) return;
  if (replayQueue_.empty()) {
    maybeFinish();
    return;
  }
  replaying_ = true;
  replaySpan_ = master_.journal().beginSpan("replay", master_.node().id(),
                                            taskSpan_, plan_->recoveryId);
  std::vector<log::LogEntry> entries = std::move(replayQueue_.front());
  replayQueue_.pop_front();
  replayChunk(std::move(entries), 0);
}

void RecoveryTask::replayChunk(std::vector<log::LogEntry> entries,
                               std::size_t offset) {
  if (aborted_ || failed_) return;
  if (offset >= entries.size()) {
    replaying_ = false;
    master_.journal().endSpan(replaySpan_);
    replaySpan_ = 0;
    ++segmentsReplayed_;
    pumpReplay();
    return;
  }
  const std::size_t chunk = std::min<std::size_t>(
      static_cast<std::size_t>(kReplayChunkEntries),
      entries.size() - offset);
  const sim::Duration cpu =
      kReplayPerEntryCpu * static_cast<sim::Duration>(chunk);

  // Replay runs on the task's pinned replay worker (already accounted
  // busy); chunking keeps the event loop responsive.
  master_.node().sim().schedule(cpu, [this, w = std::weak_ptr<bool>(alive_),
                                      entries = std::move(entries), offset,
                                      chunk]() mutable {
    auto p = w.lock();
    if (p == nullptr || !*p) return;
    for (std::size_t i = offset; i < offset + chunk; ++i) {
      applyEntry(entries[i]);
      ++entriesReplayed_;
    }
    master_.journal().addCount(replaySpan_, chunk);
    // Replication gating: if appends sealed a side segment and too many
    // are unacked, pause until acks drain (pumpReplay re-checks).
    if (unackedSegments_ > kRecoveryMaxUnackedSegments) {
      // Pause: re-queue the remainder at the front so order is preserved;
      // pumpReplay resumes once acks drain.
      if (offset + chunk < entries.size()) {
        std::vector<log::LogEntry> rest(
            entries.begin() + static_cast<std::ptrdiff_t>(offset + chunk),
            entries.end());
        replayQueue_.push_front(std::move(rest));
      } else {
        ++segmentsReplayed_;
      }
      replaying_ = false;
      master_.journal().endSpan(replaySpan_);
      replaySpan_ = 0;
      pumpReplay();
      return;
    }
    replayChunk(std::move(entries), offset + chunk);
  });
}

void RecoveryTask::applyEntry(const log::LogEntry& e) {
  if (e.type == log::EntryType::kTxPrepare ||
      e.type == log::EntryType::kTxDecision) {
    const bool isPrepare = e.type == log::EntryType::kTxPrepare;
    // A dead prepare was decided on the crashed master before it died (the
    // decision path marks it dead in place, which the backup's shared
    // segment sees): replaying it must NOT resurrect the lock. Decisions
    // are replayed even when dead — they only fence, never lock.
    if (isPrepare && !e.live) return;
    auto& seen = isPrepare ? seenTxPrepares_ : seenTxDecisions_;
    if (!seen.insert({e.txId, e.tableId, e.keyId}).second) return;
    log::LogEntry copy = e;
    copy.live = true;
    const log::LogRef ref =
        sideLog_->append(copy, master_.node().sim().now());
    master_.node().chargeDram(e.sizeBytes, {power::OpClass::kRecovery, 0});
    (isPrepare ? recoveredTxPrepares_ : recoveredTxDecisions_)
        .emplace_back(copy, ref);
    return;
  }
  if (e.type == log::EntryType::kCompletion) {
    // Completion records bypass the object staging table: they share the
    // object's (tableId, keyId) but are keyed by (clientId, seq), and the
    // version-dedup below would drop them against the object itself.
    const auto key = std::make_pair(e.clientId, e.rpcSeq);
    if (!seenCompletions_.insert(key).second) return;
    log::LogEntry copy = e;
    copy.live = true;
    const log::LogRef ref =
        sideLog_->append(copy, master_.node().sim().now());
    master_.node().chargeDram(e.sizeBytes, {power::OpClass::kRecovery, 0});
    recoveredCompletions_.emplace_back(copy, ref);
    return;
  }
  const hash::Key k{e.tableId, e.keyId};
  Staged& st = staging_[k];
  if (e.version <= st.version) return;  // stale duplicate from another copy
  if (st.ref.valid()) sideLog_->markDead(st.ref);

  log::LogEntry copy = e;
  copy.live = true;
  const log::LogRef ref = sideLog_->append(copy, master_.node().sim().now());
  master_.node().chargeDram(e.sizeBytes, {power::OpClass::kRecovery, 0});
  st.version = e.version;
  st.tombstone = e.type == log::EntryType::kTombstone;
  st.ref = ref;
}

void RecoveryTask::onSideSegmentSealed(log::Segment& seg) {
  ++unackedSegments_;
  obs::EventJournal& j = master_.journal();
  const std::uint64_t replSpan = j.beginSpan(
      "rereplication", master_.node().id(), taskSpan_, plan_->recoveryId);
  j.addBytes(replSpan, seg.appendedBytes());
  sideRepl_->replicateWholeSegment(
      seg, [this, w = std::weak_ptr<bool>(alive_), replSpan](bool ok) {
        auto p = w.lock();
        if (p == nullptr || !*p) return;
        --unackedSegments_;
        if (!ok) {
          master_.journal().abandonSpan(replSpan);
          fail();
          return;
        }
        master_.journal().endSpan(replSpan);
        pumpReplay();
        maybeFinish();
      });
}

void RecoveryTask::maybeFinish() {
  if (aborted_ || failed_ || committed_) return;
  const bool allFetched = nextFetch_ >= plan_->segments.size() &&
                          outstandingFetches_ == 0;
  if (!allFetched || !replayQueue_.empty() || replaying_) return;
  if (!drainStarted_) {
    drainStarted_ = true;
    sideLog_->sealHead();  // triggers final replication (if non-empty)
  }
  if (unackedSegments_ > 0) return;
  commit();
}

void RecoveryTask::commit() {
  if (committed_) return;
  committed_ = true;
  unpinWorkers();
  master_.journal().addCount(taskSpan_, entriesReplayed_);
  master_.journal().endSpan(taskSpan_);

  // Atomically switch ownership: install recovered objects, adopt the
  // side-log segments, take over the partition's tablets.
  std::vector<std::shared_ptr<log::Segment>> adopted;
  for (const auto& [id, seg] : sideLog_->segments()) adopted.push_back(seg);
  for (auto& seg : adopted) master_.log().adopt(seg);

  for (const auto& [key, st] : staging_) {
    if (st.tombstone) {
      master_.map_.erase(key);
      if (st.ref.valid()) master_.log().markDead(st.ref);
    } else {
      master_.map_.put(key, st.ref);
    }
  }
  for (const Tablet& t :
       plan_->partitions[static_cast<std::size_t>(part_)].ranges) {
    master_.addTablet(t);
  }
  for (const auto& [e, ref] : recoveredCompletions_) {
    if (!master_.recoverRiflRecord(e, ref)) {
      // Already known (an earlier partition of the same crash carried it,
      // or the client's watermark has passed): drop the duplicate copy.
      master_.log().markDead(ref);
    }
  }

  // Minitransaction state, decisions first: the resolved-tx table must be
  // fenced before prepares are classified, and a prepare whose (txId,
  // object) decision survived must not become a lock again.
  std::set<TxRecordKey> decided;
  for (const auto& [e, ref] : recoveredTxDecisions_) {
    decided.insert({e.txId, e.tableId, e.keyId});
    const bool owned = master_.recoverRiflRecord(e, ref);
    master_.txLockTable().noteResolved(e.txId, e.txCommit, e.clientId,
                                       e.tableId, e.keyId, ref, owned,
                                       master_.node().sim().now());
  }
  for (const auto& [e, ref] : recoveredTxPrepares_) {
    if (decided.contains({e.txId, e.tableId, e.keyId})) {
      // The outcome landed durably; the prepare record is spent.
      master_.log().markDead(ref);
      continue;
    }
    if (master_.installReplayedPrepare(e, ref)) {
      master_.txLockTable().countRecovered();
    }
  }

  net::RpcRequest req;
  req.op = net::Opcode::kRecoveryDone;
  req.a = plan_->planId;
  req.b = static_cast<std::uint64_t>(part_);
  req.c = 0;  // success
  master_.rpc().call(master_.node().id(), master_.coordinatorNode(),
                     net::kCoordinatorPort, req, timeouts::kControl,
                     [](const net::RpcResponse&) {});
  master_.onRecoveryTaskFinished(this);
}

void RecoveryTask::fail() {
  if (failed_ || committed_) return;
  failed_ = true;
  unpinWorkers();
  abandonJournalSpans();
  net::RpcRequest req;
  req.op = net::Opcode::kRecoveryDone;
  req.a = plan_->planId;
  req.b = static_cast<std::uint64_t>(part_);
  req.c = 1;  // failure
  master_.rpc().call(master_.node().id(), master_.coordinatorNode(),
                     net::kCoordinatorPort, req, timeouts::kControl,
                     [](const net::RpcResponse&) {});
  master_.onRecoveryTaskFinished(this);
}

}  // namespace rc::server
