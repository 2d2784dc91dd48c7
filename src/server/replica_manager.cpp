#include "server/replica_manager.hpp"

#include <algorithm>
#include <utility>

namespace rc::server {

ReplicaManager::ReplicaManager(sim::Simulation& sim, net::RpcSystem& rpc,
                               node::NodeId self, ReplicationParams params,
                               CandidatesFn candidates,
                               SegmentLookupFn segmentLookup, sim::Rng rng)
    : sim_(sim),
      rpc_(rpc),
      self_(self),
      params_(params),
      candidates_(std::move(candidates)),
      segmentLookup_(std::move(segmentLookup)),
      rng_(rng) {}

ReplicaManager::~ReplicaManager() {
  if (repairEvent_ != sim::kInvalidEvent) sim_.cancel(repairEvent_);
}

void ReplicaManager::onSegmentOpened(const log::Segment& seg) {
  if (params_.factor <= 0) return;
  SegmentState st;
  st.backups.reserve(static_cast<std::size_t>(params_.factor));
  std::vector<node::NodeId> pool = candidates_();
  // Random distinct backups; RAMCloud scatters every segment independently.
  for (int r = 0; r < params_.factor && !pool.empty(); ++r) {
    const std::size_t pick = rng_.uniformInt(pool.size());
    st.backups.push_back(pool[pick]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  segments_[seg.id()] = std::move(st);
}

const std::vector<node::NodeId>* ReplicaManager::placementOf(
    log::SegmentId segId) const {
  auto it = segments_.find(segId);
  return it == segments_.end() ? nullptr : &it->second.backups;
}

node::NodeId ReplicaManager::pickReplacement(
    const std::vector<node::NodeId>& current) {
  std::vector<node::NodeId> pool = candidates_();
  std::erase_if(pool, [&](node::NodeId n) {
    return std::find(current.begin(), current.end(), n) != current.end();
  });
  if (pool.empty()) return node::kInvalidNode;
  return pool[rng_.uniformInt(pool.size())];
}

void ReplicaManager::sendChain(log::SegmentId segId, std::uint64_t bytes,
                               bool close, std::size_t replicaIdx,
                               int retriesLeft, DoneFn done) {
  auto it = segments_.find(segId);
  if (it == segments_.end()) {  // freed meanwhile
    if (done) done(false);
    return;
  }
  SegmentState& st = it->second;
  if (replicaIdx >= st.backups.size()) {
    st.bytesSent += bytes;
    if (close) st.closedSent = true;
    if (done) done(true);
    return;
  }
  if (st.backups[replicaIdx] == node::kInvalidNode) {
    // The slot was invalidated by a backup death and not repaired yet:
    // replace inline and bring the fresh replica up to the full watermark.
    if (retriesLeft <= 0) {
      if (done) done(false);
      return;
    }
    const node::NodeId fresh = pickReplacement(st.backups);
    if (fresh == node::kInvalidNode) {
      if (done) done(false);
      return;
    }
    ++replacements_;
    st.backups[replicaIdx] = fresh;
    std::uint64_t resend = bytes;
    if (const log::Segment* seg = segmentLookup_(segId)) {
      resend = std::max<std::uint64_t>(bytes, seg->appendedBytes());
    }
    sendChain(segId, resend, close, replicaIdx, retriesLeft - 1,
              std::move(done));
    return;
  }
  const node::NodeId backup = st.backups[replicaIdx];
  // kPerReplicaSendCpu is charged by the caller's worker occupancy model:
  // the send itself is wire + remote work; the master-side CPU shows up as
  // elapsed time here because the worker stays busy through the sync.
  // One-sided RDMA shrinks the send to a DMA post and strips the remote
  // CPU entirely (flag bit 1 tells the backup).
  const sim::Duration sendCpu =
      params_.oneSidedRdma ? sim::usec(1) : kPerReplicaSendCpu;
  sim_.schedule(sendCpu, [this, life = std::weak_ptr<bool>(life_), segId,
                          bytes, close, replicaIdx, retriesLeft, backup,
                          done = std::move(done)]() mutable {
    if (life.expired() || (stillAlive && !stillAlive())) return;
    bytesReplicated_ += bytes;
    net::RpcRequest req;
    req.op = net::Opcode::kBackupWrite;
    req.a = static_cast<std::uint64_t>(self_);
    req.b = segId;
    req.c = (close ? 1u : 0u) | (params_.oneSidedRdma ? 2u : 0u);
    req.payloadBytes = bytes;
    rpc_.call(self_, backup, net::kBackupPort, req, timeouts::kReplication,
              [this, life = std::move(life), segId, bytes, close, replicaIdx,
               retriesLeft,
               done = std::move(done)](const net::RpcResponse& resp) mutable {
      if (life.expired() || (stillAlive && !stillAlive())) return;
      if (resp.status == net::Status::kOk) {
        const sim::Duration ackCpu =
            params_.oneSidedRdma ? sim::usec(2) : kAckProcessing;
        sim_.schedule(ackCpu,
                      [this, life = std::move(life), segId, bytes, close,
                       replicaIdx, done = std::move(done)]() mutable {
          if (life.expired() || (stillAlive && !stillAlive())) return;
          sendChain(segId, bytes, close, replicaIdx + 1,
                    params_.maxRetries, std::move(done));
        });
        return;
      }
      // Backup unreachable: pick a replacement and bring it up to the
      // current watermark, then retry this position after a backed-off
      // wait (deterministic jitter keeps retries from synchronising
      // across masters while staying reproducible per seed).
      ++replicaTimeouts_;
      auto it2 = segments_.find(segId);
      if (it2 == segments_.end() || retriesLeft <= 0) {
        if (done) done(false);
        return;
      }
      const node::NodeId fresh = pickReplacement(it2->second.backups);
      if (fresh == node::kInvalidNode) {
        if (done) done(false);
        return;
      }
      ++replacements_;
      it2->second.backups[replicaIdx] = fresh;
      std::uint64_t resend = bytes;
      if (const log::Segment* seg = segmentLookup_(segId)) {
        resend = std::max<std::uint64_t>(bytes, seg->appendedBytes());
      }
      const int attempt = params_.maxRetries - retriesLeft;
      const std::uint64_t salt = (static_cast<std::uint64_t>(self_) << 40) ^
                                 (segId << 8) ^ replicaIdx;
      sim_.schedule(
          params_.retryBackoff.delay(attempt, salt),
          [this, life = std::move(life), segId, resend, close, replicaIdx,
           retriesLeft, done = std::move(done)]() mutable {
            if (life.expired() || (stillAlive && !stillAlive())) return;
            sendChain(segId, resend, close, replicaIdx, retriesLeft - 1,
                      std::move(done));
          });
    });
  });
}

void ReplicaManager::replicateAppend(log::SegmentId segId,
                                     std::uint64_t bytes, DoneFn done) {
  if (params_.factor <= 0) {
    if (done) done(true);
    return;
  }
  if (!params_.waitForAcks) {
    // SS IX-B ablation: fire replication and acknowledge immediately.
    ++pendingAsync_;
    sendChain(segId, bytes, false, 0, params_.maxRetries,
              [this](bool) { --pendingAsync_; });
    if (done) done(true);
    return;
  }
  sendChain(segId, bytes, false, 0, params_.maxRetries, std::move(done));
}

void ReplicaManager::sealSegment(const log::Segment& seg) {
  if (params_.factor <= 0) return;
  auto it = segments_.find(seg.id());
  if (it == segments_.end()) return;
  SegmentState& st = it->second;
  if (st.closedSent) return;
  const std::uint64_t tail =
      seg.appendedBytes() > st.bytesSent ? seg.appendedBytes() - st.bytesSent
                                         : 0;
  ++pendingAsync_;
  sendChain(seg.id(), tail, true, 0, params_.maxRetries,
            [this](bool) { --pendingAsync_; });
}

void ReplicaManager::replicateWholeSegment(const log::Segment& seg,
                                           DoneFn done) {
  if (params_.factor <= 0) {
    if (done) done(true);
    return;
  }
  if (segments_.find(seg.id()) == segments_.end()) onSegmentOpened(seg);
  sendChain(seg.id(), seg.appendedBytes(), true, 0, params_.maxRetries,
            std::move(done));
}

void ReplicaManager::freeSegment(log::SegmentId segId) {
  auto it = segments_.find(segId);
  if (it == segments_.end()) return;
  for (node::NodeId backup : it->second.backups) {
    if (backup == node::kInvalidNode) continue;
    net::RpcRequest req;
    req.op = net::Opcode::kBackupFree;
    req.a = static_cast<std::uint64_t>(self_);
    req.b = segId;
    rpc_.call(self_, backup, net::kBackupPort, req, timeouts::kControl,
              [](const net::RpcResponse&) {});
  }
  segments_.erase(it);
}

void ReplicaManager::onBackupFailed(node::NodeId backup) {
  bool any = false;
  for (auto& [segId, st] : segments_) {
    for (node::NodeId& b : st.backups) {
      if (b == backup) {
        b = node::kInvalidNode;
        any = true;
      }
    }
  }
  if (any) {
    repairAttempt_ = 0;  // fresh incident: restart the backoff ladder
    scheduleRepair();
  }
}

std::uint64_t ReplicaManager::rfDeficit() const {
  if (params_.factor <= 0) return 0;
  const auto want = static_cast<std::size_t>(params_.factor);
  std::uint64_t deficit = 0;
  for (const auto& [segId, st] : segments_) {
    std::size_t healthy = 0;
    for (node::NodeId b : st.backups) {
      if (b != node::kInvalidNode) ++healthy;
    }
    if (healthy < want) deficit += want - healthy;
  }
  return deficit;
}

bool ReplicaManager::anySegmentFullyExposed() const {
  for (const auto& [segId, st] : segments_) {
    bool damaged = false;
    std::size_t healthy = 0;
    for (node::NodeId b : st.backups) {
      if (b == node::kInvalidNode) {
        damaged = true;
      } else {
        ++healthy;
      }
    }
    if (damaged && healthy == 0) return true;
  }
  return false;
}

void ReplicaManager::scheduleRepair() {
  if (repairScheduled_) return;
  if (stillAlive && !stillAlive()) return;
  repairScheduled_ = true;
  const int attempt = repairAttempt_;
  if (repairAttempt_ < 30) ++repairAttempt_;
  const std::uint64_t salt =
      (static_cast<std::uint64_t>(self_) << 32) ^ 0x5eedULL;
  sim::Duration d = params_.retryBackoff.delay(attempt, salt);
  // Degradation ladder: cede replication bandwidth to foreground work while
  // shedding — but never while any damaged segment is down to zero healthy
  // replicas (rf-deficit safety, docs/OVERLOAD.md).
  if (underPressure && underPressure() && !anySegmentFullyExposed()) {
    d *= kPressureStretch;
    ++repairsDeferred_;
  }
  repairEvent_ = sim_.schedule(d, [this] { repairTick(); });
}

void ReplicaManager::repairTick() {
  repairScheduled_ = false;
  repairEvent_ = sim::kInvalidEvent;
  if (stillAlive && !stillAlive()) return;
  // Deterministic order regardless of hash-map layout.
  std::vector<log::SegmentId> damaged;
  bool inFlight = false;
  for (const auto& [segId, st] : segments_) {
    if (st.repairsInFlight > 0) {
      inFlight = true;
      continue;
    }
    for (node::NodeId b : st.backups) {
      if (b == node::kInvalidNode) {
        damaged.push_back(segId);
        break;
      }
    }
  }
  if (damaged.empty()) {
    if (!inFlight) repairAttempt_ = 0;  // converged; next incident starts fresh
    return;
  }
  std::sort(damaged.begin(), damaged.end());
  for (log::SegmentId segId : damaged) {
    const SegmentState& st = segments_.at(segId);
    for (std::size_t s = 0; s < st.backups.size(); ++s) {
      if (st.backups[s] == node::kInvalidNode) {
        repairSlot(segId, s);
        break;  // one slot per segment per round; the ack chains the next
      }
    }
  }
}

void ReplicaManager::repairSlot(log::SegmentId segId, std::size_t slot) {
  auto it = segments_.find(segId);
  if (it == segments_.end()) return;
  SegmentState& st = it->second;
  if (slot >= st.backups.size() ||
      st.backups[slot] != node::kInvalidNode) {
    return;
  }
  const node::NodeId fresh = pickReplacement(st.backups);
  if (fresh == node::kInvalidNode) {
    scheduleRepair();  // no candidates right now; back off and re-poll
    return;
  }
  std::uint64_t resend = st.bytesSent;
  if (const log::Segment* seg = segmentLookup_(segId)) {
    resend = std::max<std::uint64_t>(resend, seg->appendedBytes());
  }
  ++st.repairsInFlight;
  std::uint64_t span = 0;
  if (journal_) {
    span = journal_->beginSpan("rereplication", self_, 0, journalCtx_);
    journal_->addBytes(span, resend);
  }
  bytesReplicated_ += resend;
  net::RpcRequest req;
  req.op = net::Opcode::kBackupWrite;
  req.a = static_cast<std::uint64_t>(self_);
  req.b = segId;
  req.c = (st.closedSent ? 1u : 0u) | (params_.oneSidedRdma ? 2u : 0u);
  req.payloadBytes = resend;
  rpc_.call(self_, fresh, net::kBackupPort, req, timeouts::kReplication,
            [this, life = std::weak_ptr<bool>(life_), journal = journal_,
             segId, slot, fresh, span](const net::RpcResponse& resp) {
    if (life.expired() || (stillAlive && !stillAlive())) {
      if (journal && span) journal->abandonSpan(span);
      return;
    }
    auto it2 = segments_.find(segId);
    if (it2 == segments_.end()) {  // freed while repairing
      if (journal_ && span) journal_->abandonSpan(span);
      return;
    }
    SegmentState& st2 = it2->second;
    if (st2.repairsInFlight > 0) --st2.repairsInFlight;
    if (resp.status == net::Status::kOk && slot < st2.backups.size() &&
        st2.backups[slot] == node::kInvalidNode) {
      st2.backups[slot] = fresh;
      ++replacements_;
      repairAttempt_ = 0;
      if (journal_ && span) journal_->endSpan(span);
    } else {
      if (resp.status != net::Status::kOk) ++replicaTimeouts_;
      if (journal_ && span) journal_->abandonSpan(span);
    }
    if (rfDeficit() > 0) scheduleRepair();
  });
}

}  // namespace rc::server
