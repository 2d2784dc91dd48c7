#include "server/backup_service.hpp"

#include <algorithm>
#include <utility>

#include "hash/object_map.hpp"
#include "server/master_service.hpp"

namespace rc::server {

BackupService::BackupService(
    node::Node& node, Dispatch& dispatch, net::RpcSystem& rpc,
    const ServiceDirectory& directory, obs::EventJournal& journal,
    BackupParams params,
    std::function<RecoveryPlanPtr(std::uint64_t)> planLookup)
    : node_(node),
      dispatch_(dispatch),
      rpc_(rpc),
      directory_(directory),
      journal_(journal),
      params_(params),
      planLookup_(std::move(planLookup)) {}

void BackupService::handleRpc(const net::RpcRequest& req, node::NodeId /*from*/,
                              Responder respond) {
  switch (req.op) {
    case net::Opcode::kBackupWrite:
      onBackupWrite(req, std::move(respond));
      break;
    case net::Opcode::kGetRecoveryData:
      onGetRecoveryData(req, std::move(respond));
      break;
    case net::Opcode::kGetSegmentList:
      onGetSegmentList(req, std::move(respond));
      break;
    case net::Opcode::kBackupFree:
      onBackupFree(req, std::move(respond));
      break;
    default: {
      net::RpcResponse r;
      r.status = net::Status::kError;
      respond(std::move(r));
    }
  }
}

void BackupService::crash() {
  frames_.clear();
  unflushedBytes_ = 0;
  ackWaiters_.clear();
}

void BackupService::onBackupWrite(const net::RpcRequest& req,
                                  Responder respond) {
  const ServerId master = static_cast<ServerId>(req.a);
  const auto segId = static_cast<log::SegmentId>(req.b);
  const bool close = (req.c & 1) != 0;
  const bool oneSided = (req.c & 2) != 0;
  const std::uint64_t bytes = req.payloadBytes;

  auto apply = [this, master, segId, close, bytes,
                respond = std::move(respond)]() mutable {
    ++writesServiced_;

    const FrameKey key{master, segId};
    Frame& f = frames_[key];
    if (!f.data) {
      if (MasterService* m = directory_.masterOn(master)) {
        f.data = m->findSegment(segId);
      }
    }
    f.ackedBytes += bytes;
    bool gated = false;
    if (close && !f.closed) {
      f.closed = true;
      // Closed-but-unflushed bytes create buffer-pool pressure; open
      // heads are expected DRAM residents (paper SS II-B) and only gate
      // once the pool is exhausted outright (below).
      unflushedBytes_ += f.ackedBytes;
      maybeStartFlush(key);
      gated = unflushedBytes_ > params_.bufferPoolBytes;
    }
    // Past 2x the pool the backup is out of (non-volatile) buffer space
    // entirely: *every* write ack — open-head appends included — waits
    // for a flush to free room. This is how a stalled/degraded disk
    // becomes visible to clients: masters sync-replicating an update
    // block on the gated ack (Finding 5's disk bandwidth, coupled back
    // into the write tail). Transient backlog between 1x and 2x only
    // delays segment-close acks, which masters absorb asynchronously.
    gated = gated || unflushedBytes_ > 2 * params_.bufferPoolBytes;
    if (gated) {
      ++acksDelayed_;
      ackWaiters_.push_back(std::move(respond));
    } else {
      respond(net::RpcResponse{});
    }
  };

  if (oneSided) {
    // SS IX-B RDMA mode: the NIC deposits the bytes into the registered
    // frame; no backup CPU is consumed (durability gating still applies).
    node_.sim().schedule(sim::nsec(300), std::move(apply));
    return;
  }

  // Backup writes are serviced at dispatch priority (no worker): RAMCloud
  // keeps replication from queueing behind worker-holding updates, at the
  // price of dispatch-thread contention with normal requests (Finding 3).
  // The cycles are real CPU work, so they feed the power model too.
  const sim::Duration svc =
      kBackupWriteBaseServiceTime +
      sim::secondsF(static_cast<double>(bytes) / (kBackupBufferCopyGBps * 1e9));
  node_.cpu().chargeAuxiliaryWork(svc, {power::OpClass::kReplication, 0});
  dispatch_.enqueue(std::move(apply), svc);
}

void BackupService::maybeStartFlush(const FrameKey& key) {
  auto it = frames_.find(key);
  if (it == frames_.end()) return;
  Frame& f = it->second;
  if (!f.closed || f.flushing || f.onDisk) return;
  f.flushing = true;
  const std::uint64_t flushBytes = f.ackedBytes;
  const std::uint64_t flushSpan = journal_.beginSpan("frame_flush", node_.id());
  journal_.addBytes(flushSpan, flushBytes);
  node_.disk().write(
      flushBytes,
      [this, key, flushBytes, flushSpan] {
        journal_.endSpan(flushSpan);
        auto it2 = frames_.find(key);
        if (it2 == frames_.end()) {
          // Frame freed while flushing; the pool accounting was already
          // fixed up by onBackupFree.
          return;
        }
        Frame& f2 = it2->second;
        f2.flushing = false;
        f2.onDisk = true;
        f2.inMemory = false;  // spilled: DRAM copy dropped (paper SS II-B)
        unflushedBytes_ -= std::min(unflushedBytes_, flushBytes);
        drainAckWaiters();
      },
      {power::OpClass::kReplication, 0});
}

void BackupService::drainAckWaiters() {
  while (!ackWaiters_.empty() &&
         unflushedBytes_ <= params_.bufferPoolBytes) {
    Responder r = std::move(ackWaiters_.front());
    ackWaiters_.pop_front();
    r(net::RpcResponse{});
  }
}

void BackupService::onGetRecoveryData(const net::RpcRequest& req,
                                      Responder respond) {
  const ServerId master = static_cast<ServerId>(req.a);
  const auto segId = static_cast<log::SegmentId>(req.b);
  const std::uint64_t planId = req.d;
  // On kGetRecoveryData the trace-span field carries the recovery master's
  // segment_fetch journal span, making the disk read its cross-node child.
  const std::uint64_t fetchSpan = req.traceSpan;

  dispatch_.enqueue([this, master, segId, planId, fetchSpan,
                     respond = std::move(respond)]() mutable {
    const FrameKey key{master, segId};
    auto it = frames_.find(key);
    if (it == frames_.end() || !it->second.data || it->second.corrupt) {
      net::RpcResponse r;
      r.status = net::Status::kError;
      respond(std::move(r));
      return;
    }
    RecoveryPlanPtr plan = planLookup_ ? planLookup_(planId) : nullptr;
    const std::uint64_t parts =
        plan && !plan->partitions.empty() ? plan->partitions.size() : 1;

    Frame& f = it->second;
    auto deliver = [this, key, parts, respond = std::move(respond)]() mutable {
      auto it2 = frames_.find(key);
      if (it2 == frames_.end()) {
        net::RpcResponse r;
        r.status = net::Status::kError;
        respond(std::move(r));
        return;
      }
      Frame& f2 = it2->second;
      // Count entries within the acked watermark for the filtering cost.
      std::uint64_t seen = 0;
      std::uint64_t count = 0;
      const log::Segment::HotEntries& entries = f2.data->hotEntries();
      for (; count < entries.size(); ++count) {
        const std::uint32_t bytes = entries[count].sizeBytes;
        if (seen + bytes > f2.ackedBytes) break;
        seen += bytes;
      }
      const std::uint64_t share = f2.ackedBytes / parts;
      node_.cpu().acquireWorker([this, count, share,
                                 respond = std::move(respond)](int w) mutable {
        node_.cpu().tagWorker(w, {power::OpClass::kRecovery, 0});
        const std::uint64_t epoch = node_.cpu().epoch();
        const sim::Duration cpu =
            kRecoveryFilterPerEntry * static_cast<sim::Duration>(count);
        node_.sim().schedule(cpu, [this, epoch, w, count, share,
                                   respond = std::move(respond)]() mutable {
          if (node_.cpu().epoch() != epoch) return;
          node_.cpu().releaseWorker(w);
          net::RpcResponse r;
          r.a = count;
          r.payloadBytes = share;
          respond(std::move(r));
        });
      });
    };

    if (f.onDisk && !f.inMemory) {
      f.loadWaiters.push_back(std::move(deliver));
      if (!f.loading) {
        f.loading = true;
        const std::uint64_t readSpan =
            journal_.beginSpan("segment_read", node_.id(), fetchSpan,
                               plan != nullptr ? plan->recoveryId : 0);
        journal_.addBytes(readSpan, f.ackedBytes);
        node_.disk().read(
            f.ackedBytes,
            [this, key, readSpan] {
              journal_.endSpan(readSpan);
              auto it3 = frames_.find(key);
              if (it3 == frames_.end()) return;
              Frame& f3 = it3->second;
              f3.loading = false;
              f3.inMemory = true;  // cached: later partitions skip the disk
              auto waiters = std::move(f3.loadWaiters);
              f3.loadWaiters.clear();
              for (auto& wfn : waiters) wfn();
            },
            {power::OpClass::kRecovery, 0});
      }
    } else {
      deliver();
    }
  });
}

void BackupService::onGetSegmentList(const net::RpcRequest& req,
                                     Responder respond) {
  const ServerId master = static_cast<ServerId>(req.a);
  dispatch_.enqueue([this, master, respond = std::move(respond)]() mutable {
    net::RpcResponse r;
    r.a = framesForMaster(master).size();
    respond(std::move(r));
  });
}

void BackupService::onBackupFree(const net::RpcRequest& req,
                                 Responder respond) {
  const ServerId master = static_cast<ServerId>(req.a);
  const auto segId = static_cast<log::SegmentId>(req.b);
  const bool allOfMaster = (req.c & 1) != 0;
  dispatch_.enqueue([this, master, segId, allOfMaster,
                     respond = std::move(respond)]() mutable {
    for (auto it = frames_.begin(); it != frames_.end();) {
      if (it->first.master == master &&
          (allOfMaster || it->first.segment == segId)) {
        const Frame& f = it->second;
        if (f.closed && !f.onDisk) {
          unflushedBytes_ -= std::min(unflushedBytes_, f.ackedBytes);
        }
        it = frames_.erase(it);
      } else {
        ++it;
      }
    }
    drainAckWaiters();
    respond(net::RpcResponse{});
  });
}

void BackupService::bulkInstallFrame(ServerId master,
                                     std::shared_ptr<const log::Segment> data,
                                     std::uint64_t ackedBytes, bool closed,
                                     bool onDisk) {
  Frame f;
  f.data = std::move(data);
  f.ackedBytes = ackedBytes;
  f.closed = closed;
  f.onDisk = onDisk;
  f.inMemory = !onDisk;
  frames_[FrameKey{master, f.data->id()}] = std::move(f);
}

std::vector<BackupService::FrameKey> BackupService::sortedFrameKeys() const {
  std::vector<FrameKey> keys;
  keys.reserve(frames_.size());
  for (const auto& [key, f] : frames_) keys.push_back(key);
  std::sort(keys.begin(), keys.end(), [](const FrameKey& a,
                                         const FrameKey& b) {
    return a.master != b.master ? a.master < b.master
                                : a.segment < b.segment;
  });
  return keys;
}

std::size_t BackupService::injectFrameCorruption(std::size_t count,
                                                 sim::Rng& rng) {
  std::vector<FrameKey> keys = sortedFrameKeys();
  std::erase_if(keys, [this](const FrameKey& k) {
    return frames_.at(k).corrupt;
  });
  std::size_t hit = 0;
  while (hit < count && !keys.empty()) {
    const std::size_t pick = rng.uniformInt(keys.size());
    const FrameKey key = keys[pick];
    keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(pick));
    frames_[key].corrupt = true;
    ++hit;
  }
  return hit;
}

std::vector<BackupService::FrameInfo> BackupService::framesForMaster(
    ServerId master) const {
  std::vector<FrameInfo> out;
  for (const auto& [key, f] : frames_) {
    if (key.master == master) {
      out.push_back(FrameInfo{key.segment, f.ackedBytes, f.closed, f.onDisk});
    }
  }
  return out;
}

void BackupService::registerMetrics(obs::MetricRegistry& reg,
                                    const std::string& prefix) {
  reg.probeCounter(prefix + ".writes_serviced", "ops", [this] {
    return static_cast<double>(writesServiced_);
  });
  reg.probeCounter(prefix + ".acks_delayed", "ops", [this] {
    return static_cast<double>(acksDelayed_);
  });
  reg.probeGauge(prefix + ".unflushed_bytes", "bytes", [this] {
    return static_cast<double>(unflushedBytes_);
  });
  reg.probeGauge(prefix + ".frames_held", "items", [this] {
    return static_cast<double>(frames_.size());
  });
}

std::vector<log::LogEntry> BackupService::filteredEntries(
    ServerId master, log::SegmentId segment, const PartitionSpec& part) const {
  std::vector<log::LogEntry> out;
  auto it = frames_.find(FrameKey{master, segment});
  if (it == frames_.end() || !it->second.data || it->second.corrupt) {
    return out;
  }
  const Frame& f = it->second;
  // Recovery replay batches run thousands of entries; one upfront
  // reservation beats log2(n) growth reallocations per segment.
  const auto& entries = f.data->hotEntries();
  out.reserve(entries.size());
  std::uint64_t seen = 0;
  for (std::uint32_t i = 0; i < entries.size(); ++i) {
    const log::HotEntry& e = entries[i];
    if (seen + e.sizeBytes > f.ackedBytes) break;
    seen += e.sizeBytes;
    const std::uint64_t h = hash::keyHash(hash::Key{e.tableId, e.keyId});
    if (part.covers(e.tableId, h)) out.push_back(f.data->entry(i));
  }
  return out;
}

}  // namespace rc::server
