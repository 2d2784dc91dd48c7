#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "log/segment.hpp"
#include "net/rpc.hpp"
#include "node/node.hpp"
#include "obs/event_journal.hpp"
#include "obs/metric_registry.hpp"
#include "server/common.hpp"
#include "server/dispatch.hpp"
#include "server/recovery_plan.hpp"
#include "sim/rng.hpp"

namespace rc::server {

/// Fixed CPU per backup-write RPC (request parsing, frame lookup).
inline constexpr sim::Duration kBackupWriteBaseServiceTime = sim::usec(40);
/// Buffer-copy rate for the size-dependent part of a backup write.
inline constexpr double kBackupBufferCopyGBps = 4.0;
/// CPU per entry when filtering a recovery segment into partitions.
inline constexpr sim::Duration kRecoveryFilterPerEntry = sim::nsec(300);

struct BackupParams {
  /// DRAM frames the backup may hold un-flushed before it starts delaying
  /// write acknowledgements until the disk catches up. This backpressure is
  /// what couples recovery re-replication speed to contended disk bandwidth
  /// (paper Findings 5/6, Fig. 12).
  std::uint64_t bufferPoolBytes = 48ULL * 1024 * 1024;
};

/// The backup service of one node: stores segment replicas in DRAM frames,
/// spills closed frames to disk, and serves them back during recovery.
class BackupService : public net::RpcService {
 public:
  BackupService(node::Node& node, Dispatch& dispatch, net::RpcSystem& rpc,
                const ServiceDirectory& directory, BackupParams params,
                std::function<RecoveryPlanPtr(std::uint64_t)> planLookup);

  void handleRpc(const net::RpcRequest& req, node::NodeId from,
                 Responder respond) override;

  /// Process death: all frames lost.
  void crash();

  // ----- control-plane / data-content access (see ServiceDirectory docs)

  struct FrameInfo {
    log::SegmentId segment = log::kInvalidSegment;
    std::uint64_t bytes = 0;  ///< durably acknowledged watermark
    bool closed = false;
    bool onDisk = false;
  };
  std::vector<FrameInfo> framesForMaster(ServerId master) const;

  /// Event-free frame installation for the bulk-load path (the paper's
  /// unmeasured YCSB load phase): sealed segments sit on disk, the open
  /// head stays buffered.
  void bulkInstallFrame(ServerId master,
                        std::shared_ptr<const log::Segment> data,
                        std::uint64_t ackedBytes, bool closed, bool onDisk);

  /// Entries of the replica (within the acked watermark) that fall in
  /// `part`. Content side-channel for kGetRecoveryData responses.
  std::vector<log::LogEntry> filteredEntries(ServerId master,
                                             log::SegmentId segment,
                                             const PartitionSpec& part) const;

  // ----- fault injection (see fault::FaultInjector)

  /// Mark up to `count` frames corrupt. Selection is deterministic: frames
  /// sorted by (master, segment), picked via `rng`. Corrupt frames still
  /// show up in segment lists — the failure is only discovered when
  /// recovery tries to read them (kGetRecoveryData fails), exercising
  /// replica fallback.
  std::size_t injectFrameCorruption(std::size_t count, sim::Rng& rng);

  std::uint64_t framesHeld() const { return frames_.size(); }

  const BackupParams& params() const { return params_; }

  /// Register this backup's metrics under `prefix` (e.g. "node3.backup").
  void registerMetrics(obs::MetricRegistry& reg, const std::string& prefix);

  /// Attach the cluster's event journal; recovery disk reads emit
  /// segment_read spans (parented under the requesting master's
  /// segment_fetch span) and spills emit frame_flush spans. nullptr
  /// disables.
  void setJournal(obs::EventJournal* journal) { journal_ = journal; }

 private:
  struct FrameKey {
    ServerId master;
    log::SegmentId segment;
    bool operator==(const FrameKey&) const = default;
  };
  struct FrameKeyHash {
    std::size_t operator()(const FrameKey& k) const {
      return std::hash<std::uint64_t>()(
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.master))
           << 32) ^
          k.segment);
    }
  };
  struct Frame {
    std::shared_ptr<const log::Segment> data;
    std::uint64_t ackedBytes = 0;
    bool closed = false;
    bool onDisk = false;
    bool flushing = false;
    bool inMemory = true;   ///< buffered copy still present
    bool loading = false;   ///< recovery read from disk in progress
    bool corrupt = false;   ///< injected fault: reads fail, listing works
    std::vector<sim::InlineTask> loadWaiters;
  };

  /// Frame keys sorted by (master, segment) — deterministic fault picks.
  std::vector<FrameKey> sortedFrameKeys() const;

  void onBackupWrite(const net::RpcRequest& req, Responder respond);
  void onGetRecoveryData(const net::RpcRequest& req, Responder respond);
  void onGetSegmentList(const net::RpcRequest& req, Responder respond);
  void onBackupFree(const net::RpcRequest& req, Responder respond);

  void maybeStartFlush(const FrameKey& key);
  void drainAckWaiters();

  node::Node& node_;
  Dispatch& dispatch_;
  net::RpcSystem& rpc_;
  const ServiceDirectory& directory_;
  BackupParams params_;
  std::function<RecoveryPlanPtr(std::uint64_t)> planLookup_;

  std::unordered_map<FrameKey, Frame, FrameKeyHash> frames_;
  std::uint64_t unflushedBytes_ = 0;
  std::deque<Responder> ackWaiters_;

  std::uint64_t writesServiced_ = 0;
  std::uint64_t acksDelayed_ = 0;
  obs::EventJournal* journal_ = nullptr;
};

}  // namespace rc::server
