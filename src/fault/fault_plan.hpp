#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace rc::fault {

/// What to break. Every kind maps onto an existing model hook (network
/// filter, disk stall/degrade, CPU worker theft, backup frame surgery,
/// process crash), so plans compose without special cases.
enum class FaultKind {
  kCrashServer,    ///< kill the RAMCloud process on a server (permanent)
  kNetworkLoss,    ///< drop each matching message with probability
  kNetworkDelay,   ///< add fixed extra one-way latency to matching messages
  kPartition,      ///< drop everything between two node sets
  kDiskStall,      ///< firmware-style pause: no I/O progress for `duration`
  kDiskDegrade,    ///< divide disk throughput by `magnitude`
  kDiskRestore,    ///< restore nominal disk throughput
  kCorruptFrames,  ///< mark `magnitude` frames unreadable (listed but
                   ///< failing on read — the nasty kind)
  kCpuThrottle,    ///< gray failure: cap worker capacity at `magnitude`
  kCpuRestore,     ///< give stolen workers back
  kReplyDrop,       ///< drop server->client traffic only (lost replies force
                    ///< retries of already-applied ops — the RIFL scenario)
  kClientStall,     ///< freeze a client (no RPCs, no lease renewals)
  kCrashBeforeReply,  ///< arm a master to crash after its next write is
                      ///< durable but before the reply is sent
  kLoadSurge,  ///< multiply a client's arrival rate by `magnitude` for
               ///< `duration` (flash crowd / overload injection)
};

/// Stable lower-case name, used for journal events ("fault_<name>").
const char* faultKindName(FaultKind k);

/// When to fire. Time triggers are exact sim times; condition triggers
/// fire when the Nth recovery is admitted by the coordinator (plus an
/// optional delay), which is how "crash a backup *during* recovery 1" is
/// expressed without knowing when detection will complete.
struct FaultTrigger {
  enum class When {
    kAtTime,           ///< fire at `at`
    kOnRecoveryStart,  ///< fire `delay` after the `recoveryOrdinal`-th
                       ///< recovery begins
  };
  When when = When::kAtTime;
  sim::SimTime at = 0;
  int recoveryOrdinal = 1;  ///< 1-based
  sim::Duration delay = 0;
};

/// One declarative fault. Which fields matter depends on `kind`; unused
/// fields are ignored. Server identities are cluster server *indexes*
/// (not node ids) so plans stay valid across topology helpers.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrashServer;
  FaultTrigger trigger;

  int server = -1;         ///< target server index (crash/disk/cpu/frames)
  int client = -1;         ///< target client index (kClientStall)
  std::vector<int> setA;   ///< network rule side A (empty -> {server})
  std::vector<int> setB;   ///< network rule side B (empty -> everyone else)

  /// Loss probability [0,1] / disk slowdown factor (>=1) / frame count /
  /// CPU capacity fraction [0,1] — per kind.
  double magnitude = 0;

  /// How long the fault stays active; 0 = permanent (until an explicit
  /// heal/restore event, or forever for crashes).
  sim::Duration duration = 0;

  /// Extra one-way latency for kNetworkDelay.
  sim::Duration extraLatency = 0;

  /// Label identifying the fault in the injection ledger and the journal.
  std::string tag;
};

/// A deterministic fault schedule: same plan + same seed => identical
/// injection sequence (see docs/FAULTS.md for the determinism rules).
struct FaultPlan {
  std::vector<FaultEvent> events;

  // ----- builder helpers (chainable)

  FaultPlan& crashServer(sim::SimTime at, int serverIdx) {
    FaultEvent e;
    e.kind = FaultKind::kCrashServer;
    e.trigger.at = at;
    e.server = serverIdx;
    events.push_back(std::move(e));
    return *this;
  }

  /// Crash `serverIdx` once the `ordinal`-th recovery has been running for
  /// `delay` — the backup-death-during-recovery scenario.
  FaultPlan& crashOnRecovery(int ordinal, sim::Duration delay,
                             int serverIdx) {
    FaultEvent e;
    e.kind = FaultKind::kCrashServer;
    e.trigger.when = FaultTrigger::When::kOnRecoveryStart;
    e.trigger.recoveryOrdinal = ordinal;
    e.trigger.delay = delay;
    e.server = serverIdx;
    events.push_back(std::move(e));
    return *this;
  }

  FaultPlan& networkLoss(sim::SimTime at, double probability,
                         sim::Duration duration, std::string tag = "loss") {
    FaultEvent e;
    e.kind = FaultKind::kNetworkLoss;
    e.trigger.at = at;
    e.magnitude = probability;
    e.duration = duration;
    e.tag = std::move(tag);
    events.push_back(std::move(e));
    return *this;
  }

  FaultPlan& latencySpike(sim::SimTime at, sim::Duration extra,
                          sim::Duration duration,
                          std::string tag = "latency") {
    FaultEvent e;
    e.kind = FaultKind::kNetworkDelay;
    e.trigger.at = at;
    e.extraLatency = extra;
    e.duration = duration;
    e.tag = std::move(tag);
    events.push_back(std::move(e));
    return *this;
  }

  FaultPlan& partition(sim::SimTime at, std::vector<int> sideA,
                       std::vector<int> sideB, sim::Duration duration,
                       std::string tag = "partition") {
    FaultEvent e;
    e.kind = FaultKind::kPartition;
    e.trigger.at = at;
    e.setA = std::move(sideA);
    e.setB = std::move(sideB);
    e.duration = duration;
    e.tag = std::move(tag);
    events.push_back(std::move(e));
    return *this;
  }

  FaultPlan& diskStall(sim::SimTime at, int serverIdx,
                       sim::Duration duration) {
    FaultEvent e;
    e.kind = FaultKind::kDiskStall;
    e.trigger.at = at;
    e.server = serverIdx;
    e.duration = duration;
    events.push_back(std::move(e));
    return *this;
  }

  FaultPlan& diskDegrade(sim::SimTime at, int serverIdx, double factor,
                         sim::Duration duration) {
    FaultEvent e;
    e.kind = FaultKind::kDiskDegrade;
    e.trigger.at = at;
    e.server = serverIdx;
    e.magnitude = factor;
    e.duration = duration;
    events.push_back(std::move(e));
    return *this;
  }

  FaultPlan& corruptFrames(sim::SimTime at, int serverIdx, int count) {
    FaultEvent e;
    e.kind = FaultKind::kCorruptFrames;
    e.trigger.at = at;
    e.server = serverIdx;
    e.magnitude = count;
    events.push_back(std::move(e));
    return *this;
  }

  /// Drop each reply leaving server `serverIdx` toward any client with
  /// `probability`, for `duration`. Directional: requests still arrive and
  /// are applied, only the acks vanish — every loss forces a client retry
  /// of an op the master already executed (docs/LINEARIZABILITY.md).
  FaultPlan& replyDrop(sim::SimTime at, int serverIdx, double probability,
                       sim::Duration duration, std::string tag = "replydrop") {
    FaultEvent e;
    e.kind = FaultKind::kReplyDrop;
    e.trigger.at = at;
    e.server = serverIdx;
    e.magnitude = probability;
    e.duration = duration;
    e.tag = std::move(tag);
    events.push_back(std::move(e));
    return *this;
  }

  /// Freeze client `clientIdx` for `duration`: no new RPCs, no lease
  /// renewals. A stall longer than the lease term drives the client into
  /// lease expiry deterministically.
  FaultPlan& clientStall(sim::SimTime at, int clientIdx,
                         sim::Duration duration) {
    FaultEvent e;
    e.kind = FaultKind::kClientStall;
    e.trigger.at = at;
    e.client = clientIdx;
    e.duration = duration;
    events.push_back(std::move(e));
    return *this;
  }

  /// Arm master `serverIdx` to crash at the worst possible moment: its next
  /// write completes durably (object + completion record replicated) but
  /// the reply never leaves. The client's retry must be suppressed by the
  /// recovered completion record on the new owner.
  FaultPlan& crashBeforeReply(sim::SimTime at, int serverIdx) {
    FaultEvent e;
    e.kind = FaultKind::kCrashBeforeReply;
    e.trigger.at = at;
    e.server = serverIdx;
    events.push_back(std::move(e));
    return *this;
  }

  /// Flash crowd: multiply client `clientIdx`'s offered load by `factor`
  /// for `duration` (the closed loop's per-op overhead is divided by the
  /// factor). clientIdx == -1 surges every client — the whole-cluster
  /// overload scenario (docs/OVERLOAD.md).
  FaultPlan& loadSurge(sim::SimTime at, int clientIdx, double factor,
                       sim::Duration duration) {
    FaultEvent e;
    e.kind = FaultKind::kLoadSurge;
    e.trigger.at = at;
    e.client = clientIdx;
    e.magnitude = factor;
    e.duration = duration;
    events.push_back(std::move(e));
    return *this;
  }

  /// Gray failure: hold back workers so only `fraction` of the server's
  /// worker capacity remains (granularity 1/workerThreads).
  FaultPlan& cpuThrottle(sim::SimTime at, int serverIdx, double fraction,
                         sim::Duration duration) {
    FaultEvent e;
    e.kind = FaultKind::kCpuThrottle;
    e.trigger.at = at;
    e.server = serverIdx;
    e.magnitude = fraction;
    e.duration = duration;
    events.push_back(std::move(e));
    return *this;
  }
};

}  // namespace rc::fault
