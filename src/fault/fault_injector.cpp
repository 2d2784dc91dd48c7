#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/cluster.hpp"

namespace rc::fault {

const char* faultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kCrashServer:
      return "crash_server";
    case FaultKind::kNetworkLoss:
      return "network_loss";
    case FaultKind::kNetworkDelay:
      return "network_delay";
    case FaultKind::kDiskStall:
      return "disk_stall";
    case FaultKind::kDiskDegrade:
      return "disk_degrade";
    case FaultKind::kCorruptFrames:
      return "corrupt_frames";
    case FaultKind::kCpuThrottle:
      return "cpu_throttle";
    case FaultKind::kReplyDrop:
      return "reply_drop";
    case FaultKind::kClientStall:
      return "client_stall";
    case FaultKind::kCrashBeforeReply:
      return "crash_before_reply";
    case FaultKind::kLoadSurge:
      return "load_surge";
  }
  return "unknown";
}

namespace {

bool inSet(const std::vector<node::NodeId>& set, node::NodeId n) {
  if (set.empty()) return true;  // wildcard
  return std::find(set.begin(), set.end(), n) != set.end();
}

}  // namespace

FaultInjector::FaultInjector(core::Cluster& cluster, FaultPlan plan,
                             sim::Rng rng)
    : cluster_(cluster), plan_(std::move(plan)), rng_(rng) {}

FaultInjector::~FaultInjector() {
  if (filterInstalled_) cluster_.network().setFaultFilter({});
}

void FaultInjector::syncFilter() {
  const bool want = armed_ && !rules_.empty();
  if (want == filterInstalled_) return;
  filterInstalled_ = want;
  if (!want) {
    cluster_.network().setFaultFilter({});
    return;
  }
  // One choke point for every network fault: the filter consults the live
  // rule list on each message. The rng_ draw order is a deterministic
  // function of the message sequence, which is itself deterministic.
  cluster_.network().setFaultFilter(
      [this](node::NodeId from, node::NodeId to,
             std::uint64_t /*bytes*/) -> net::Network::FaultVerdict {
        net::Network::FaultVerdict v;
        for (const LinkRule& r : rules_) {
          const bool forward = inSet(r.a, from) && inSet(r.b, to);
          const bool match =
              r.directional
                  ? forward
                  : forward || (inSet(r.a, to) && inSet(r.b, from));
          if (!match) continue;
          if (r.loss > 0 && rng_.bernoulli(r.loss)) v.drop = true;
          v.extraLatency += r.extra;
        }
        return v;
      });
}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;

  // Chain (don't clobber) any hook a harness already installed.
  auto prev = cluster_.coord().onRecoveryStarted;
  cluster_.coord().onRecoveryStarted =
      [this, prev = std::move(prev)](std::uint64_t recoveryId,
                                     server::ServerId crashed) {
        if (prev) prev(recoveryId, crashed);
        const int ordinal = ++recoveriesSeen_;
        for (const FaultEvent& ev : plan_.events) {
          if (ev.trigger.when != FaultTrigger::When::kOnRecoveryStart ||
              ev.trigger.recoveryOrdinal != ordinal) {
            continue;
          }
          const FaultEvent* evp = &ev;
          if (ev.trigger.delay > 0) {
            cluster_.sim().schedule(ev.trigger.delay,
                                    [this, evp] { fire(*evp); });
          } else {
            fire(*evp);
          }
        }
      };

  for (const FaultEvent& ev : plan_.events) {
    if (ev.trigger.when == FaultTrigger::When::kAtTime) scheduleEvent(ev);
  }
}

void FaultInjector::scheduleEvent(const FaultEvent& ev) {
  // plan_.events is immutable once armed, so the pointer stays valid.
  const FaultEvent* evp = &ev;
  cluster_.sim().scheduleAt(ev.trigger.at, [this, evp] { fire(*evp); });
}

void FaultInjector::record(const FaultEvent& ev) {
  injections_.push_back(
      Injection{cluster_.sim().now(), ev.kind, ev.server, ev.tag});
}

void FaultInjector::journalEvent(const FaultEvent& ev, const char* prefix) {
  const int node = ev.server >= 0 ? cluster_.serverNodeId(ev.server) : 0;
  cluster_.journal().event(std::string(prefix) + faultKindName(ev.kind),
                           node);
}

void FaultInjector::fire(const FaultEvent& ev) {
  // Any injected fault arms the trace ring: the fine-grained stamps around
  // the fault get dumped to flight.jsonl at export (docs/SLO.md).
  cluster_.timeTrace().trigger(
      cluster_.sim().now(), std::string("fault:") + faultKindName(ev.kind));
  switch (ev.kind) {
    case FaultKind::kCrashServer:
      fireCrash(ev);
      return;
    case FaultKind::kNetworkLoss:
    case FaultKind::kNetworkDelay:
    case FaultKind::kReplyDrop:
      fireNetwork(ev);
      return;
    case FaultKind::kClientStall:
      fireClientStall(ev);
      return;
    case FaultKind::kCrashBeforeReply:
      fireCrashBeforeReply(ev);
      return;
    case FaultKind::kDiskStall:
    case FaultKind::kDiskDegrade:
      fireDisk(ev);
      return;
    case FaultKind::kCorruptFrames:
      fireFrames(ev);
      return;
    case FaultKind::kCpuThrottle:
      fireCpu(ev);
      return;
    case FaultKind::kLoadSurge:
      fireLoadSurge(ev);
      return;
  }
}

void FaultInjector::fireCrash(const FaultEvent& ev) {
  const int idx = ev.server;
  if (idx < 0 || idx >= cluster_.serverCount()) return;
  if (!cluster_.serverAlive(idx)) return;  // idempotent
  record(ev);
  journalEvent(ev, "fault_");
  ++crashes_;
  cluster_.crashServer(idx);
}

void FaultInjector::fireNetwork(const FaultEvent& ev) {
  record(ev);
  journalEvent(ev, "fault_");
  LinkRule r;
  r.id = nextRuleId_++;
  if (ev.server >= 0) r.a.push_back(cluster_.serverNodeId(ev.server));
  switch (ev.kind) {
    case FaultKind::kNetworkLoss:
      r.loss = std::clamp(ev.magnitude, 0.0, 1.0);
      break;
    case FaultKind::kNetworkDelay:
      r.extra = ev.extraLatency;
      break;
    case FaultKind::kReplyDrop: {
      // Directional server -> clients: requests, replication and recovery
      // traffic still flow; only client-bound replies are lost.
      r.loss = std::clamp(ev.magnitude, 0.0, 1.0);
      r.directional = true;
      for (int i = 0; i < cluster_.clientCount(); ++i) {
        r.b.push_back(cluster_.clientNodeId(i));
      }
      break;
    }
    default:
      return;
  }
  const std::uint64_t ruleId = r.id;
  rules_.push_back(std::move(r));
  syncFilter();
  if (ev.duration > 0) {
    const FaultEvent* evp = &ev;
    cluster_.sim().schedule(ev.duration, [this, ruleId, evp] {
      removeRule(ruleId);
      journalEvent(*evp, "heal_");
    });
  }
}

void FaultInjector::removeRule(std::uint64_t ruleId) {
  rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                              [ruleId](const LinkRule& r) {
                                return r.id == ruleId;
                              }),
               rules_.end());
  syncFilter();
}

void FaultInjector::fireDisk(const FaultEvent& ev) {
  const int idx = ev.server;
  if (idx < 0 || idx >= cluster_.serverCount()) return;
  if (!cluster_.serverAlive(idx)) return;
  record(ev);
  journalEvent(ev, "fault_");
  node::Disk& disk = cluster_.server(idx).node->disk();
  switch (ev.kind) {
    case FaultKind::kDiskStall:
      disk.stallFor(ev.duration);
      return;
    case FaultKind::kDiskDegrade: {
      disk.setSlowdownFactor(std::max(1.0, ev.magnitude));
      if (ev.duration > 0) {
        const FaultEvent* evp = &ev;
        cluster_.sim().schedule(ev.duration, [this, idx, evp] {
          if (!cluster_.serverAlive(idx)) return;
          cluster_.server(idx).node->disk().setSlowdownFactor(1.0);
          journalEvent(*evp, "heal_");
        });
      }
      return;
    }
    default:
      return;
  }
}

void FaultInjector::fireFrames(const FaultEvent& ev) {
  const int idx = ev.server;
  if (idx < 0 || idx >= cluster_.serverCount()) return;
  if (!cluster_.serverAlive(idx)) return;
  record(ev);
  journalEvent(ev, "fault_");
  const int count = std::max(0, static_cast<int>(ev.magnitude));
  cluster_.server(idx).backup->injectFrameCorruption(count, rng_);
}

void FaultInjector::fireCpu(const FaultEvent& ev) {
  const int idx = ev.server;
  if (idx < 0 || idx >= cluster_.serverCount()) return;
  if (!cluster_.serverAlive(idx)) return;
  // Gray failure: hold workers so only `magnitude` of capacity remains.
  // Granularity is 1/workerThreads; at least one worker always survives
  // (a full freeze is a crash, not a gray failure).
  node::CpuScheduler& cpu = cluster_.server(idx).node->cpu();
  const int total = cpu.workerThreads();
  const double frac = std::clamp(ev.magnitude, 0.0, 1.0);
  const int keep =
      std::max(1, static_cast<int>(std::lround(frac * total)));
  const int steal = total - keep;
  if (steal <= 0) return;
  record(ev);
  journalEvent(ev, "fault_");
  throttles_.push_back(Throttle{idx, {}, cpu.epoch()});
  const std::size_t slot = throttles_.size() - 1;
  for (int i = 0; i < steal; ++i) {
    cpu.acquireWorker([this, slot, idx](int workerId) {
      Throttle& t = throttles_[slot];
      // If the server crashed while we queued for a worker, drop the grant.
      if (!cluster_.serverAlive(idx) ||
          cluster_.server(idx).node->cpu().epoch() != t.epoch) {
        return;
      }
      t.heldWorkers.push_back(workerId);
    });
  }
  if (ev.duration > 0) {
    const FaultEvent* evp = &ev;
    cluster_.sim().schedule(ev.duration, [this, idx, evp] {
      restoreCpu(idx);
      if (cluster_.serverAlive(idx)) journalEvent(*evp, "heal_");
    });
  }
}

void FaultInjector::fireClientStall(const FaultEvent& ev) {
  const int idx = ev.client;
  if (idx < 0 || idx >= cluster_.clientCount()) return;
  record(ev);
  cluster_.journal().event("fault_client_stall", cluster_.clientNodeId(idx));
  cluster_.clientHost(idx).rc->stallFor(ev.duration);
}

void FaultInjector::fireLoadSurge(const FaultEvent& ev) {
  if (ev.magnitude <= 1.0) return;
  record(ev);
  // client == -1 surges every client: the flash-crowd scenario.
  const int first = ev.client >= 0 ? ev.client : 0;
  const int last = ev.client >= 0 ? ev.client : cluster_.clientCount() - 1;
  for (int idx = first; idx <= last && idx < cluster_.clientCount(); ++idx) {
    auto& host = cluster_.clientHost(idx);
    if (!host.ycsb && !host.traffic) continue;
    cluster_.journal().event("fault_load_surge", cluster_.clientNodeId(idx));
    if (host.ycsb) host.ycsb->applyLoadSurge(ev.magnitude, ev.duration);
    // Open-loop sources surge as a superposed flash crowd: the offered rate
    // itself rises, not just the think-time of a closed population.
    if (host.traffic) host.traffic->applyLoadSurge(ev.magnitude, ev.duration);
  }
}

void FaultInjector::fireCrashBeforeReply(const FaultEvent& ev) {
  const int idx = ev.server;
  if (idx < 0 || idx >= cluster_.serverCount()) return;
  if (!cluster_.serverAlive(idx)) return;
  // Arm now; the ledger line and the crash happen when the master's next
  // write reaches its reply point (the hook runs inside the reply path, so
  // the crash itself goes through a fresh event to avoid re-entrancy).
  const FaultEvent* evp = &ev;
  cluster_.server(idx).master->armCrashBeforeReply([this, idx, evp] {
    record(*evp);
    journalEvent(*evp, "fault_");
    ++crashes_;
    cluster_.sim().schedule(0, [this, idx] { cluster_.crashServer(idx); });
  });
}

void FaultInjector::restoreCpu(int serverIdx) {
  for (Throttle& t : throttles_) {
    if (t.serverIdx != serverIdx) continue;
    if (cluster_.serverAlive(serverIdx) &&
        cluster_.server(serverIdx).node->cpu().epoch() == t.epoch) {
      node::CpuScheduler& cpu = cluster_.server(serverIdx).node->cpu();
      for (const int id : t.heldWorkers) cpu.releaseWorker(id);
    }
    t.heldWorkers.clear();
    t.serverIdx = -1;  // spent
  }
}

}  // namespace rc::fault
