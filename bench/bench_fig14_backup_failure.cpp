// Figure 14 (extension): recovery resilience to backup failures *during*
// recovery. For rf = 2..4, crash a tablet owner, then kill 0, 1 or 2 pure
// backup servers mid-recovery (30/60 ms after the coordinator admits it)
// and measure recovery time and the availability gap (crash -> tablets
// served again). The paper only studies clean recoveries (Figs. 9-11);
// this quantifies the safety margin the replication factor actually buys:
// rf = r tolerates r-1 concurrent process failures with bounded recovery
// inflation, and fewer replicas than failures means permanent loss.
//
// Emits one JSON line per run (machine-readable) plus the usual table.

#include <cstdio>
#include <functional>
#include <memory>

#include "bench_common.hpp"
#include "core/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "server/master_service.hpp"

using namespace rc;

namespace {

constexpr int kServers = 8;
constexpr int kTableSpan = 5;  // servers 5..7 hold replicas but no tablets
constexpr sim::SimTime kKillAt = sim::seconds(2);

struct RunResult {
  bool converged = false;
  bool recovered = false;
  bool allKeys = false;
  double recoverySec = 0;   ///< coordinator's detectedAt -> finishedAt
  double gapSec = 0;        ///< crash -> tablets served again
  double repairDeficit = 0; ///< rf deficit left at the deadline
  std::uint64_t rpcRetries = 0;      ///< client re-issues (net.rpc.retries.*)
  double duplicatesSuppressed = 0;   ///< linearize.duplicates_suppressed
};

/// Closed-loop write probe on a key owned by the server that will crash:
/// the write caught by the crash times out and is retried, so the run
/// exercises the client retry path (and, when the original attempt got
/// durable first, the new owner's duplicate suppression). Returns the stop
/// flag. The in-flight write and the pending re-issue own the loop; the
/// loop refers to itself weakly, so it is freed once it stops.
std::shared_ptr<bool> startWriteProbe(core::Cluster& c, std::uint64_t table,
                                      std::uint64_t key) {
  auto stop = std::make_shared<bool>(false);
  auto step = std::make_shared<std::function<void()>>();
  auto& rc = *c.clientHost(0).rc;
  *step = [&c, &rc, table, key, stop, weak = std::weak_ptr(step)] {
    if (*stop) return;
    rc.write(table, key, 100,
             [&c, stop, self = weak.lock()](net::Status, sim::Duration) {
               if (*stop) return;
               c.sim().schedule(sim::msec(2), [self] { (*self)(); });
             });
  };
  (*step)();
  return stop;
}

RunResult runOnce(int rf, int backupFailures, std::uint64_t records,
                  std::uint64_t seed, bool injectFaults = true) {
  core::ClusterParams p;
  p.servers = kServers;
  p.clients = 1;
  p.seed = seed;
  p.replicationFactor = rf;
  core::Cluster c(p);
  const auto table = c.createTable("t", kTableSpan);
  c.bulkLoad(table, records, 1000);

  std::uint64_t probeKey = 0;
  while (c.ownerOfKey(table, probeKey) != c.serverNodeId(0)) ++probeKey;
  auto probeStop = startWriteProbe(c, table, probeKey);

  fault::FaultPlan plan;
  if (injectFaults) {
    plan.crashServer(kKillAt, 0);
    if (backupFailures >= 1) plan.crashOnRecovery(1, sim::msec(30), 7);
    if (backupFailures >= 2) plan.crashOnRecovery(1, sim::msec(60), 6);
  }
  fault::FaultInjector injector(c, plan, c.sim().rng().fork(0xF14));
  injector.arm();

  auto rfDeficit = [&c] {
    double d = 0;
    for (int i = 0; i < c.serverCount(); ++i) {
      if (c.serverAlive(i)) {
        d += static_cast<double>(
            c.server(i).master->replicaManager().rfDeficit());
      }
    }
    return d;
  };

  // Healthy map: every tablet served by a live server. A recovery master
  // that dies right after finishing its partition leaves tablets pointed
  // at a corpse until the failure detector triggers the *next* recovery —
  // convergence must wait that cascade out.
  auto mapHealthy = [&c] {
    for (const auto& e : c.coord().tabletMap().entries()) {
      if (e.state != coordinator::TabletMap::TabletState::kUp) return false;
      bool alive = false;
      for (int i = 0; i < c.serverCount(); ++i) {
        alive |= c.serverAlive(i) && c.serverNodeId(i) == e.tablet.owner;
      }
      if (!alive) return false;
    }
    return true;
  };

  if (injectFaults) {
    const sim::SimTime deadline = sim::seconds(600);
    while (c.sim().now() < deadline &&
           (c.coord().recoveryLog().empty() ||
            c.coord().recoveryInProgress() || rfDeficit() > 0 ||
            !mapHealthy())) {
      c.sim().runFor(sim::msec(100));
    }
  } else {
    // Fault-free shape-check window: no retries, no suppressed duplicates.
    c.sim().runFor(sim::seconds(4));
  }
  *probeStop = true;
  c.sim().runFor(sim::seconds(1));  // drain the probe's last op

  RunResult r;
  r.converged =
      !c.coord().recoveryInProgress() && rfDeficit() == 0 && mapHealthy();
  r.repairDeficit = rfDeficit();
  for (const auto& rec : c.coord().recoveryLog()) {
    if (rec.crashed != c.serverNodeId(0)) continue;
    r.recovered = rec.succeeded;
    r.recoverySec = sim::toSeconds(rec.duration());
    r.gapSec = sim::toSeconds(rec.finishedAt - kKillAt);
  }
  r.allKeys = c.verifyAllKeysPresent(table, records);
  r.rpcRetries = c.totalRpcRetries();
  r.duplicatesSuppressed =
      c.metrics().value("cluster.linearize.duplicates_suppressed");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner(
      "Fig. 14 (ext) — recovery under backup failures, by replication factor",
      "extends Taleb et al., ICDCS'17, Figs. 9-11 (multi-failure hardening)");

  const std::uint64_t records = opt.recoveryRecords(300'000);
  core::TableFormatter t({"rf", "backup deaths", "recovered", "all keys",
                          "recovery (s)", "avail. gap (s)"});
  // results[rf - 2][failures]
  RunResult results[3][3];
  for (int rf = 2; rf <= 4; ++rf) {
    for (int failures = 0; failures <= 2; ++failures) {
      const auto r = runOnce(rf, failures, records, opt.seed);
      results[rf - 2][failures] = r;
      t.addRow({std::to_string(rf), std::to_string(failures),
                r.recovered ? "yes" : "NO", r.allKeys ? "yes" : "NO",
                core::TableFormatter::num(r.recoverySec, 2),
                core::TableFormatter::num(r.gapSec, 2)});
      std::printf(
          "{\"figure\":\"14ext\",\"rf\":%d,\"backup_failures\":%d,"
          "\"recovered\":%s,\"all_keys_present\":%s,\"converged\":%s,"
          "\"recovery_s\":%.3f,\"availability_gap_s\":%.3f,"
          "\"rf_deficit_left\":%.0f,\"rpc_retries\":%llu,"
          "\"duplicates_suppressed\":%.0f,\"records\":%llu,\"seed\":%llu}\n",
          rf, failures, r.recovered ? "true" : "false",
          r.allKeys ? "true" : "false", r.converged ? "true" : "false",
          r.recoverySec, r.gapSec, r.repairDeficit,
          static_cast<unsigned long long>(r.rpcRetries),
          r.duplicatesSuppressed, static_cast<unsigned long long>(records),
          static_cast<unsigned long long>(opt.seed));
    }
  }
  t.print();
  std::printf("note: each run crashes one tablet owner at t=2s; backup "
              "deaths hit tablet-less replica holders 30/60 ms into the "
              "recovery. 'avail. gap' = crash to tablets served again. A "
              "write probe runs throughout, so rpc_retries counts the "
              "client re-issues the crash forced and duplicates_suppressed "
              "the retries answered from completion records.\n\n");

  // Fault-free shape check: the exactly-once machinery must be inert when
  // nothing fails.
  const auto base = runOnce(3, 0, records, opt.seed, /*injectFaults=*/false);
  std::printf(
      "{\"figure\":\"14ext-baseline\",\"rf\":3,\"backup_failures\":0,"
      "\"rpc_retries\":%llu,\"duplicates_suppressed\":%.0f,"
      "\"records\":%llu,\"seed\":%llu}\n",
      static_cast<unsigned long long>(base.rpcRetries),
      base.duplicatesSuppressed, static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(opt.seed));

  bench::Verdict v;
  v.check(base.duplicatesSuppressed == 0 && base.rpcRetries == 0,
          "no faults -> zero suppressed duplicates and zero client retries");
  // With failures <= rf-1 concurrent crashes, nothing may be lost.
  bool safeZoneIntact = true;
  for (int rf = 2; rf <= 4; ++rf) {
    for (int f = 0; f <= 2 && f <= rf - 2; ++f) {
      const auto& r = results[rf - 2][f];
      safeZoneIntact &= r.recovered && r.allKeys && r.converged;
    }
  }
  v.check(safeZoneIntact,
          "every run with backup deaths <= rf-2 recovers with zero loss "
          "(total concurrent failures stay <= rf-1)");
  v.check(results[1][1].recovered && results[1][1].allKeys,
          "rf=3 tolerates one backup death mid-recovery");
  v.check(results[1][1].recoverySec <
              2.0 * results[1][0].recoverySec + 0.5,
          "rf=3's recovery time inflates < 2x when one backup dies "
          "mid-recovery (failover, not restart)");
  v.check(results[2][2].recovered && results[2][2].allKeys,
          "rf=4 tolerates two backup deaths mid-recovery");
  v.check(results[0][0].recovered && results[0][0].allKeys,
          "clean recovery baseline holds at rf=2");
  return v.exitCode();
}
