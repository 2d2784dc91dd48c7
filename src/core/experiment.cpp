#include "core/experiment.hpp"

#include <algorithm>
#include <memory>
#include <vector>

namespace rc::core {

namespace {

/// A crash run gives up on the coordinator's verdict after this long.
constexpr sim::Duration kMaxRecoveryWait = sim::seconds(600);

sim::Duration scaled(sim::Duration d, double scale) {
  return static_cast<sim::Duration>(static_cast<double>(d) * scale);
}

/// Crash-run timelines: every `interval`, the mean CPU % and watts of the
/// alive servers and the aggregate disk rates.
std::unique_ptr<sim::PeriodicTask> sampleTimelines(Cluster& cluster,
                                                   ExperimentResult& out,
                                                   sim::Duration interval) {
  std::vector<node::CpuScheduler::Snapshot> cpu;
  std::vector<std::uint64_t> rd;
  std::vector<std::uint64_t> wr;
  for (int i = 0; i < cluster.serverCount(); ++i) {
    const node::Node& nd = *cluster.server(i).node;
    cpu.push_back(nd.snapshotCpu());
    rd.push_back(nd.disk().bytesRead());
    wr.push_back(nd.disk().bytesWritten());
  }
  const double secs = sim::toSeconds(interval);
  return std::make_unique<sim::PeriodicTask>(
      cluster.sim(), interval,
      [&cluster, &out, secs, cpu, rd, wr](sim::SimTime now) mutable {
        double cpuSum = 0;
        double wattSum = 0;
        int alive = 0;
        std::uint64_t dr = 0;
        std::uint64_t dw = 0;
        for (int i = 0; i < cluster.serverCount(); ++i) {
          auto& nd = *cluster.server(i).node;
          const std::size_t idx = static_cast<std::size_t>(i);
          dr += nd.disk().bytesRead() - rd[idx];
          dw += nd.disk().bytesWritten() - wr[idx];
          rd[idx] = nd.disk().bytesRead();
          wr[idx] = nd.disk().bytesWritten();
          if (!cluster.serverAlive(i)) {
            cpu[idx] = nd.snapshotCpu();
            continue;
          }
          const double u = nd.meanUtilisationSince(cpu[idx], now);
          cpu[idx] = nd.snapshotCpu();
          cpuSum += u;
          wattSum += power::fittedWatts(u);
          ++alive;
        }
        if (alive > 0) {
          out.cpuMeanPct.add(now, 100.0 * cpuSum / alive);
          out.powerMeanW.add(now, wattSum / alive);
        }
        // Rate-normalize so the series stays MB/s at any bucket width.
        out.diskReadMBps.add(now, static_cast<double>(dr) / 1e6 / secs);
        out.diskWriteMBps.add(now, static_cast<double>(dw) / 1e6 / secs);
      });
}

/// Per-bucket mean latency of one probe client.
struct LatencyTimeline {
  sim::Duration bucket = sim::seconds(1);
  sim::TimeSeries series;
  sim::SimTime bucketStart = 0;
  sim::MinMaxMean current;
  double worstUs = 0;

  void record(sim::SimTime now, sim::Duration latency) {
    for (; now >= bucketStart + bucket; bucketStart += bucket) flush();
    current.add(sim::toMicros(latency));
    worstUs = std::max(worstUs, sim::toMicros(latency));
  }
  void flush() {
    if (current.count() > 0) series.add(bucketStart + bucket, current.mean());
    current.reset();
  }
};

/// Fig. 10's probes: two gentle read-only clients bound to the victim's
/// pre-crash tablets (client 1) and to the rest (client 2), each feeding
/// a latency timeline.
void startProbes(Cluster& cluster, std::uint64_t table, std::uint64_t records,
                 node::NodeId victim, LatencyTimeline& lat1,
                 LatencyTimeline& lat2) {
  const ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::C(records);
  ycsb::YcsbClientParams ycp;
  ycp.clientOverheadPerOp = sim::usec(18);
  ycp.throttleOpsPerSec = 2000;  // the paper charts per-op latency, not load
  cluster.configureYcsb(table, spec, ycp);

  const std::vector<server::Tablet> victimTablets =
      cluster.coord().tabletMap().tabletsOwnedBy(victim);
  auto inVictim = [victimTablets, table](std::uint64_t k) {
    const std::uint64_t h = hash::keyHash(hash::Key{table, k});
    for (const auto& t : victimTablets) {
      if (t.covers(table, h)) return true;
    }
    return false;
  };
  ycsb::YcsbClientParams p1 = ycp;
  p1.keyPredicate = inVictim;
  ycsb::YcsbClientParams p2 = ycp;
  p2.keyPredicate = [inVictim](std::uint64_t k) { return !inVictim(k); };
  auto& c1 = cluster.clientHost(0);
  auto& c2 = cluster.clientHost(1);
  c1.ycsb = std::make_unique<ycsb::YcsbClient>(
      cluster.sim(), *c1.rc, table, spec, p1, cluster.sim().rng().fork(71));
  c2.ycsb = std::make_unique<ycsb::YcsbClient>(
      cluster.sim(), *c2.rc, table, spec, p2, cluster.sim().rng().fork(72));
  c1.ycsb->onOpComplete = [&lat1](sim::SimTime t, sim::Duration l, bool) {
    lat1.record(t, l);
  };
  c2.ycsb->onOpComplete = [&lat2](sim::SimTime t, sim::Duration l, bool) {
    lat2.record(t, l);
  };
  cluster.startYcsb();
}

/// SLO classes first: their dense ids become the RPC tenant tags the QoS
/// stage keys on (tag = class id + 1; docs/SLO.md, docs/WORKLOADS.md).
void declareTenants(Cluster& cluster, const ExperimentConfig& cfg) {
  obs::SloTracker& slo = cluster.sloTracker();
  if (!cfg.client.tenant.empty()) {
    slo.declareClass(cfg.client.tenant + "/read", cfg.readSlo);
    slo.declareClass(cfg.client.tenant + "/update", cfg.updateSlo);
  }
  server::QosParams qos;
  for (const OpenLoopTenant& t : cfg.openLoop) {
    slo.declareClass(t.name + "/read", t.readSlo);
    slo.declareClass(t.name + "/update", t.updateSlo);
    if (t.qosRatePerSec <= 0) continue;
    qos.enabled = true;
    server::QosTenantPolicy p;
    p.name = t.name;
    p.tags = {slo.classId(t.name + "/read") + 1,
              slo.classId(t.name + "/update") + 1};
    p.ratePerSec = t.qosRatePerSec;
    p.priority = t.qosPriority;
    qos.tenants.push_back(std::move(p));
  }
  if (qos.enabled) cluster.configureQos(qos);
}

/// Per-tenant rows of an open-loop run; tenant t occupies the contiguous
/// client-host block starting at starts[t] (empty unless open loop ran).
void collectTenants(Cluster& cluster, const ExperimentConfig& cfg,
                    const std::vector<int>& starts, ExperimentResult& r) {
  for (std::size_t ti = 0; ti < starts.size(); ++ti) {
    const OpenLoopTenant& t = cfg.openLoop[ti];
    TenantResult row;
    row.name = t.name;
    const int n = std::max(1, t.sources);
    row.modeledUsers = static_cast<std::uint64_t>(n) * t.shape.users;
    row.offeredRatePerSec =
        static_cast<double>(n) * t.shape.baseRate() * t.shape.diurnal.mean();
    sim::Histogram reads;
    for (int s = 0; s < n; ++s) {
      const auto* src = cluster.clientHost(starts[ti] + s).traffic.get();
      if (src == nullptr) continue;
      row.opsCompleted += src->stats().opsCompleted;
      row.opFailures += src->stats().failures;
      reads.merge(src->stats().readLatency);
    }
    row.readP99Us = sim::toMicros(reads.percentile(0.99));
    row.readP999Us = sim::toMicros(reads.percentile(0.999));
    row.qosOffered = cluster.qosCounter(t.name, "offered");
    row.qosAdmitted = cluster.qosCounter(t.name, "admitted");
    row.qosThrottled = cluster.qosCounter(t.name, "throttled");
    row.qosEpisodes = cluster.qosCounter(t.name, "episodes");
    r.modeledUsers += row.modeledUsers;
    r.offeredRatePerSec += row.offeredRatePerSec;
    r.tenants.push_back(std::move(row));
  }
}

}  // namespace

ExperimentResult runExperiment(const ExperimentConfig& cfg) {
  ClusterParams cp = cfg.cluster;
  std::vector<int> starts;
  if (cfg.crash) {
    cp.clients = cfg.crash->probeClients ? 2 : 0;
  } else if (!cfg.openLoop.empty()) {
    int hosts = 0;
    for (const OpenLoopTenant& t : cfg.openLoop) {
      starts.push_back(hosts);
      hosts += std::max(1, t.sources);
    }
    cp.clients = std::max(1, hosts);
  }

  Cluster cluster(cp);
  ExperimentResult r;
  declareTenants(cluster, cfg);
  if (cfg.clusterHook) cfg.clusterHook(cluster);

  const std::uint64_t table = cluster.createTable("usertable");
  cluster.bulkLoad(table, cfg.workload.recordCount, cfg.workload.valueBytes);
  cluster.startPduSampling();
  if (!cfg.metricsDir.empty()) cluster.startStatsSampling();

  // ----- the load
  int victim = -1;
  bool finished = false;
  coordinator::RecoveryRecord record;
  std::vector<node::CpuScheduler::Snapshot> detectSnaps;
  LatencyTimeline lat1;
  LatencyTimeline lat2;
  std::unique_ptr<sim::PeriodicTask> timelines;
  if (cfg.crash) {
    // Kill target: seeded random, the paper's "randomly picked" server.
    victim = cluster.pickRandomServerIndex();
    r.victimNodeId = cluster.serverNodeId(victim);
    lat1.bucket = cfg.crash->sampleEvery;
    lat2.bucket = cfg.crash->sampleEvery;
    if (cfg.crash->probeClients) {
      startProbes(cluster, table, cfg.workload.recordCount, r.victimNodeId,
                  lat1, lat2);
    }
    timelines = sampleTimelines(cluster, r, cfg.crash->sampleEvery);
    r.dataRecoveredGB =
        static_cast<double>(cluster.server(victim).master->log().liveBytes()) /
        (1024.0 * 1024.0 * 1024.0);
    // The coordinator reports detection and recovery. The recovery-energy
    // window is snapshotted at both edges inside the sim (detection ->
    // finish), so it covers exactly the replay burst.
    cluster.coord().onCrashDetected = [&](server::ServerId) {
      detectSnaps.clear();
      for (int i = 0; i < cluster.serverCount(); ++i) {
        detectSnaps.push_back(cluster.server(i).node->snapshotCpu());
      }
    };
    cluster.coord().onRecoveryFinished =
        [&](const coordinator::RecoveryRecord& rec) {
          finished = true;
          record = rec;
          if (detectSnaps.empty()) return;
          const sim::SimTime now = cluster.sim().now();
          double joules = 0;
          double watts = 0;
          int alive = 0;
          for (int i = 0; i < cluster.serverCount(); ++i) {
            if (!cluster.serverAlive(i)) continue;
            const auto& snap = detectSnaps[static_cast<std::size_t>(i)];
            if (now <= snap.time) continue;
            const double j =
                cluster.server(i).node->energyJoulesSince(snap, now);
            joules += j;
            watts += j / sim::toSeconds(now - snap.time);
            ++alive;
          }
          if (alive > 0) {
            r.energyPerNodeDuringRecoveryJ = joules / alive;
            r.meanPowerDuringRecoveryW = watts / alive;
          }
        };
  } else if (!cfg.openLoop.empty()) {
    std::vector<load::TrafficSourceParams> sources;
    for (const OpenLoopTenant& t : cfg.openLoop) {
      for (int s = 0; s < std::max(1, t.sources); ++s) {
        load::TrafficSourceParams p;
        p.shape = t.shape;
        p.batchQuantum = cfg.batchQuantum;
        p.tenant = t.name;
        sources.push_back(std::move(p));
      }
    }
    cluster.configureOpenLoop(table, cfg.workload, sources);
    cluster.startTraffic();
  } else {
    cluster.configureYcsb(table, cfg.workload, cfg.client,
                          cfg.perClientParams);
    cluster.startYcsb();
  }

  // ----- warm-up, then the measurement window
  cluster.sim().runFor(cfg.crash ? cfg.crash->killAt
                                 : scaled(cfg.warmup, cfg.timeScale));
  const sim::SimTime t0 = cluster.sim().now();
  const std::uint64_t ops0 = cluster.totalOpsCompleted();
  const std::uint64_t ev0 = cluster.sim().eventsExecuted();
  std::vector<node::Node::PowerSnapshot> snaps;
  for (int i = 0; i < cluster.serverCount(); ++i) {
    snaps.push_back(cluster.server(i).node->snapshotPower());
  }

  if (cfg.crash) {
    r.killTime = t0;
    cluster.crashServer(victim);
    const sim::SimTime deadline = t0 + kMaxRecoveryWait;
    while (!finished && cluster.sim().now() < deadline) {
      cluster.sim().runFor(sim::msec(250));
    }
    r.recovered = finished && record.succeeded;
    if (finished) {
      r.detectionDelay = record.detectedAt - r.killTime;
      r.recoveryDuration = record.duration();
    }
    r.recoveryEndTime = cluster.sim().now();
    cluster.sim().runFor(cfg.crash->settleAfter);
  } else {
    cluster.sim().runFor(std::max<sim::Duration>(
        sim::msec(500), scaled(cfg.measure, cfg.timeScale)));
  }

  const sim::SimTime t1 = cluster.sim().now();
  r.opsMeasured = cluster.totalOpsCompleted() - ops0;
  r.eventsExecuted = cluster.sim().eventsExecuted() - ev0;
  cluster.stopYcsb();
  cluster.stopTraffic();

  // ----- collect
  r.measuredSeconds = sim::toSeconds(t1 - t0);
  // Guard the degenerate zero-length window instead of propagating inf/nan.
  r.throughputOpsPerSec =
      r.measuredSeconds > 0
          ? static_cast<double>(r.opsMeasured) / r.measuredSeconds
          : 0;
  r.eventsPerOp = r.opsMeasured > 0 ? static_cast<double>(r.eventsExecuted) /
                                          static_cast<double>(r.opsMeasured)
                                    : 0;

  // Window power from the per-resource model (statics + CPU slope + event
  // dynamics), so NIC/DRAM/disk activity shows up in the watts.
  double cpuSum = 0;
  double cpuMin = 1.0;
  double cpuMax = 0.0;
  for (int i = 0; i < cluster.serverCount(); ++i) {
    const node::Node& node = *cluster.server(i).node;
    const auto& snap = snaps[static_cast<std::size_t>(i)];
    const double u = node.meanUtilisationSince(snap.cpu, t1);
    cpuSum += u;
    cpuMin = std::min(cpuMin, u);
    cpuMax = std::max(cpuMax, u);
    r.curvePowerW += power::fittedWatts(u);
    const auto by = node.componentEnergySince(snap, t1);
    for (std::size_t c = 0; c < power::kComponentCount; ++c) {
      r.componentEnergyJ[c] += by[c];
      r.clusterEnergyJ += by[c];
    }
    const auto& master = *cluster.server(i).master;
    r.cleanerRuns += master.stats().cleanerRuns;
    r.cleanerWriteAmp = std::max(
        r.cleanerWriteAmp, master.cleaner().stats().writeAmplification());
  }
  const double n = static_cast<double>(cluster.serverCount());
  r.meanCpuPct = 100.0 * cpuSum / n;
  r.minCpuPct = 100.0 * cpuMin;
  r.maxCpuPct = 100.0 * cpuMax;
  r.clusterPowerW =
      r.measuredSeconds > 0 ? r.clusterEnergyJ / r.measuredSeconds : 0;
  r.meanPowerPerServerW = r.clusterPowerW / n;
  r.opsPerJoule =
      power::efficiency::opsPerJoule(r.throughputOpsPerSec, r.clusterPowerW);
  r.opsPerJoulePerNode = power::efficiency::opsPerJoulePerNode(
      r.throughputOpsPerSec, r.meanPowerPerServerW);

  sim::Histogram reads;
  sim::Histogram updates;
  for (int i = 0; i < cluster.clientCount(); ++i) {
    const auto* y = cluster.clientHost(i).ycsb.get();
    if (y == nullptr) continue;
    reads.merge(y->stats().readLatency);
    updates.merge(y->stats().updateLatency);
    r.txTransfers += y->stats().transfers;
    r.txClientAborted += y->stats().txAborted;
    r.txClientUnknown += y->stats().txUnknown;
  }
  r.readMeanLatencyUs = reads.mean() / 1e3;
  r.updateMeanLatencyUs = updates.mean() / 1e3;
  r.readP99Us = sim::toMicros(reads.percentile(0.99));

  using Stage = obs::TimeTrace::Stage;
  const auto& dw = cluster.timeTrace().stageHistogram(Stage::kDispatchWait);
  const auto& ws = cluster.timeTrace().stageHistogram(Stage::kWorkerService);
  const auto& rw = cluster.timeTrace().stageHistogram(Stage::kReplicationWait);
  r.dispatchWaitMeanUs = dw.mean() / 1e3;
  r.dispatchWaitP99Us = sim::toMicros(dw.percentile(0.99));
  r.workerServiceMeanUs = ws.mean() / 1e3;
  r.workerServiceP99Us = sim::toMicros(ws.percentile(0.99));
  r.replicationWaitMeanUs = rw.mean() / 1e3;
  r.replicationWaitP99Us = sim::toMicros(rw.percentile(0.99));

  r.opFailures = cluster.totalOpFailures();
  r.rpcTimeouts = cluster.totalRpcTimeouts();
  r.rpcRetries = cluster.totalRpcRetries();
  r.shedRequests = cluster.totalShedRequests();
  r.crashed = r.opFailures > 0;

  const auto count = [&cluster](const char* name) {
    return static_cast<std::uint64_t>(cluster.metrics().value(name));
  };
  r.txPrepares = count("cluster.tx.prepares");
  r.txCommits = count("cluster.tx.commits");
  r.txAborts = count("cluster.tx.aborts");
  r.txConflicts = count("cluster.tx.conflicts");
  r.txOrphansResolved = count("cluster.tx.orphans_resolved");

  r.arrivalsGenerated = cluster.totalArrivalsGenerated();
  r.generatorWakeups = cluster.totalGeneratorWakeups();
  r.sourceDropped = cluster.totalSourceDropped();
  collectTenants(cluster, cfg, starts, r);

  if (cfg.crash) {
    lat1.flush();
    lat2.flush();
    r.client1LatencyUs = std::move(lat1.series);
    r.client2LatencyUs = std::move(lat2.series);
    r.client1WorstOpUs = lat1.worstUs;
    r.peakCpuPct = r.cpuMeanPct.maxValue();
    r.allKeysRecovered = r.recovered && cluster.verifyAllKeysPresent(
                                            table, cfg.workload.recordCount);
    r.spans = cluster.journal().spans();
  }

  if (cluster.sloTracker().enabled()) {
    cluster.sloTracker().finish();
    r.sloWindows = cluster.sloTracker().rows();
    r.sloBreachedWindows = cluster.sloTracker().breachedWindows();
  }
  if (!cfg.metricsDir.empty()) cluster.exportMetrics(cfg.metricsDir);
  return r;
}

}  // namespace rc::core
