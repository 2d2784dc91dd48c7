#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "load/arrival.hpp"
#include "obs/event_journal.hpp"
#include "obs/slo_tracker.hpp"
#include "power/energy_model.hpp"
#include "power/power_model.hpp"
#include "sim/stats.hpp"
#include "ycsb/workload.hpp"

namespace rc::core {

/// One open-loop tenant: a population shape replicated over `sources`
/// client hosts (it models sources * shape.users users), its SLO targets
/// and its dispatch QoS bucket (docs/WORKLOADS.md).
struct OpenLoopTenant {
  std::string name = "tenant";
  int sources = 1;
  load::TrafficShape shape;
  obs::SloTarget readSlo;
  obs::SloTarget updateSlo;
  double qosRatePerSec = 0;  ///< per-node admitted req/s cap (0 = no bucket)
  bool qosPriority = false;
};

/// Crash recovery (paper §VII): a seeded-random server is killed at the
/// end of warm-up; the window lasts until the coordinator reports
/// recovery, plus `settleAfter`.
struct CrashConfig {
  sim::Duration killAt = sim::seconds(60);  ///< the warm-up of a crash run
  /// Fig. 10's probes: client 1 requests only the killed server's keys,
  /// client 2 the rest. Without them the run has no clients.
  bool probeClients = false;
  sim::Duration settleAfter = sim::seconds(10);  ///< post-recovery tail
  /// Timeline bucket width (quick runs recover in well under a second).
  sim::Duration sampleEvery = sim::seconds(1);
};

/// One experiment, the protocol of paper §§IV-VII: build the cluster, load
/// `workload.recordCount` records, warm up, measure a window, collect.
/// The load is the closed-loop YCSB fleet (one client per host) unless
/// `openLoop` lists tenants (one host per traffic source); a `crash` run
/// drives only its probes. The paper fixes request *counts*; throughput is
/// stationary, so we measure a fixed window and scale energies to the
/// paper's counts (EXPERIMENTS.md).
struct ExperimentConfig {
  ClusterParams cluster;
  ycsb::WorkloadSpec workload = ycsb::WorkloadSpec::C();

  sim::Duration warmup = sim::seconds(2);
  sim::Duration measure = sim::seconds(8);  ///< floored at 500 ms
  double timeScale = 1.0;  ///< shrinks both (tests / --quick benches)

  /// Non-empty: run the 1 Hz stats sampler and export the run's metrics,
  /// series, events, ... into this directory.
  std::string metricsDir;

  /// Runs after the tenants' SLO classes are declared, before the load
  /// (extra SLO classes, QoS, fault plans, tickers).
  std::function<void(Cluster&)> clusterHook;

  /// Closed loop. A non-empty `client.tenant` declares "<tenant>/read" and
  /// "<tenant>/update" SLO classes with the targets below (docs/SLO.md).
  ycsb::YcsbClientParams client;
  /// Per-client tweak after the common copy (fig13's mixed tenants).
  std::function<void(int, ycsb::YcsbClientParams&)> perClientParams;
  obs::SloTarget readSlo;
  obs::SloTarget updateSlo;

  std::vector<OpenLoopTenant> openLoop;
  sim::Duration batchQuantum = sim::usec(100);  ///< of every traffic source

  std::optional<CrashConfig> crash;
};

struct TenantResult {
  std::string name;
  std::uint64_t modeledUsers = 0;
  double offeredRatePerSec = 0;  ///< mean drawn arrival rate (diurnal mean)
  std::uint64_t opsCompleted = 0;
  std::uint64_t opFailures = 0;
  std::uint64_t qosOffered = 0;
  std::uint64_t qosAdmitted = 0;
  std::uint64_t qosThrottled = 0;
  std::uint64_t qosEpisodes = 0;
  // Intent-time latency over the whole run (open-loop queueing included).
  double readP99Us = 0;
  double readP999Us = 0;
};

struct ExperimentResult {
  // ----- the measurement window
  double measuredSeconds = 0;
  std::uint64_t opsMeasured = 0;
  double throughputOpsPerSec = 0;
  std::uint64_t eventsExecuted = 0;  ///< heap events in the window
  double eventsPerOp = 0;

  double meanPowerPerServerW = 0;  ///< time-mean of per-node watts
  double clusterPowerW = 0;        ///< sum over server nodes
  /// Sum over servers of the fitted P(u) curve at each node's utilisation
  /// (the paper's PDU-era estimate, without NIC/DRAM/disk dynamics).
  double curvePowerW = 0;
  double meanCpuPct = 0;  ///< across nodes, mean over window
  double minCpuPct = 0;   ///< min over nodes of per-node mean
  double maxCpuPct = 0;

  double opsPerJoule = 0;         ///< throughput / cluster watts (Fig. 2)
  double opsPerJoulePerNode = 0;  ///< throughput / per-node watts (Fig. 8)

  /// Component-model joules of the server fleet over the window, total and
  /// per power::Component. clusterPowerW == clusterEnergyJ / window.
  double clusterEnergyJ = 0;
  std::array<double, power::kComponentCount> componentEnergyJ{};

  // ----- whole run
  /// Closed-loop client latencies, merged across clients.
  double readMeanLatencyUs = 0;
  double updateMeanLatencyUs = 0;
  double readP99Us = 0;

  /// Per-stage RPC latency from the cluster TimeTrace (Finding 3's
  /// dispatch vs. worker vs. replication-wait contention, made visible).
  double dispatchWaitMeanUs = 0;
  double dispatchWaitP99Us = 0;
  double workerServiceMeanUs = 0;
  double workerServiceP99Us = 0;
  double replicationWaitMeanUs = 0;
  double replicationWaitP99Us = 0;

  std::uint64_t opFailures = 0;
  std::uint64_t rpcTimeouts = 0;
  std::uint64_t rpcRetries = 0;  ///< client re-issues (net.rpc.retries.*)
  std::uint64_t shedRequests = 0;  ///< CoDel + QoS bounces, all dispatches
  /// Clients saw failed ops: Fig. 6a's missing 10-server points.
  bool crashed = false;

  /// Minitransaction outcomes (cluster.tx.* plus client-side counts).
  std::uint64_t txPrepares = 0;
  std::uint64_t txCommits = 0;
  std::uint64_t txAborts = 0;
  std::uint64_t txConflicts = 0;
  std::uint64_t txOrphansResolved = 0;
  std::uint64_t txTransfers = 0;      ///< committed two-key transfers
  std::uint64_t txClientAborted = 0;  ///< tx ops clients saw abort cleanly
  std::uint64_t txClientUnknown = 0;  ///< outcomes left to orphan resolution

  /// Log cleaning: passes summed over masters, worst write amplification.
  std::uint64_t cleanerRuns = 0;
  double cleanerWriteAmp = 0;

  /// SLO windows (when any class was declared) and their breach count.
  std::vector<obs::SloTracker::WindowRow> sloWindows;
  std::uint64_t sloBreachedWindows = 0;

  // ----- open loop (generator cost over the whole run)
  std::uint64_t modeledUsers = 0;
  double offeredRatePerSec = 0;  ///< sum of tenant means
  std::uint64_t arrivalsGenerated = 0;
  std::uint64_t generatorWakeups = 0;
  std::uint64_t sourceDropped = 0;
  std::vector<TenantResult> tenants;

  // ----- crash
  bool recovered = false;
  bool allKeysRecovered = false;
  sim::Duration detectionDelay = 0;    ///< kill -> coordinator declares dead
  sim::Duration recoveryDuration = 0;  ///< declare-dead -> all partitions up
  double dataRecoveredGB = 0;
  /// Per alive node over [crash detected, recovery finished].
  double meanPowerDuringRecoveryW = 0;
  double peakCpuPct = 0;
  double energyPerNodeDuringRecoveryJ = 0;

  // One point per sampleEvery bucket over alive servers (disk: MB/s).
  sim::TimeSeries cpuMeanPct;     ///< mean CPU % of alive servers
  sim::TimeSeries powerMeanW;     ///< mean watts of alive servers
  sim::TimeSeries diskReadMBps;   ///< aggregated
  sim::TimeSeries diskWriteMBps;  ///< aggregated

  // Fig. 10 probe-client latency timelines (per-bucket mean, us).
  sim::TimeSeries client1LatencyUs;
  sim::TimeSeries client2LatencyUs;
  /// Probe client 1's worst op: the availability gap.
  double client1WorstOpUs = 0;

  sim::SimTime killTime = 0;
  sim::SimTime recoveryEndTime = 0;
  int victimNodeId = 0;  ///< node id of the killed server

  /// The event journal at the end of a crash run (the recovery span tree).
  std::vector<obs::EventJournal::Span> spans;

  /// Total energy the paper would have measured for a run serving
  /// `totalRequests` at this throughput and power (Figs. 4b / 6b).
  double energyForRequestsJ(std::uint64_t totalRequests) const {
    if (throughputOpsPerSec <= 0) return 0;
    return static_cast<double>(totalRequests) / throughputOpsPerSec *
           clusterPowerW;
  }
};

ExperimentResult runExperiment(const ExperimentConfig& cfg);

}  // namespace rc::core
