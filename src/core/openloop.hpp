#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "load/arrival.hpp"
#include "load/traffic_source.hpp"
#include "obs/slo_tracker.hpp"
#include "ycsb/workload.hpp"

namespace rc::core {

/// One tenant of an open-loop run: a population shape replicated over
/// `sources` client hosts (each host's TrafficSource models
/// shape.users users, so the tenant's modeled population is
/// sources * shape.users), plus the tenant's SLO targets and its policy at
/// the per-tenant dispatch QoS stage (docs/WORKLOADS.md).
struct OpenLoopTenantConfig {
  std::string name = "tenant";
  int sources = 1;
  load::TrafficShape shape;
  obs::SloTarget readSlo;
  obs::SloTarget updateSlo;

  /// Per-node admitted requests/sec cap for this tenant (0 = use weight).
  double qosRatePerSec = 0;
  /// Weight share of OpenLoopConfig::nodeQosRatePerSec when rate == 0.
  double qosWeight = 0;
  double qosBurst = 64;
  bool qosPriority = false;
};

/// Open-loop counterpart of YcsbExperimentConfig: stand up a cluster, load
/// records, run TrafficSources (one per client host) for warmup + measure,
/// report delivered rate, intent-time latency, generator-cost accounting
/// and per-tenant QoS outcomes.
struct OpenLoopConfig {
  int servers = 10;
  int replicationFactor = 0;
  ycsb::WorkloadSpec workload = ycsb::WorkloadSpec::B();
  std::vector<OpenLoopTenantConfig> tenants;

  sim::Duration warmup = sim::seconds(2);
  sim::Duration measure = sim::seconds(8);
  std::uint64_t seed = 42;
  double timeScale = 1.0;  ///< shrink windows (tests / --quick benches)

  /// Generator batching quantum, copied into every TrafficSourceParams.
  sim::Duration batchQuantum = sim::usec(100);

  /// Per-node capacity split among weight-based tenant policies. The QoS
  /// stage is installed iff some tenant declares a rate or a weight.
  double nodeQosRatePerSec = 0;

  /// When non-empty, run the 1 Hz sampler and export metrics.jsonl etc.
  std::string metricsDir;

  /// Post-construction hook (extra SLO classes, fault plans, ...).
  std::function<void(Cluster&)> clusterHook;
};

struct OpenLoopTenantResult {
  std::string name;
  std::uint64_t modeledUsers = 0;
  double offeredRatePerSec = 0;  ///< mean drawn arrival rate (diurnal mean)
  std::uint64_t opsCompleted = 0;
  std::uint64_t opFailures = 0;
  // QoS bucket outcomes summed over servers (zero when QoS is off).
  std::uint64_t qosOffered = 0;
  std::uint64_t qosAdmitted = 0;
  std::uint64_t qosThrottled = 0;
  std::uint64_t qosEpisodes = 0;
  // Intent-time latency over the whole run (includes open-loop queueing).
  double readMeanUs = 0;
  double readP99Us = 0;
  double readP999Us = 0;
  double updateP99Us = 0;
  double updateP999Us = 0;
};

struct OpenLoopResult {
  std::uint64_t modeledUsers = 0;
  double offeredRatePerSec = 0;   ///< sum of tenant means
  double deliveredOpsPerSec = 0;  ///< completions in the window
  std::uint64_t opsMeasured = 0;
  double measuredSeconds = 0;

  /// Simulator-cost accounting over the measurement window: total events
  /// the heap executed, and the generator side of it (arrivals drawn vs
  /// wakeup events — the o(1)-per-request evidence, whole run).
  std::uint64_t eventsExecuted = 0;
  double eventsPerOp = 0;
  std::uint64_t arrivalsGenerated = 0;
  std::uint64_t generatorWakeups = 0;
  std::uint64_t sourceDropped = 0;

  std::uint64_t opFailures = 0;
  std::uint64_t shedRequests = 0;  ///< CoDel + QoS bounces, all dispatches

  std::vector<OpenLoopTenantResult> tenants;
  std::vector<obs::SloTracker::WindowRow> sloWindows;
  std::uint64_t sloBreachedWindows = 0;
};

/// Builds the cluster (client hosts = sum of tenant sources), declares the
/// tenants' SLO classes, installs the QoS stage when any tenant asks for
/// one, loads records, runs warmup then a measurement window.
OpenLoopResult runOpenLoopExperiment(const OpenLoopConfig& cfg);

}  // namespace rc::core
