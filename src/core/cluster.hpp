#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/ramcloud_client.hpp"
#include "coordinator/coordinator.hpp"
#include "load/traffic_source.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "node/node.hpp"
#include "obs/event_journal.hpp"
#include "obs/metric_registry.hpp"
#include "obs/metrics_exporter.hpp"
#include "obs/slo_tracker.hpp"
#include "obs/stats_sampler.hpp"
#include "obs/time_trace.hpp"
#include "server/backup_service.hpp"
#include "server/dispatch.hpp"
#include "server/master_service.hpp"
#include "sim/simulation.hpp"
#include "ycsb/ycsb_client.hpp"

namespace rc::core {

/// Everything needed to stand up a simulated Grid'5000 deployment:
/// coordinator + N collocated master/backup servers + M client machines.
struct ClusterParams {
  int servers = 10;
  int clients = 10;
  std::uint64_t seed = 42;

  /// Convenience: copied into master.replication.factor at build time.
  int replicationFactor = 0;

  net::TransportParams transport = net::TransportParams::infiniband();
  node::NodeParams serverNode{};  ///< metered (the 40 PDU nodes)
  node::NodeParams clientNode{};  ///< unmetered, plain machines
  server::MasterParams master{};
  server::BackupParams backup{};
  server::DispatchParams dispatch{};
  coordinator::CoordinatorParams coordinator{};
  client::ClientParams client{};
};

class Cluster {
 public:
  explicit Cluster(ClusterParams params);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  struct Server {
    std::unique_ptr<node::Node> node;
    std::unique_ptr<server::Dispatch> dispatch;
    std::unique_ptr<server::MasterService> master;
    std::unique_ptr<server::BackupService> backup;
  };
  struct ClientHost {
    std::unique_ptr<node::Node> node;
    std::unique_ptr<client::RamCloudClient> rc;
    /// A host runs either the closed-loop YCSB process (configureYcsb) or
    /// an open-loop population source (configureOpenLoop), never both.
    std::unique_ptr<ycsb::YcsbClient> ycsb;
    std::unique_ptr<load::TrafficSource> traffic;
  };

  sim::Simulation& sim() { return sim_; }
  net::Network& network() { return net_; }
  net::RpcSystem& rpc() { return rpc_; }
  coordinator::Coordinator& coord() { return *coord_; }
  const ClusterParams& params() const { return params_; }
  const server::ServiceDirectory& directory() const { return directory_; }

  // ----- observability

  /// Cluster-wide metric registry: every node/dispatch/master/backup
  /// registers its counters and gauges here under "node<N>.*" paths, plus
  /// cluster-level aggregates under "cluster.*".
  obs::MetricRegistry& metrics() { return metrics_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }

  /// Per-RPC time trace shared by every client and master.
  obs::TimeTrace& timeTrace() { return trace_; }
  const obs::TimeTrace& timeTrace() const { return trace_; }

  /// Cluster-wide event journal: recovery/migration/cleaner phase spans
  /// with cross-node causality and per-span energy (see docs/TRACING.md).
  obs::EventJournal& journal() { return journal_; }
  const obs::EventJournal& journal() const { return journal_; }

  /// Windowed SLO tracker (docs/SLO.md). Declare tenant classes on it
  /// before configureYcsb; a breached window arms the trace ring's dump.
  obs::SloTracker& sloTracker() { return slo_; }
  const obs::SloTracker& sloTracker() const { return slo_; }

  /// Start the 1 Hz registry sampler (same tick cadence as the PDUs; call
  /// it alongside startPduSampling so the series align). Idempotent.
  void startStatsSampling();
  const obs::StatsSampler* sampler() const { return sampler_.get(); }

  /// Dump metrics.jsonl + series.csv (registry state, sampler series,
  /// per-node PDU watt traces, time-trace histograms) plus events.jsonl
  /// (the journal's span tree) into `dir`. When the SLO tracker has
  /// declared classes, also slo.jsonl (closing any in-progress windows
  /// first); when the trace ring was armed, flight.jsonl.
  bool exportMetrics(const std::string& dir);

  int serverCount() const { return static_cast<int>(servers_.size()); }
  int clientCount() const { return static_cast<int>(clients_.size()); }
  Server& server(int idx) { return servers_[static_cast<std::size_t>(idx)]; }
  ClientHost& clientHost(int idx) {
    return clients_[static_cast<std::size_t>(idx)];
  }
  node::NodeId serverNodeId(int idx) const { return 1 + idx; }
  node::NodeId clientNodeId(int idx) const {
    return 1 + params_.servers + idx;
  }
  bool serverAlive(int idx) const {
    return servers_[static_cast<std::size_t>(idx)].node->processRunning();
  }
  int aliveServerCount() const;

  // ----- setup

  std::uint64_t createTable(const std::string& name, int serverSpan = -1);

  /// Event-free load phase: `records` keys [0, records) of `valueBytes`
  /// each, routed by the tablet map, replicas installed per placement.
  void bulkLoad(std::uint64_t tableId, std::uint64_t records,
                std::uint32_t valueBytes);

  void startPduSampling();

  /// Stop every node's PDU sampler (final fractional window included), so
  /// the sampled traces reconcile exactly with the component integrals.
  /// exportMetrics calls this; explicit calls are idempotent.
  void stopPduSampling();

  /// Toggle the per-op energy ledger on every node (and the network's NIC
  /// charge hook). Off removes the hooks entirely — the A/B pair behind
  /// `bench_selfperf --energy-overhead`. Power, timing and results are
  /// identical either way; only attribution detail is lost.
  void setEnergyMetering(bool on);

  // ----- YCSB run phase

  /// Give every client host a closed-loop YcsbClient, replacing any
  /// open-loop source. `perClient` (optional) tweaks the i-th client's
  /// params after the common copy — fig13's mixed-tenant runs assign
  /// tenants/throttles per client through it. Every client is attached to
  /// the SLO tracker; only those whose tenant classes are declared
  /// actually record. Configure before starting: replacing a driver with
  /// ops in flight is not supported.
  void configureYcsb(
      std::uint64_t tableId, const ycsb::WorkloadSpec& spec,
      const ycsb::YcsbClientParams& clientParams,
      const std::function<void(int, ycsb::YcsbClientParams&)>& perClient = {});
  void startYcsb();
  void stopYcsb();

  // ----- open-loop run phase (docs/WORKLOADS.md)

  /// Replace client host i's closed-loop process with an open-loop
  /// TrafficSource per sources[i]; hosts beyond the list are left with no
  /// driver. Each source gets a splitmix-forked RNG keyed on (cluster
  /// seed, host index) and a disjoint insert key base; all are attached to
  /// the SLO tracker. Configure before starting, as for configureYcsb.
  void configureOpenLoop(std::uint64_t tableId, const ycsb::WorkloadSpec& spec,
                         const std::vector<load::TrafficSourceParams>& sources);
  void startTraffic();
  void stopTraffic();

  /// Install the per-tenant dispatch QoS stage on every server: buckets +
  /// per-node "node<N>.dispatch.qos.*" counters + cluster aggregates
  /// "cluster.qos.<name>.*" + a journal event per throttle episode.
  void configureQos(const server::QosParams& qos);

  /// Generator accounting summed over traffic sources (o(1)-batching
  /// evidence: wakeups should be far below arrivals at high rates).
  std::uint64_t totalArrivalsGenerated() const;
  std::uint64_t totalGeneratorWakeups() const;
  std::uint64_t totalSourceDropped() const;
  /// Sum of one named qos counter ("offered"/"admitted"/"throttled"/
  /// "episodes") for a policy name, across servers.
  std::uint64_t qosCounter(const std::string& policy,
                           const std::string& which) const;

  std::uint64_t totalOpsCompleted() const;
  std::uint64_t totalOpFailures() const;
  std::uint64_t totalRpcTimeouts() const;
  /// Client-side RPC re-issues summed over all clients (net.rpc.retries.*).
  std::uint64_t totalRpcRetries() const;
  /// Requests bounced with kOverloaded, summed over all dispatch stages
  /// (docs/OVERLOAD.md).
  std::uint64_t totalShedRequests() const;
  /// kOverloaded bounces observed client-side (net.rpc.overloaded.total).
  std::uint64_t totalOverloadedBounces() const;
  /// Servers currently in shedding state (exemplar brownout is engaged
  /// whenever this is nonzero).
  int sheddingServers() const { return sheddingServers_; }

  // ----- failure injection

  void crashServer(int idx);
  int pickRandomServerIndex();

  // ----- cluster resizing (SS IX)

  /// Migrate one tablet to another server (by index). `done(ok)` fires
  /// once the coordinator flipped the map.
  void migrateTablet(const server::Tablet& tablet, int destIdx,
                     std::function<void(bool)> done);

  /// Move every tablet off server `idx`, spreading them round-robin over
  /// the other active servers; `done(ok)` when the server is empty.
  void drainServer(int idx, std::function<void(bool)> done);

  /// Standby a *drained* server: deregister, unbind, suspend the machine.
  /// Returns false if it still owns tablets.
  bool suspendServer(int idx);

  /// Wake a suspended server and re-enlist it (empty; the caller
  /// rebalances tablets onto it, e.g. via the Autoscaler).
  void resumeServer(int idx);

  bool serverSuspended(int idx) const {
    return servers_[static_cast<std::size_t>(idx)].node->suspended();
  }

  // ----- verification helpers (tests)

  /// Every key in [0, records) readable from its current owner's index?
  bool verifyAllKeysPresent(std::uint64_t tableId, std::uint64_t records,
                            std::uint64_t* firstMissing = nullptr) const;

  /// The server currently owning a key per the coordinator's map.
  server::ServerId ownerOfKey(std::uint64_t tableId,
                              std::uint64_t keyId) const;

 private:
  void registerClusterMetrics();
  void installEnergyCharge();
  bool writeEnergyJsonl(const std::string& path) const;

  ClusterParams params_;
  sim::Simulation sim_;
  net::Network net_;
  net::RpcSystem rpc_;
  server::ServiceDirectory directory_;
  /// Recovery side logs started in this cluster (directory_.nextSideLogBase).
  std::uint32_t sideLogsStarted_ = 0;
  obs::MetricRegistry metrics_;
  obs::TimeTrace trace_;
  obs::EventJournal journal_;
  obs::SloTracker slo_;
  std::unique_ptr<obs::StatsSampler> sampler_;
  /// Fixed per-node energy origins for the journal's energy probe.
  std::unordered_map<int, node::Node::PowerSnapshot> energyBaselines_;
  int sheddingServers_ = 0;

  std::unique_ptr<node::Node> coordNode_;
  std::unique_ptr<coordinator::Coordinator> coord_;
  std::vector<Server> servers_;
  std::vector<ClientHost> clients_;
};

}  // namespace rc::core
