#include "core/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <fstream>

#include "obs/jsonl.hpp"

namespace rc::core {

Cluster::Cluster(ClusterParams params)
    : params_(params),
      sim_(params.seed),
      net_(sim_, params.transport),
      rpc_(sim_, net_),
      trace_(sim_),
      journal_(sim_),
      slo_(sim_) {
  params_.master.replication.factor = params_.replicationFactor;
  params_.clientNode.metered = false;

  // The trace ring is only *dumped* when something arms it — an SLO
  // breach here, or a fault injection (FaultInjector::fire).
  slo_.onBreach = [this](const obs::SloTracker::WindowRow& row) {
    trace_.trigger(sim_.now(), "slo_breach:" + row.cls);
  };

  directory_.masterOn = [this](node::NodeId n) -> server::MasterService* {
    const int idx = n - 1;
    if (idx < 0 || idx >= serverCount()) return nullptr;
    Server& s = servers_[static_cast<std::size_t>(idx)];
    return s.node->processRunning() ? s.master.get() : nullptr;
  };
  directory_.backupOn = [this](node::NodeId n) -> server::BackupService* {
    const int idx = n - 1;
    if (idx < 0 || idx >= serverCount()) return nullptr;
    Server& s = servers_[static_cast<std::size_t>(idx)];
    return s.node->processRunning() ? s.backup.get() : nullptr;
  };
  directory_.liveBackups = [this] {
    std::vector<node::NodeId> out;
    out.reserve(static_cast<std::size_t>(serverCount()));
    for (int i = 0; i < serverCount(); ++i) {
      if (serverAlive(i)) out.push_back(serverNodeId(i));
    }
    return out;
  };

  // Node 0: coordinator (its own machine, not metered — the paper reports
  // power for the 40 PDU-equipped RAMCloud server nodes only).
  node::NodeParams coordNodeParams = params_.serverNode;
  coordNodeParams.metered = false;
  coordNode_ = std::make_unique<node::Node>(sim_, 0, coordNodeParams);
  coordNode_->startProcess();
  coord_ = std::make_unique<coordinator::Coordinator>(
      *coordNode_, rpc_, directory_, journal_, params_.coordinator,
      sim_.rng().fork(0xc0));
  rpc_.bind(0, net::kCoordinatorPort, coord_.get());
  // Masters consult the coordinator's lease table through the directory
  // (state side-channel; the timing-bearing RPCs are kOpenLease/kRenewLease).
  directory_.leaseValid = [this](std::uint64_t clientId) {
    return coord_->leaseValid(clientId);
  };
  directory_.nextSideLogBase = [this] {
    return log::sideLogIdBase(sideLogsStarted_++);
  };

  auto planLookup = [this](std::uint64_t id) { return coord_->planById(id); };

  servers_.reserve(static_cast<std::size_t>(params_.servers));
  for (int i = 0; i < params_.servers; ++i) {
    const node::NodeId nid = serverNodeId(i);
    Server s;
    s.node = std::make_unique<node::Node>(sim_, nid, params_.serverNode);
    s.node->startProcess();
    s.dispatch = std::make_unique<server::Dispatch>(sim_, params_.dispatch);
    s.master = std::make_unique<server::MasterService>(
        *s.node, *s.dispatch, rpc_, directory_, journal_, trace_,
        params_.master, planLookup, /*coordinatorNode=*/0,
        sim_.rng().fork(0x1000 + nid));
    s.backup = std::make_unique<server::BackupService>(
        *s.node, *s.dispatch, rpc_, directory_, journal_, params_.backup,
        planLookup);
    rpc_.bind(nid, net::kMasterPort, s.master.get());
    rpc_.bind(nid, net::kBackupPort, s.backup.get());
    coord_->enlistServer(nid);

    const std::string prefix = "node" + std::to_string(nid);
    s.node->registerMetrics(metrics_, prefix);
    s.dispatch->registerMetrics(metrics_, prefix + ".master.dispatch");
    s.dispatch->registerOverloadMetrics(metrics_, prefix + ".dispatch");
    // Degradation ladder: exemplar capture is browned out while *any*
    // server sheds; overload_enter/exit journal events bracket the window.
    s.dispatch->onOverloadState = [this, nid](bool on) {
      if (on) {
        ++sheddingServers_;
        journal_.event("overload_enter", static_cast<int>(nid));
      } else {
        if (sheddingServers_ > 0) --sheddingServers_;
        journal_.event("overload_exit", static_cast<int>(nid));
      }
      slo_.setExemplarBrownout(sheddingServers_ > 0);
    };
    s.master->registerMetrics(metrics_, prefix + ".master");
    s.backup->registerMetrics(metrics_, prefix + ".backup");
    servers_.push_back(std::move(s));
  }

  // Journal energy probe: cumulative per-component model joules per node
  // since t=0 (coordinator + servers; client machines are unmetered -> 0).
  energyBaselines_[0] = coordNode_->snapshotPower();
  for (int i = 0; i < serverCount(); ++i) {
    energyBaselines_[serverNodeId(i)] =
        servers_[static_cast<std::size_t>(i)].node->snapshotPower();
  }
  journal_.setEnergyProbe(
      [this](int nodeId) -> obs::EventJournal::EnergyBreakdown {
        obs::EventJournal::EnergyBreakdown out;
        auto it = energyBaselines_.find(nodeId);
        if (it == energyBaselines_.end()) return out;
        const node::Node* n =
            nodeId == 0
                ? coordNode_.get()
                : servers_[static_cast<std::size_t>(nodeId - 1)].node.get();
        const auto by = n->componentEnergySince(it->second, sim_.now());
        out.cpu = by[static_cast<std::size_t>(power::Component::kCpu)];
        out.dram = by[static_cast<std::size_t>(power::Component::kDram)];
        out.nic = by[static_cast<std::size_t>(power::Component::kNic)];
        out.disk = by[static_cast<std::size_t>(power::Component::kDisk)];
        out.platform =
            by[static_cast<std::size_t>(power::Component::kPlatform)];
        return out;
      });

  // NIC frames charge the server-side ledger; coordinator and client
  // machines are unmetered so their frames only burn (uncounted) energy
  // on their own nodes, matching the paper's server-only PDU scope.
  installEnergyCharge();

  // SLO window energy: joules charged to the class's tenant slot across
  // all server ledgers (tenant slot = class id + 1; see docs/ENERGY.md).
  slo_.setEnergyProbe([this](int classId) {
    const std::uint16_t slot = static_cast<std::uint16_t>(classId + 1);
    double j = 0;
    for (const auto& s : servers_) j += s.node->energyMeter().tenantJoules(slot);
    return j;
  });

  clients_.reserve(static_cast<std::size_t>(params_.clients));
  for (int i = 0; i < params_.clients; ++i) {
    const node::NodeId nid = clientNodeId(i);
    ClientHost c;
    c.node = std::make_unique<node::Node>(sim_, nid, params_.clientNode);
    c.node->startProcess();
    c.rc = std::make_unique<client::RamCloudClient>(
        sim_, rpc_, nid, /*coordinator=*/0,
        [this]() -> const coordinator::TabletMap* {
          return &coord_->tabletMap();
        },
        trace_, params_.client);
    clients_.push_back(std::move(c));
  }

  registerClusterMetrics();
  coord_->startFailureDetector();
}

void Cluster::registerClusterMetrics() {
  trace_.registerMetrics(metrics_, "cluster.rpc");
  journal_.registerMetrics(metrics_, "cluster.journal");
  slo_.registerMetrics(metrics_, "slo");
  trace_.registerRingMetrics(metrics_, "cluster.flight");
  metrics_.probeCounter("cluster.client.ops", "ops", [this] {
    return static_cast<double>(totalOpsCompleted());
  });
  metrics_.probeCounter("cluster.client.failures", "ops", [this] {
    return static_cast<double>(totalOpFailures());
  });
  metrics_.probeCounter("cluster.rpc.timeouts", "ops", [this] {
    return static_cast<double>(totalRpcTimeouts());
  });
  metrics_.probeGauge("cluster.alive_servers", "servers", [this] {
    return static_cast<double>(aliveServerCount());
  });
  // Cluster energy rollups over the metered servers (model integrals from
  // the construction-time origins, so the 1 Hz sampler's .rate series is a
  // per-component cluster watts timeline — docs/ENERGY.md).
  for (std::size_t ci = 0; ci < power::kComponentCount; ++ci) {
    const auto comp = static_cast<power::Component>(ci);
    metrics_.probeCounter(
        std::string("cluster.energy.") + power::componentName(comp) +
            ".joules",
        "joules", [this, ci] {
          double j = 0;
          for (int i = 0; i < serverCount(); ++i) {
            const auto& base = energyBaselines_.at(serverNodeId(i));
            j += servers_[static_cast<std::size_t>(i)]
                     .node->componentEnergySince(base, sim_.now())[ci];
          }
          return j;
        });
  }
  metrics_.probeCounter("cluster.energy.total_joules", "joules", [this] {
    double j = 0;
    for (int i = 0; i < serverCount(); ++i) {
      const auto& base = energyBaselines_.at(serverNodeId(i));
      j += servers_[static_cast<std::size_t>(i)].node->energyJoulesSince(
          base, sim_.now());
    }
    return j;
  });
  metrics_.probeGauge("cluster.power.watts", "watts", [this] {
    double w = 0;
    for (int i = 0; i < serverCount(); ++i) {
      w += servers_[static_cast<std::size_t>(i)].node->currentWatts();
    }
    return w;
  });
  metrics_.probeGauge("cluster.energy.ops_per_joule", "ops_per_joule",
                      [this] {
                        double j = 0;
                        for (int i = 0; i < serverCount(); ++i) {
                          const auto& base =
                              energyBaselines_.at(serverNodeId(i));
                          j += servers_[static_cast<std::size_t>(i)]
                                   .node->energyJoulesSince(base, sim_.now());
                        }
                        const double ops =
                            static_cast<double>(totalOpsCompleted());
                        return j > 0 ? ops / j : 0.0;
                      });
  // Replica slots lost to backup deaths and not yet repaired, summed over
  // live masters; returns to 0 once background re-replication converges.
  metrics_.probeGauge("cluster.rf_deficit", "replicas", [this] {
    std::uint64_t deficit = 0;
    for (int i = 0; i < serverCount(); ++i) {
      if (serverAlive(i)) {
        deficit += servers_[static_cast<std::size_t>(i)]
                       .master->replicaManager()
                       .rfDeficit();
      }
    }
    return static_cast<double>(deficit);
  });
  metrics_.probeCounter("net.messages_dropped", "msgs", [this] {
    return static_cast<double>(net_.messagesDropped());
  });
  // RPC timeouts observed by the transport, total and per opcode.
  metrics_.probeCounter("net.rpc.timeouts.total", "ops", [this] {
    return static_cast<double>(rpc_.timeoutsObserved());
  });
  for (std::size_t op = 0; op < net::kOpcodeCount; ++op) {
    const auto opcode = static_cast<net::Opcode>(op);
    metrics_.probeCounter(
        std::string("net.rpc.timeouts.") + net::opcodeName(opcode), "ops",
        [this, opcode] {
          return static_cast<double>(rpc_.timeoutsForOpcode(opcode));
        });
  }
  // Client-side retries (re-issues of an already-sent RPC), mirroring the
  // timeout counters above.
  metrics_.probeCounter("net.rpc.retries.total", "ops", [this] {
    return static_cast<double>(totalRpcRetries());
  });
  for (std::size_t op = 0; op < net::kOpcodeCount; ++op) {
    const auto opcode = static_cast<net::Opcode>(op);
    metrics_.probeCounter(
        std::string("net.rpc.retries.") + net::opcodeName(opcode), "ops",
        [this, opcode] {
          std::uint64_t n = 0;
          for (const auto& c : clients_) {
            if (c.rc) n += c.rc->retriesForOpcode(opcode);
          }
          return static_cast<double>(n);
        });
  }
  // Overload control (docs/OVERLOAD.md): kOverloaded bounces observed by
  // clients, total and per opcode, mirroring the retry counters above —
  // plus cluster-wide shed totals and the exemplar-brownout state.
  metrics_.probeCounter("net.rpc.overloaded.total", "ops", [this] {
    return static_cast<double>(totalOverloadedBounces());
  });
  for (std::size_t op = 0; op < net::kOpcodeCount; ++op) {
    const auto opcode = static_cast<net::Opcode>(op);
    metrics_.probeCounter(
        std::string("net.rpc.overloaded.") + net::opcodeName(opcode), "ops",
        [this, opcode] {
          std::uint64_t n = 0;
          for (const auto& c : clients_) {
            if (c.rc) n += c.rc->overloadedForOpcode(opcode);
          }
          return static_cast<double>(n);
        });
  }
  metrics_.probeCounter("cluster.shed_requests", "ops", [this] {
    return static_cast<double>(totalShedRequests());
  });
  metrics_.probeGauge("cluster.shedding_servers", "servers", [this] {
    return static_cast<double>(sheddingServers_);
  });
  metrics_.probeCounter("slo.exemplar_brownouts", "count", [this] {
    return static_cast<double>(slo_.brownoutEngagements());
  });
  // Exactly-once layer, summed over live masters (docs/LINEARIZABILITY.md).
  const auto sumUnacked =
      [this](std::uint64_t (server::UnackedRpcResults::*probe)() const) {
        std::uint64_t n = 0;
        for (int i = 0; i < serverCount(); ++i) {
          if (!serverAlive(i)) continue;
          const auto& u = servers_[static_cast<std::size_t>(i)]
                              .master->unackedRpcResults();
          n += (u.*probe)();
        }
        return static_cast<double>(n);
      };
  metrics_.probeCounter("cluster.linearize.duplicates_suppressed", "ops",
                        [sumUnacked] {
                          return sumUnacked(
                              &server::UnackedRpcResults::duplicatesSuppressed);
                        });
  metrics_.probeCounter("cluster.linearize.completion_records", "ops",
                        [sumUnacked] {
                          return sumUnacked(
                              &server::UnackedRpcResults::completionsRecorded);
                        });
  metrics_.probeCounter("cluster.linearize.records_recovered", "ops",
                        [sumUnacked] {
                          return sumUnacked(
                              &server::UnackedRpcResults::recordsRecovered);
                        });
  metrics_.probeCounter("cluster.linearize.records_gced", "ops", [sumUnacked] {
    return sumUnacked(&server::UnackedRpcResults::recordsGced);
  });
  metrics_.probeGauge("cluster.linearize.tracked_clients", "items", [this] {
    std::uint64_t n = 0;
    for (int i = 0; i < serverCount(); ++i) {
      if (!serverAlive(i)) continue;
      n += servers_[static_cast<std::size_t>(i)]
               .master->unackedRpcResults()
               .trackedClients();
    }
    return static_cast<double>(n);
  });
  // Minitransaction layer, summed over live masters (docs/TRANSACTIONS.md).
  const auto sumTx =
      [this](std::uint64_t (server::TxLockTable::*probe)() const) {
        std::uint64_t n = 0;
        for (int i = 0; i < serverCount(); ++i) {
          if (!serverAlive(i)) continue;
          const auto& t =
              servers_[static_cast<std::size_t>(i)].master->txLockTable();
          n += (t.*probe)();
        }
        return static_cast<double>(n);
      };
  metrics_.probeCounter("cluster.tx.prepares", "ops", [sumTx] {
    return sumTx(&server::TxLockTable::prepares);
  });
  metrics_.probeCounter("cluster.tx.commits", "ops", [sumTx] {
    return sumTx(&server::TxLockTable::commits);
  });
  metrics_.probeCounter("cluster.tx.aborts", "ops", [sumTx] {
    return sumTx(&server::TxLockTable::aborts);
  });
  metrics_.probeCounter("cluster.tx.conflicts", "ops", [sumTx] {
    return sumTx(&server::TxLockTable::conflicts);
  });
  metrics_.probeCounter("cluster.tx.orphans_resolved", "ops", [sumTx] {
    return sumTx(&server::TxLockTable::orphansResolved);
  });
  metrics_.probeCounter("cluster.tx.locks_recovered", "ops", [sumTx] {
    return sumTx(&server::TxLockTable::locksRecovered);
  });
  metrics_.probeGauge("cluster.tx.locks_held", "items", [this] {
    std::uint64_t n = 0;
    for (int i = 0; i < serverCount(); ++i) {
      if (!serverAlive(i)) continue;
      n += servers_[static_cast<std::size_t>(i)]
               .master->txLockTable()
               .locksHeld();
    }
    return static_cast<double>(n);
  });
  metrics_.probeCounter("coordinator.tx.resolutions_started", "ops", [this] {
    return static_cast<double>(coord_->txResolutionsStarted());
  });
  metrics_.probeCounter("coordinator.tx.resolutions_committed", "ops",
                        [this] {
                          return static_cast<double>(
                              coord_->txResolutionsCommitted());
                        });
  metrics_.probeCounter("coordinator.tx.resolutions_aborted", "ops", [this] {
    return static_cast<double>(coord_->txResolutionsAborted());
  });
  metrics_.probeCounter("coordinator.tx.resolutions_abandoned", "ops",
                        [this] {
                          return static_cast<double>(
                              coord_->txResolutionsAbandoned());
                        });
  metrics_.probeCounter("coordinator.linearize.leases_issued", "ops", [this] {
    return static_cast<double>(coord_->leasesIssued());
  });
  metrics_.probeCounter("coordinator.linearize.lease_renewals", "ops",
                        [this] {
                          return static_cast<double>(coord_->leaseRenewals());
                        });
  metrics_.probeCounter("coordinator.linearize.leases_expired", "ops",
                        [this] {
                          return static_cast<double>(coord_->leasesExpired());
                        });
  metrics_.probeGauge("coordinator.linearize.active_leases", "items", [this] {
    return static_cast<double>(coord_->activeLeases());
  });
}

void Cluster::startStatsSampling() {
  if (!sampler_) {
    sampler_ = std::make_unique<obs::StatsSampler>(sim_, metrics_);
  }
}

bool Cluster::exportMetrics(const std::string& dir) {
  // Close in-progress SLO windows first so the registry probes sampled by
  // the exporter agree with slo.jsonl, and stop the PDUs (final fractional
  // sample) so the sampled traces cover exactly [start, now] — that is
  // what makes the energy.jsonl reconciliation rows exact.
  if (slo_.enabled()) slo_.finish();
  stopPduSampling();
  obs::MetricsExporter exporter(metrics_);
  if (sampler_) exporter.attachSampler(sampler_.get());
  for (int i = 0; i < serverCount(); ++i) {
    const auto* pdu = servers_[static_cast<std::size_t>(i)].node->pdu();
    if (pdu != nullptr) {
      exporter.addSeries(
          "node" + std::to_string(serverNodeId(i)) + ".pdu.watts",
          &pdu->trace());
    }
  }
  if (!exporter.exportRunDir(dir)) return false;
  if (!journal_.writeJsonl(dir + "/events.jsonl")) return false;
  if (slo_.enabled() && !slo_.writeJsonl(dir + "/slo.jsonl")) return false;
  if (!writeEnergyJsonl(dir + "/energy.jsonl")) return false;
  // flight.jsonl appears only when something armed the ring: a clean
  // run's dir stays flight-free by design.
  if (trace_.triggered() &&
      !trace_.writeFlightJsonl(dir + "/flight.jsonl")) {
    return false;
  }
  return true;
}

bool Cluster::writeEnergyJsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  char line[512];
  const sim::SimTime now = sim_.now();
  double clusterJ = 0;
  for (int i = 0; i < serverCount(); ++i) {
    const node::Node& n = *servers_[static_cast<std::size_t>(i)].node;
    const int nid = serverNodeId(i);
    // Reconciliation origin: the snapshot taken when PDU sampling began (so
    // total_j and pdu_j cover the same window and must agree within the
    // 0.1 % gate), else the construction-time origin with pdu_j = 0.
    const node::Node::PowerSnapshot* origin = n.pduBaseline();
    if (origin == nullptr) origin = &energyBaselines_.at(nid);
    const auto by = n.componentEnergySince(*origin, now);
    double total = 0;
    for (double c : by) total += c;
    clusterJ += total;
    const double seconds = sim::toSeconds(now - origin->cpu.time);
    const double pduJ =
        n.pdu() != nullptr ? n.pdu()->totalSampledJoules() : 0.0;
    std::snprintf(
        line, sizeof(line),
        "{\"type\":\"energy_node\",\"node\":%d,\"seconds\":%.9f,"
        "\"cpu_j\":%.6f,\"dram_j\":%.6f,\"nic_j\":%.6f,\"disk_j\":%.6f,"
        "\"platform_j\":%.6f,\"total_j\":%.6f,\"pdu_j\":%.6f,"
        "\"mean_w\":%.6f}\n",
        nid, seconds, by[0], by[1], by[2], by[3], by[4], total, pduJ,
        seconds > 0 ? total / seconds : 0.0);
    os << line;
    // Attribution cells: cumulative dynamic joules since node construction
    // (the ledger's origin; a superset of the PDU window — docs/ENERGY.md).
    n.energyMeter().forEachCell([&](power::Component c, power::OpClass o,
                                    std::uint16_t slot, double j) {
      std::snprintf(line, sizeof(line),
                    "{\"type\":\"energy_cell\",\"node\":%d,"
                    "\"component\":\"%s\",\"class\":\"%s\",\"tenant\":%u,"
                    "\"joules\":%.9f}\n",
                    nid, power::componentName(c),
                    obs::jsonEscape(power::opClassName(o)).c_str(),
                    static_cast<unsigned>(slot), j);
      os << line;
    });
    // Dynamic energy no charge site claimed (worker spin-before-sleep,
    // polling core, untagged IOs): continuous integral minus ledger sum,
    // clamped against float rounding. NIC/DRAM dynamics exist only as
    // ledger charges, so their remainder is identically zero.
    const auto cpuSnap = n.snapshotCpu();
    const double cpuDyn =
        power::kCpuActiveWattsPerCore *
        (cpuSnap.busyCoreSeconds + cpuSnap.auxBusyCoreSeconds);
    const double diskDyn = power::kDiskActiveWatts * n.disk().busySeconds(now);
    const double cpuRem = std::max(
        0.0, cpuDyn - n.energyMeter().componentJoules(power::Component::kCpu));
    const double diskRem =
        std::max(0.0, diskDyn - n.energyMeter().componentJoules(
                                    power::Component::kDisk));
    std::snprintf(line, sizeof(line),
                  "{\"type\":\"energy_remainder\",\"node\":%d,"
                  "\"component\":\"cpu\",\"joules\":%.9f}\n",
                  nid, cpuRem);
    os << line;
    std::snprintf(line, sizeof(line),
                  "{\"type\":\"energy_remainder\",\"node\":%d,"
                  "\"component\":\"disk\",\"joules\":%.9f}\n",
                  nid, diskRem);
    os << line;
  }
  // Per-tenant rollup: one row per declared SLO class (tenant slot id+1),
  // summed over the server ledgers — the joules/op table behind
  // `rcdiag energy` and the paper's SS VII efficiency framing.
  for (int id = 0; id < slo_.classCount(); ++id) {
    const std::uint16_t slot = static_cast<std::uint16_t>(id + 1);
    double j = 0;
    for (int i = 0; i < serverCount(); ++i) {
      j += servers_[static_cast<std::size_t>(i)]
               .node->energyMeter()
               .tenantJoules(slot);
    }
    const std::uint64_t ops = slo_.classRecorded(id);
    std::snprintf(
        line, sizeof(line),
        "{\"type\":\"energy_tenant\",\"class\":\"%s\",\"tenant\":%u,"
        "\"joules\":%.6f,\"ops\":%llu,\"j_per_op\":%.9f,"
        "\"ops_per_j\":%.4f}\n",
        obs::jsonEscape(slo_.className(id)).c_str(),
        static_cast<unsigned>(slot), j,
        static_cast<unsigned long long>(ops),
        ops > 0 && j > 0 ? j / static_cast<double>(ops) : 0.0,
        j > 0 ? static_cast<double>(ops) / j : 0.0);
    os << line;
  }
  const std::uint64_t ops = totalOpsCompleted();
  std::snprintf(line, sizeof(line),
                "{\"type\":\"energy_cluster\",\"servers\":%d,"
                "\"total_j\":%.6f,\"ops\":%llu,\"j_per_op\":%.9f,"
                "\"ops_per_j\":%.4f}\n",
                serverCount(), clusterJ,
                static_cast<unsigned long long>(ops),
                ops > 0 && clusterJ > 0
                    ? clusterJ / static_cast<double>(ops)
                    : 0.0,
                clusterJ > 0 ? static_cast<double>(ops) / clusterJ : 0.0);
  os << line;
  return static_cast<bool>(os);
}

Cluster::~Cluster() = default;

int Cluster::aliveServerCount() const {
  int n = 0;
  for (int i = 0; i < serverCount(); ++i) {
    if (serverAlive(i)) ++n;
  }
  return n;
}

std::uint64_t Cluster::createTable(const std::string& name, int serverSpan) {
  // The paper sets ServerSpan = number of servers: uniform distribution.
  const int span = serverSpan < 0 ? params_.servers : serverSpan;
  return coord_->createTable(name, span);
}

void Cluster::bulkLoad(std::uint64_t tableId, std::uint64_t records,
                       std::uint32_t valueBytes) {
  for (std::uint64_t key = 0; key < records; ++key) {
    const server::ServerId owner = ownerOfKey(tableId, key);
    if (owner == node::kInvalidNode) continue;
    if (auto* m = directory_.masterOn(owner)) {
      m->bulkInsert(tableId, key, valueBytes);
    }
  }
  for (auto& s : servers_) {
    if (s.node->processRunning()) s.master->installReplicasAfterBulkLoad();
  }
}

void Cluster::startPduSampling() {
  for (auto& s : servers_) s.node->startPduSampling();
}

void Cluster::stopPduSampling() {
  for (auto& s : servers_) s.node->stopPduSampling();
}

void Cluster::installEnergyCharge() {
  for (auto& s : servers_) {
    net_.setNicEnergyNode(s.node->id(), s.node.get());
  }
}

void Cluster::setEnergyMetering(bool on) {
  coordNode_->setEnergyMetering(on);
  for (auto& s : servers_) s.node->setEnergyMetering(on);
  for (auto& c : clients_) c.node->setEnergyMetering(on);
  // Uninstall the network hook entirely when off so the A/B overhead gate
  // measures the true per-frame cost, not a disabled-meter early return.
  if (on) {
    installEnergyCharge();
  } else {
    net_.clearNicEnergy();
  }
}

void Cluster::configureYcsb(
    std::uint64_t tableId, const ycsb::WorkloadSpec& spec,
    const ycsb::YcsbClientParams& clientParams,
    const std::function<void(int, ycsb::YcsbClientParams&)>& perClient) {
  for (int i = 0; i < clientCount(); ++i) {
    ClientHost& c = clients_[static_cast<std::size_t>(i)];
    ycsb::YcsbClientParams p = clientParams;
    // Disjoint insert key ranges per client machine (workload D).
    p.insertKeyBase =
        spec.recordCount + static_cast<std::uint64_t>(i + 1) * (1ULL << 32);
    if (perClient) perClient(i, p);
    c.traffic.reset();
    c.ycsb = std::make_unique<ycsb::YcsbClient>(
        sim_, *c.rc, tableId, spec, p,
        sim_.rng().fork(0x9c5b + static_cast<std::uint64_t>(i)));
    c.ycsb->setSloTracker(&slo_);
  }
}

void Cluster::configureOpenLoop(
    std::uint64_t tableId, const ycsb::WorkloadSpec& spec,
    const std::vector<load::TrafficSourceParams>& sources) {
  for (int i = 0; i < clientCount(); ++i) {
    ClientHost& c = clients_[static_cast<std::size_t>(i)];
    c.ycsb.reset();
    c.traffic.reset();
    if (static_cast<std::size_t>(i) >= sources.size()) continue;
    load::TrafficSourceParams p = sources[static_cast<std::size_t>(i)];
    p.insertKeyBase =
        spec.recordCount + static_cast<std::uint64_t>(i + 1) * (1ULL << 32);
    // Splitmix-forked per-source RNG: seeded purely from (cluster seed,
    // host index), independent of how much entropy the root stream already
    // spent — so source streams replay bit-identically per seed.
    const auto salt = static_cast<std::uint64_t>(i);
    sim::Rng rng(sim::Backoff::mix(params_.seed ^ (salt * 0x9e3779b9ULL)),
                 sim::Backoff::mix(~salt) | 1u);
    c.traffic = std::make_unique<load::TrafficSource>(sim_, *c.rc, tableId,
                                                      spec, p, rng);
    c.traffic->setSloTracker(&slo_);
  }
}

void Cluster::startTraffic() {
  for (auto& c : clients_) {
    if (c.traffic) c.traffic->start();
  }
}

void Cluster::stopTraffic() {
  for (auto& c : clients_) {
    if (c.traffic) c.traffic->stop();
  }
}

void Cluster::configureQos(const server::QosParams& qos) {
  for (int i = 0; i < serverCount(); ++i) {
    Server& s = servers_[static_cast<std::size_t>(i)];
    const node::NodeId nid = serverNodeId(i);
    s.dispatch->configureQos(qos);
    s.dispatch->registerQosMetrics(
        metrics_, "node" + std::to_string(nid) + ".dispatch");
    s.dispatch->onQosEpisode = [this, nid](const std::string&) {
      journal_.event("qos_throttle", nid);
    };
  }
  // Cluster-level offered/admitted/throttled aggregates per policy, for
  // rcperf top's offered-vs-admitted line.
  for (std::size_t p = 0; p < qos.tenants.size(); ++p) {
    const std::string base = "cluster.qos." + qos.tenants[p].name;
    auto sum = [this, p](auto pick) {
      double v = 0;
      for (const auto& s : servers_) {
        if (p < s.dispatch->qosSlotCount()) {
          v += static_cast<double>(pick(s.dispatch->qosSlot(p)));
        }
      }
      return v;
    };
    metrics_.probeCounter(base + ".offered", "ops", [sum] {
      return sum([](const server::Dispatch::QosSlot& s) { return s.offered; });
    });
    metrics_.probeCounter(base + ".admitted", "ops", [sum] {
      return sum(
          [](const server::Dispatch::QosSlot& s) { return s.admitted; });
    });
    metrics_.probeCounter(base + ".throttled", "ops", [sum] {
      return sum(
          [](const server::Dispatch::QosSlot& s) { return s.throttled; });
    });
    metrics_.probeCounter(base + ".episodes", "count", [sum] {
      return sum(
          [](const server::Dispatch::QosSlot& s) { return s.episodes; });
    });
  }
}

std::uint64_t Cluster::totalArrivalsGenerated() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) {
    if (c.traffic) n += c.traffic->arrivalsGenerated();
  }
  return n;
}

std::uint64_t Cluster::totalGeneratorWakeups() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) {
    if (c.traffic) n += c.traffic->wakeups();
  }
  return n;
}

std::uint64_t Cluster::totalSourceDropped() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) {
    if (c.traffic) n += c.traffic->sourceDropped();
  }
  return n;
}

std::uint64_t Cluster::qosCounter(const std::string& policy,
                                  const std::string& which) const {
  std::uint64_t n = 0;
  for (const auto& s : servers_) {
    for (std::size_t i = 0; i < s.dispatch->qosSlotCount(); ++i) {
      const server::Dispatch::QosSlot& slot = s.dispatch->qosSlot(i);
      if (slot.name != policy) continue;
      if (which == "offered") n += slot.offered;
      if (which == "admitted") n += slot.admitted;
      if (which == "throttled") n += slot.throttled;
      if (which == "episodes") n += slot.episodes;
    }
  }
  return n;
}

void Cluster::startYcsb() {
  for (auto& c : clients_) {
    if (c.ycsb) c.ycsb->start();
  }
}

void Cluster::stopYcsb() {
  for (auto& c : clients_) {
    if (c.ycsb) c.ycsb->stop();
  }
}

std::uint64_t Cluster::totalOpsCompleted() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) {
    if (c.ycsb) n += c.ycsb->stats().opsCompleted;
    if (c.traffic) n += c.traffic->stats().opsCompleted;
  }
  return n;
}

std::uint64_t Cluster::totalOpFailures() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) {
    if (c.ycsb) n += c.ycsb->stats().failures;
    if (c.traffic) n += c.traffic->stats().failures;
  }
  return n;
}

std::uint64_t Cluster::totalRpcTimeouts() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) {
    if (c.rc) n += c.rc->stats().rpcTimeouts;
  }
  return n;
}

std::uint64_t Cluster::totalRpcRetries() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) {
    if (c.rc) n += c.rc->totalRetries();
  }
  return n;
}

std::uint64_t Cluster::totalShedRequests() const {
  std::uint64_t n = 0;
  for (const auto& s : servers_) n += s.dispatch->shedTotal();
  return n;
}

std::uint64_t Cluster::totalOverloadedBounces() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) {
    if (c.rc) n += c.rc->stats().overloadedBounces;
  }
  return n;
}

void Cluster::crashServer(int idx) {
  Server& s = servers_[static_cast<std::size_t>(idx)];
  if (!s.node->processRunning()) return;
  const node::NodeId nid = serverNodeId(idx);
  s.master->crash();
  s.backup->crash();
  s.dispatch->crash();
  s.node->crashProcess();
  rpc_.unbind(nid, net::kMasterPort);
  rpc_.unbind(nid, net::kBackupPort);
  // Deterministically close spans the dead process left open (they are
  // flagged abandoned rather than dangling forever).
  journal_.abandonNode(nid);
}

int Cluster::pickRandomServerIndex() {
  return static_cast<int>(
      sim_.rng().uniformInt(static_cast<std::uint64_t>(serverCount())));
}

void Cluster::migrateTablet(const server::Tablet& tablet, int destIdx,
                            std::function<void(bool)> done) {
  coord_->migrateTablet(tablet, serverNodeId(destIdx), std::move(done));
}

void Cluster::drainServer(int idx, std::function<void(bool)> done) {
  const node::NodeId src = serverNodeId(idx);
  const auto tablets = coord_->tabletMap().tabletsOwnedBy(src);
  if (tablets.empty()) {
    if (done) done(true);
    return;
  }
  // Round-robin destinations over the other active servers.
  std::vector<int> dests;
  for (int i = 0; i < serverCount(); ++i) {
    if (i != idx && serverAlive(i)) dests.push_back(i);
  }
  if (dests.empty()) {
    if (done) done(false);
    return;
  }
  struct State {
    int pending = 0;
    bool ok = true;
    std::function<void(bool)> done;
  };
  auto st = std::make_shared<State>();
  st->pending = static_cast<int>(tablets.size());
  st->done = std::move(done);
  for (std::size_t i = 0; i < tablets.size(); ++i) {
    migrateTablet(tablets[i], dests[i % dests.size()], [st](bool ok) {
      st->ok &= ok;
      if (--st->pending == 0 && st->done) st->done(st->ok);
    });
  }
}

bool Cluster::suspendServer(int idx) {
  const node::NodeId nid = serverNodeId(idx);
  if (!coord_->decommissionServer(nid)) return false;
  Server& s = servers_[static_cast<std::size_t>(idx)];
  s.master->crash();
  s.backup->crash();
  s.dispatch->crash();
  rpc_.unbind(nid, net::kMasterPort);
  rpc_.unbind(nid, net::kBackupPort);
  s.node->suspendMachine();
  journal_.abandonNode(nid);
  return true;
}

void Cluster::resumeServer(int idx) {
  Server& s = servers_[static_cast<std::size_t>(idx)];
  if (!s.node->suspended()) return;
  const node::NodeId nid = serverNodeId(idx);
  s.node->resumeMachine();
  s.dispatch->restart();
  rpc_.bind(nid, net::kMasterPort, s.master.get());
  rpc_.bind(nid, net::kBackupPort, s.backup.get());
  coord_->enlistServer(nid);
}

server::ServerId Cluster::ownerOfKey(std::uint64_t tableId,
                                     std::uint64_t keyId) const {
  const std::uint64_t h = hash::keyHash(hash::Key{tableId, keyId});
  const auto* e = coord_->tabletMap().lookup(tableId, h);
  return e == nullptr ? node::kInvalidNode : e->tablet.owner;
}

bool Cluster::verifyAllKeysPresent(std::uint64_t tableId,
                                   std::uint64_t records,
                                   std::uint64_t* firstMissing) const {
  for (std::uint64_t key = 0; key < records; ++key) {
    const server::ServerId owner = ownerOfKey(tableId, key);
    server::MasterService* m =
        owner == node::kInvalidNode ? nullptr : directory_.masterOn(owner);
    if (m == nullptr ||
        !m->objectMap().get(hash::Key{tableId, key})) {
      if (firstMissing != nullptr) *firstMissing = key;
      return false;
    }
  }
  return true;
}

}  // namespace rc::core
