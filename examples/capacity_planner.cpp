// Capacity planner: operationalises the paper's SS IX guidance ("How to
// choose the right cluster size?"). Given a workload mix and a client
// population, it sweeps cluster sizes and reports throughput, per-node
// power and energy efficiency — showing that the best size depends on the
// workload: read-only favours FEW servers (Finding 1), update-heavy with
// replication favours MORE servers (Finding 4).
//
//   $ ./build/examples/capacity_planner [readPct] [clients] [rf]

#include <cstdio>
#include <cstdlib>

#include "core/experiment.hpp"
#include "core/table_format.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const double readPct = argc > 1 ? std::atof(argv[1]) : 50.0;
  const int clients = argc > 2 ? std::atoi(argv[2]) : 30;
  const int rf = argc > 3 ? std::atoi(argv[3]) : 3;

  ycsb::WorkloadSpec spec;
  spec.name = "custom";
  spec.readProportion = readPct / 100.0;
  spec.updateProportion = 1.0 - spec.readProportion;
  spec.recordCount = 100'000;

  std::printf("capacity plan for %.0f%% reads / %.0f%% updates, %d client "
              "machines, rf=%d\n\n",
              readPct, 100 - readPct, clients, rf);

  core::TableFormatter t({"servers", "throughput (Kop/s)", "W/node",
                          "cluster W", "op/J", "verdict"});
  double bestEff = 0;
  int bestServers = 0;
  struct Row {
    int servers;
    core::ExperimentResult r;
  };
  std::vector<Row> rows;
  for (int servers : {5, 10, 20, 30}) {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = servers;
    cfg.cluster.clients = clients;
    cfg.cluster.replicationFactor = rf;
    cfg.workload = spec;
    cfg.warmup = sim::seconds(1);
    cfg.measure = sim::seconds(3);
    const auto r = core::runExperiment(cfg);
    rows.push_back({servers, r});
    if (r.opsPerJoule > bestEff) {
      bestEff = r.opsPerJoule;
      bestServers = servers;
    }
  }
  for (const auto& row : rows) {
    t.addRow({std::to_string(row.servers),
              core::TableFormatter::kops(row.r.throughputOpsPerSec),
              core::TableFormatter::num(row.r.meanPowerPerServerW, 1),
              core::TableFormatter::num(row.r.clusterPowerW, 0),
              core::TableFormatter::num(row.r.opsPerJoule, 0),
              row.servers == bestServers ? "<== most efficient" : ""});
  }
  t.print();

  std::printf("\nrecommendation: %d servers (%.0f op/J)\n", bestServers,
              bestEff);
  std::printf("try:  capacity_planner 100 %d 0   (read-only: fewer servers "
              "win — Finding 1)\n", clients);
  std::printf("      capacity_planner 50 60 4    (update-heavy + rf=4: more "
              "servers win — Finding 4)\n");
  return 0;
}
