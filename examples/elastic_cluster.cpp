// Elastic cluster: watch the autoscaler track a day/night load pattern —
// the paper's SS IX "adapt the number of servers to the workload" made
// concrete with tablet migration, server standby and wake-up.
//
//   $ ./build/examples/elastic_cluster

#include <cstdio>

#include "core/autoscaler.hpp"
#include "core/cluster.hpp"
#include "ycsb/ycsb_client.hpp"

using namespace rc;

int main() {
  core::ClusterParams params;
  params.servers = 8;
  params.clients = 16;
  params.replicationFactor = 1;
  core::Cluster cluster(params);
  const auto table = cluster.createTable("sessions");
  cluster.bulkLoad(table, 50'000, 1000);
  cluster.configureYcsb(table, ycsb::WorkloadSpec::C(50'000),
                        ycsb::YcsbClientParams{});

  core::AutoscalerParams ap;
  ap.interval = sim::seconds(1);
  ap.minActive = 3;
  ap.highWaterCpu = 0.65;
  core::Autoscaler scaler(cluster, ap);
  scaler.start();

  auto load = [&cluster](int clients) {
    for (int i = 0; i < cluster.clientCount(); ++i) {
      auto* y = cluster.clientHost(i).ycsb.get();
      if (i < clients) {
        y->start();
      } else {
        y->stop();
      }
    }
  };

  std::vector<node::Node::PowerSnapshot> snaps;
  for (int i = 0; i < cluster.serverCount(); ++i) {
    snaps.push_back(cluster.server(i).node->snapshotPower());
  }

  struct Phase {
    const char* name;
    int clients;
    int seconds;
  };
  for (const Phase ph : {Phase{"morning peak", 16, 20},
                         Phase{"night trough", 2, 45},
                         Phase{"next-day peak", 16, 20}}) {
    load(ph.clients);
    cluster.sim().runFor(sim::seconds(ph.seconds));
    std::printf("%-14s  clients=%2d  active servers=%d  "
                "(resizes so far: %d down, %d up)\n",
                ph.name, ph.clients, cluster.aliveServerCount(),
                scaler.scaleDowns(), scaler.scaleUps());
  }
  cluster.stopYcsb();
  scaler.stop();

  double joules = 0;
  for (int i = 0; i < cluster.serverCount(); ++i) {
    joules += cluster.server(i).node->energyJoulesSince(
        snaps[static_cast<std::size_t>(i)], cluster.sim().now());
  }
  const double staticJoules =
      cluster.serverCount() *
      power::fittedWatts(0.25) *  // idle floor per node
      sim::toSeconds(cluster.sim().now());
  std::printf("\nenergy: %.1f KJ (a statically idle 8-node cluster floor "
              "would burn %.1f KJ)\n",
              joules / 1e3, staticJoules / 1e3);
  std::printf("ops served: %llu, failures: %llu\n",
              static_cast<unsigned long long>(cluster.totalOpsCompleted()),
              static_cast<unsigned long long>(cluster.totalOpFailures()));
  return 0;
}
