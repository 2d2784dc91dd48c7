// Session store: the paper's motivating scenario — a large web
// application (Facebook-style, GET:SET ~ 30:1 per Atikoglu et al.) keeping
// user sessions in DRAM. Runs a skewed read-mostly workload against the
// cluster and reports throughput, tail latency, per-node power and energy
// per request.
//
//   $ ./build/examples/session_store [servers] [clients]

#include <cstdio>
#include <cstdlib>

#include "core/cluster.hpp"
#include "ycsb/workload.hpp"
#include "ycsb/ycsb_client.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const int servers = argc > 1 ? std::atoi(argv[1]) : 8;
  const int clients = argc > 2 ? std::atoi(argv[2]) : 20;

  core::ClusterParams params;
  params.servers = servers;
  params.clients = clients;
  params.replicationFactor = 3;  // production durability
  core::Cluster cluster(params);

  const auto table = cluster.createTable("sessions");
  // 200 K sessions of ~1 KB.
  cluster.bulkLoad(table, 200'000, 1000);
  cluster.startPduSampling();

  // GET:SET ~ 30:1, zipfian popularity (hot users).
  ycsb::WorkloadSpec spec;
  spec.name = "session-store";
  spec.readProportion = 30.0 / 31.0;
  spec.updateProportion = 1.0 / 31.0;
  spec.recordCount = 200'000;
  spec.distribution = ycsb::WorkloadSpec::Distribution::kZipfian;

  cluster.configureYcsb(table, spec, ycsb::YcsbClientParams{});
  cluster.startYcsb();

  cluster.sim().runFor(sim::seconds(1));  // warm up
  const auto t0 = cluster.sim().now();
  const auto ops0 = cluster.totalOpsCompleted();
  std::vector<node::CpuScheduler::Snapshot> snaps;
  for (int i = 0; i < cluster.serverCount(); ++i) {
    snaps.push_back(cluster.server(i).node->snapshotCpu());
  }
  cluster.sim().runFor(sim::seconds(5));
  const auto t1 = cluster.sim().now();
  cluster.stopYcsb();

  const double seconds = sim::toSeconds(t1 - t0);
  const double thr =
      static_cast<double>(cluster.totalOpsCompleted() - ops0) / seconds;

  sim::Histogram reads;
  sim::Histogram writes;
  for (int i = 0; i < clients; ++i) {
    reads.merge(cluster.clientHost(i).ycsb->stats().readLatency);
    writes.merge(cluster.clientHost(i).ycsb->stats().updateLatency);
  }
  double watts = 0;
  for (int i = 0; i < servers; ++i) {
    watts += power::fittedWatts(
        cluster.server(i).node->meanUtilisationSince(
            snaps[static_cast<std::size_t>(i)], t1));
  }

  std::printf("session store on %d servers, %d client machines, rf=3\n",
              servers, clients);
  std::printf("  throughput       : %.0f sessions ops/s\n", thr);
  std::printf("  GET latency      : mean %.1f us, p99 %.1f us\n",
              reads.mean() / 1e3, sim::toMicros(reads.percentile(0.99)));
  std::printf("  SET latency      : mean %.1f us, p99 %.1f us\n",
              writes.mean() / 1e3, sim::toMicros(writes.percentile(0.99)));
  std::printf("  cluster power    : %.0f W (%.1f W/node)\n", watts,
              watts / servers);
  std::printf("  energy efficiency: %.0f requests/joule\n", thr / watts);
  std::printf("  energy per 1M req: %.1f kJ\n", 1e6 / thr * watts / 1e3);
  return 0;
}
