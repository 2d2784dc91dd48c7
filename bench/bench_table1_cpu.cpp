// Table I: min-max per-node CPU usage (%) for different cluster sizes and
// client counts, read-only workload.
//
// Paper anchors: 0 clients -> exactly 25 % (the pinned dispatch/polling
// core on 4-core nodes); 1 client -> ~50 %; saturation in the high 90s at
// 10+ clients while throughput is still short of peak.

#include <cstdio>

#include "bench_common.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"

using namespace rc;

namespace {

struct Row {
  double avg1 = 0;  // 1 server (single node: avg only, like the paper)
  double min5 = 0, max5 = 0;
  double min10 = 0, max10 = 0;
};

Row measure(int clients, const bench::Options& opt) {
  Row row;
  for (int servers : {1, 5, 10}) {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = servers;
    cfg.cluster.clients = clients;
    cfg.workload = ycsb::WorkloadSpec::C(500'000);
    cfg.cluster.seed = opt.seed;
    cfg.timeScale = opt.timeScale();
    if (clients == 0) {
      // Idle cluster: run it directly, no YCSB.
      core::ClusterParams cp;
      cp.servers = servers;
      cp.clients = 0;
      cp.seed = opt.seed;
      core::Cluster c(cp);
      auto snap = c.server(0).node->snapshotCpu();
      std::vector<node::CpuScheduler::Snapshot> snaps;
      for (int i = 0; i < servers; ++i) {
        snaps.push_back(c.server(i).node->snapshotCpu());
      }
      c.sim().runFor(sim::seconds(4));
      double mn = 1, mx = 0;
      for (int i = 0; i < servers; ++i) {
        const double u =
            c.server(i).node->meanUtilisationSince(snaps[static_cast<std::size_t>(i)], c.sim().now());
        mn = std::min(mn, u);
        mx = std::max(mx, u);
      }
      (void)snap;
      if (servers == 1) row.avg1 = 100 * mx;
      if (servers == 5) {
        row.min5 = 100 * mn;
        row.max5 = 100 * mx;
      }
      if (servers == 10) {
        row.min10 = 100 * mn;
        row.max10 = 100 * mx;
      }
      continue;
    }
    const auto r = core::runExperiment(cfg);
    if (servers == 1) row.avg1 = r.meanCpuPct;
    if (servers == 5) {
      row.min5 = r.minCpuPct;
      row.max5 = r.maxCpuPct;
    }
    if (servers == 10) {
      row.min10 = r.minCpuPct;
      row.max10 = r.maxCpuPct;
    }
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Table I — per-node CPU usage, read-only workload",
                "Taleb et al., ICDCS'17, Table I");

  const int clientCounts[] = {0, 1, 2, 3, 4, 5, 10, 30};
  core::TableFormatter t({"clients", "1 srv (avg %)", "5 srv (min - max %)",
                          "10 srv (min - max %)"});
  std::vector<Row> rows;
  for (int c : clientCounts) {
    const Row r = measure(c, opt);
    rows.push_back(r);
    auto range = [](double a, double b) {
      return core::TableFormatter::num(a, 2) + " - " +
             core::TableFormatter::num(b, 2);
    };
    t.addRow({std::to_string(c), core::TableFormatter::num(r.avg1, 2),
              range(r.min5, r.max5), range(r.min10, r.max10)});
  }
  t.print();

  bench::Verdict v;
  v.check(core::within(rows[0].avg1, 24.9, 25.1),
          "idle server pins 25% CPU (polling core, Table I row 0)");
  v.check(core::within(rows[1].avg1, 45, 55),
          "1 client -> ~50% CPU (paper: 49.81)");
  v.check(rows[6].avg1 > 95, "10 clients saturate a single server's CPU");
  v.check(rows[7].avg1 > 95, "30 clients keep it saturated");
  // Monotone staircase on a single node.
  bool monotone = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    monotone &= rows[i].avg1 >= rows[i - 1].avg1 - 1.5;
  }
  v.check(monotone, "CPU grows monotonically with client count");
  v.check(rows[7].min10 > 45,
          "all 10 nodes loaded evenly at 30 clients (min within range)");
  return v.exitCode();
}
