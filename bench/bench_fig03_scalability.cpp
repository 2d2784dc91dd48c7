// Figure 3: scalability factor of 10 servers in throughput when growing
// the client count, baselined at 10 clients.
//
// Paper: read-only tracks the perfect line (9x at 90 clients), read-heavy
// collapses between 30 and 60 clients, update-heavy never scales at all.

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Fig. 3 — throughput scalability factor, 10 servers",
                "Taleb et al., ICDCS'17, Fig. 3");

  const int clientCounts[] = {10, 20, 30, 60, 90};
  const ycsb::WorkloadSpec specs[] = {ycsb::WorkloadSpec::C(),
                                      ycsb::WorkloadSpec::B(),
                                      ycsb::WorkloadSpec::A()};
  const char* names[] = {"read-only", "read-heavy", "update-heavy"};
  double factor[3][5];
  for (int w = 0; w < 3; ++w) {
    double base = 0;
    for (int ci = 0; ci < 5; ++ci) {
      core::ExperimentConfig cfg;
      cfg.cluster.servers = 10;
      cfg.cluster.clients = clientCounts[ci];
      cfg.workload = specs[w];
      cfg.cluster.seed = opt.seed;
      cfg.timeScale = opt.timeScale();
      const double thr = core::runExperiment(cfg).throughputOpsPerSec;
      if (ci == 0) base = thr;
      factor[w][ci] = thr / base;
    }
  }

  core::TableFormatter t({"clients", "perfect", "read-only", "read-heavy",
                          "update-heavy"});
  for (int ci = 0; ci < 5; ++ci) {
    t.addRow({std::to_string(clientCounts[ci]),
              core::TableFormatter::num(clientCounts[ci] / 10.0, 1),
              core::TableFormatter::num(factor[0][ci], 2),
              core::TableFormatter::num(factor[1][ci], 2),
              core::TableFormatter::num(factor[2][ci], 2)});
  }
  t.print();
  (void)names;

  bench::Verdict v;
  v.check(factor[0][4] > 7.0,
          "read-only tracks near-perfect scalability (9x at 90 clients)");
  v.check(factor[1][4] < 0.55 * 9.0,
          "read-heavy collapses well below perfect by 90 clients");
  v.check(factor[2][4] < 1.6,
          "update-heavy never scales with clients (paper: degrades)");
  v.check(factor[1][2] > factor[2][2],
          "read-heavy above update-heavy at every point");
  return v.exitCode();
}
