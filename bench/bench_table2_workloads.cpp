// Table II: aggregated throughput of 10 servers under YCSB workloads
// A (50/50), B (95/5) and C (read-only) for 10..90 clients.
//
// Paper row shapes: C scales linearly to 2 Mop/s; B flattens after 30
// clients (~844 K at 90); A peaks around 20 clients (~106 K) then
// *declines* to ~64 K — Finding 2's thread-handling collapse.

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Table II — throughput by workload, 10 servers",
                "Taleb et al., ICDCS'17, Table II, Finding 2");

  const int clientCounts[] = {10, 20, 30, 60, 90};
  double thr[3][5];
  const ycsb::WorkloadSpec specs[] = {ycsb::WorkloadSpec::A(),
                                      ycsb::WorkloadSpec::B(),
                                      ycsb::WorkloadSpec::C()};
  for (int w = 0; w < 3; ++w) {
    for (int ci = 0; ci < 5; ++ci) {
      core::ExperimentConfig cfg;
      cfg.cluster.servers = 10;
      cfg.cluster.clients = clientCounts[ci];
      cfg.workload = specs[w];
      cfg.cluster.seed = opt.seed;
      cfg.timeScale = opt.timeScale();
      thr[w][ci] = core::runExperiment(cfg).throughputOpsPerSec;
    }
  }

  core::TableFormatter t({"clients", "A (Kop/s)", "B (Kop/s)", "C (Kop/s)"});
  for (int ci = 0; ci < 5; ++ci) {
    t.addRow({std::to_string(clientCounts[ci]),
              core::TableFormatter::kops(thr[0][ci]),
              core::TableFormatter::kops(thr[1][ci]),
              core::TableFormatter::kops(thr[2][ci])});
  }
  t.print();
  std::printf("paper:    A: 98/106/64/63/64K   B: 236/454/622/816/844K   "
              "C: 236/482/753/1433/2004K\n\n");

  bench::Verdict v;
  // C: linear scaling.
  v.check(thr[2][4] > 7.0 * thr[2][0],
          "C scales ~linearly from 10 to 90 clients");
  v.check(core::within(thr[2][4] / 1e3, 1500, 2800),
          "C reaches ~2 Mop/s at 90 clients");
  // B: flattens (sub-2x gain from 30 to 90 clients).
  v.check(thr[1][4] < 1.6 * thr[1][2],
          "B collapses (sub-linear) after 30 clients");
  v.check(thr[1][4] < 0.65 * thr[2][4],
          "B loses a large share vs C at 90 clients (paper: 57%)");
  // A: peaks then declines to a plateau.
  const double aPeak = std::max({thr[0][0], thr[0][1], thr[0][2]});
  v.check(aPeak >= thr[0][4],
          "A peaks at low-mid client counts, no gain at 90");
  v.check(thr[0][4] < 0.08 * thr[2][4],
          "A degraded >= 92% vs C at 90 clients (paper: 97%)");
  return v.exitCode();
}
