// Figure 8: energy efficiency of 20/30/40-server clusters (60 clients,
// update-heavy) as a function of the replication factor.
//
// Paper: in sharp contrast to Fig. 2, with replication + update-heavy
// *more* servers are more efficient: at rf=1, 20 srv ~1.5 Kop/J, 30 srv
// ~1.9, 40 srv ~2.3; the gaps shrink as rf rises (Finding 4). The paper
// divides aggregate throughput by *per-node* watts — its rf=1/40-server
// point only reproduces under that definition (237 Kop/s / 103 W = 2.3
// Kop/J), so that is the metric printed here.

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Fig. 8 — energy efficiency vs rf (update-heavy, 60 clients)",
                "Taleb et al., ICDCS'17, Fig. 8, Finding 4");

  const int serverCounts[] = {20, 30, 40};
  double eff[3][4];
  for (int si = 0; si < 3; ++si) {
    for (int rf = 1; rf <= 4; ++rf) {
      core::ExperimentConfig cfg;
      cfg.cluster.servers = serverCounts[si];
      cfg.cluster.clients = 60;
      cfg.cluster.replicationFactor = rf;
      cfg.workload = ycsb::WorkloadSpec::A();
      cfg.cluster.seed = opt.seed;
      cfg.timeScale = opt.timeScale();
      eff[si][rf - 1] = core::runExperiment(cfg).opsPerJoulePerNode;
    }
  }

  core::TableFormatter t({"rf", "20 srv", "30 srv", "40 srv",
                          "(op/joule-per-node)"});
  for (int rf = 1; rf <= 4; ++rf) {
    t.addRow({std::to_string(rf), core::TableFormatter::num(eff[0][rf - 1], 0),
              core::TableFormatter::num(eff[1][rf - 1], 0),
              core::TableFormatter::num(eff[2][rf - 1], 0), ""});
  }
  t.print();
  std::printf("paper: rf=1: 1500 / 1900 / 2300\n\n");

  bench::Verdict v;
  v.check(eff[2][0] > eff[1][0] && eff[1][0] > eff[0][0],
          "more servers = better efficiency with update-heavy + replication "
          "(Finding 4, opposite of Fig. 2)");
  // The paper's text claims the relative gaps shrink with rf; its own
  // Fig. 6a throughputs imply roughly stable gaps, which is what we get —
  // check the robust part: the ordering persists at every rf.
  v.check(eff[2][3] > eff[1][3] && eff[1][3] > eff[0][3],
          "the more-servers-more-efficient ordering persists at rf=4");
  bool fallsWithRf = true;
  for (int si = 0; si < 3; ++si) {
    fallsWithRf &= eff[si][3] < eff[si][0];
  }
  v.check(fallsWithRf, "efficiency falls with the replication factor");
  return v.exitCode();
}
