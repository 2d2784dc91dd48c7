// Figure 2: energy efficiency (op/joule) of different cluster sizes under
// the read-only peak-performance workload.
//
// Paper: highest efficiency with 1 server at 30 clients (~3000 op/J);
// 5 servers reach barely half of that; 10 servers are several times less
// efficient — over-provisioning wastes idle-ish watts (Finding 1).

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Fig. 2 — energy efficiency vs cluster size (read-only)",
                "Taleb et al., ICDCS'17, Fig. 2, Finding 1");

  const int serverCounts[] = {1, 5, 10};
  const int clientCounts[] = {1, 10, 30};
  double eff[3][3];
  for (int si = 0; si < 3; ++si) {
    for (int ci = 0; ci < 3; ++ci) {
      core::ExperimentConfig cfg;
      cfg.cluster.servers = serverCounts[si];
      cfg.cluster.clients = clientCounts[ci];
      cfg.workload = ycsb::WorkloadSpec::C(500'000);
      cfg.cluster.seed = opt.seed;
      cfg.timeScale = opt.timeScale();
      eff[si][ci] = core::runExperiment(cfg).opsPerJoule;
    }
  }

  core::TableFormatter t(
      {"servers \\ clients", "1", "10", "30", "(op/joule)"});
  for (int si = 0; si < 3; ++si) {
    t.addRow({std::to_string(serverCounts[si]),
              core::TableFormatter::num(eff[si][0], 0),
              core::TableFormatter::num(eff[si][1], 0),
              core::TableFormatter::num(eff[si][2], 0), ""});
  }
  t.print();

  bench::Verdict v;
  v.check(core::within(eff[0][2], 2400, 3600),
          "1 server / 30 clients ~3000 op/J (paper: ~3000)");
  v.check(eff[1][2] < 0.65 * eff[0][2],
          "5 servers reach barely half the single-server efficiency");
  v.check(eff[2][2] < eff[1][2],
          "10 servers even less efficient (paper: 7.6x below 1 server)");
  v.check(eff[0][2] > eff[0][1] && eff[0][1] > eff[0][0],
          "efficiency rises with load on a fixed cluster");
  return v.exitCode();
}
