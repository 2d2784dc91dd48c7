// Figure 7: average power per node of 40 servers (60 clients,
// update-heavy) as a function of the replication factor.
//
// Paper: ~103 W at rf=1 rising to ~115 W at rf=4 — replication work burns
// CPU on every node (Finding 3).

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Fig. 7 — power per node vs replication factor, 40 servers",
                "Taleb et al., ICDCS'17, Fig. 7");

  double watts[4];
  for (int rf = 1; rf <= 4; ++rf) {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = 40;
    cfg.cluster.clients = 60;
    cfg.cluster.replicationFactor = rf;
    cfg.workload = ycsb::WorkloadSpec::A();
    cfg.cluster.seed = opt.seed;
    cfg.timeScale = opt.timeScale();
    watts[rf - 1] = core::runExperiment(cfg).meanPowerPerServerW;
  }

  core::TableFormatter t({"replication factor", "avg power per node (W)"});
  for (int rf = 1; rf <= 4; ++rf) {
    t.addRow({std::to_string(rf), core::TableFormatter::num(watts[rf - 1], 1)});
  }
  t.print();
  std::printf("paper: 103 / ~108 / ~112 / 115 W\n\n");

  bench::Verdict v;
  v.check(core::within(watts[0], 85, 112), "rf=1 in the ~100 W band");
  v.check(watts[3] < 128, "rf=4 stays within the node's power envelope");
  // The key claim is the ordering, not the exact delta.
  v.check(watts[3] > watts[0],
          "power per node rises with the replication factor");
  return v.exitCode();
}
