// SS IX-B ablation: "Better communication for replication?" — replace the
// CPU-mediated backup writes with one-sided RDMA writes (the paper's
// proposed mitigation: "completely removing the CPU overhead of
// replication requests ... e.g. one-sided RDMA writes") and quantify what
// it buys, with consistency preserved (acks still awaited).

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

namespace {

struct Result {
  double kops;
  double wattsPerNode;
  double opsPerJoule;
};

Result run(int rf, bool rdma, const bench::Options& opt) {
  core::ExperimentConfig cfg;
  cfg.cluster.servers = 20;
  cfg.cluster.clients = 60;
  cfg.cluster.seed = opt.seed;
  cfg.cluster.replicationFactor = rf;
  cfg.cluster.master.replication.oneSidedRdma = rdma;
  cfg.workload = ycsb::WorkloadSpec::A();
  cfg.timeScale = opt.timeScale();
  const auto x = core::runExperiment(cfg);

  Result r;
  r.kops = x.throughputOpsPerSec / 1e3;
  r.wattsPerNode = x.curvePowerW / cfg.cluster.servers;
  r.opsPerJoule = r.kops * 1e3 / x.curvePowerW;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Ablation — one-sided RDMA replication (SS IX-B)",
                "Taleb et al., ICDCS'17, SS IX-B (RDMA discussion)");

  core::TableFormatter t({"rf", "mode", "throughput (Kop/s)", "W/node",
                          "op/J"});
  double cpuThr[3], rdmaThr[3], cpuEff[3], rdmaEff[3];
  int i = 0;
  for (int rf : {1, 2, 4}) {
    const Result c = run(rf, false, opt);
    const Result x = run(rf, true, opt);
    cpuThr[i] = c.kops;
    rdmaThr[i] = x.kops;
    cpuEff[i] = c.opsPerJoule;
    rdmaEff[i] = x.opsPerJoule;
    t.addRow({std::to_string(rf), "CPU replication",
              core::TableFormatter::num(c.kops, 0) + "K",
              core::TableFormatter::num(c.wattsPerNode, 1),
              core::TableFormatter::num(c.opsPerJoule, 0)});
    t.addRow({std::to_string(rf), "one-sided RDMA",
              core::TableFormatter::num(x.kops, 0) + "K",
              core::TableFormatter::num(x.wattsPerNode, 1),
              core::TableFormatter::num(x.opsPerJoule, 0)});
    ++i;
  }
  t.print();

  bench::Verdict v;
  v.check(rdmaThr[2] > 1.25 * cpuThr[2],
          "RDMA replication recovers substantial rf=4 throughput");
  v.check(rdmaEff[2] > 1.2 * cpuEff[2],
          "and improves energy efficiency (the paper's stated goal)");
  v.check(rdmaThr[0] >= cpuThr[0] * 0.95,
          "no regression at rf=1");
  const double cpuDrop = 1 - cpuThr[2] / cpuThr[0];
  const double rdmaDrop = 1 - rdmaThr[2] / rdmaThr[0];
  v.check(rdmaDrop < cpuDrop,
          "RDMA flattens the rf penalty (consistency kept)");
  return v.exitCode();
}
