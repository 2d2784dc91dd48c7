// Figure 6: (a) throughput and (b) total energy as a function of the
// number of servers and the replication factor (update-heavy, 60 clients).
//
// Paper: rf=1 grows 128 K -> 237 K from 10 to 40 servers; higher rf is
// uniformly slower; at 10 servers with rf>2 the authors' runs always
// crashed with excessive timeouts. Energy: 20 servers rf 1->4 costs 3.5x
// more total energy (81 KJ -> 285 KJ) — Finding 3.
//
// Our simulator stays stable where the real deployment crashed; those
// cells report measured throughput flagged with '!' instead (see
// EXPERIMENTS.md).

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Fig. 6 — cluster size x replication factor, 60 clients",
                "Taleb et al., ICDCS'17, Fig. 6a/6b, Findings 3-4");

  const int serverCounts[] = {10, 20, 30, 40};
  core::ExperimentResult res[4][4];
  for (int si = 0; si < 4; ++si) {
    for (int rf = 1; rf <= 4; ++rf) {
      core::ExperimentConfig cfg;
      cfg.cluster.servers = serverCounts[si];
      cfg.cluster.clients = 60;
      cfg.cluster.replicationFactor = rf;
      cfg.workload = ycsb::WorkloadSpec::A();
      cfg.cluster.seed = opt.seed;
      cfg.timeScale = opt.timeScale();
      res[si][rf - 1] = core::runExperiment(cfg);
    }
  }

  const std::uint64_t totalRequests = 6'000'000;  // 60 clients x 100 K

  std::printf("\n(a) Throughput (Kop/s)   [! = config the paper could not "
              "complete]\n");
  core::TableFormatter ta({"rf", "10 srv", "20 srv", "30 srv", "40 srv"});
  std::printf("(b) Total energy for the run (KJ)\n\n");
  core::TableFormatter tb({"rf", "10 srv", "20 srv", "30 srv", "40 srv"});
  for (int rf = 1; rf <= 4; ++rf) {
    std::vector<std::string> ra{std::to_string(rf)};
    std::vector<std::string> rb{std::to_string(rf)};
    for (int si = 0; si < 4; ++si) {
      const auto& r = res[si][rf - 1];
      std::string mark = (si == 0 && rf > 2) ? "!" : "";
      ra.push_back(core::TableFormatter::kops(r.throughputOpsPerSec) + mark);
      rb.push_back(core::TableFormatter::num(
          r.energyForRequestsJ(totalRequests) / 1e3, 0));
    }
    ta.addRow(ra);
    tb.addRow(rb);
  }
  std::printf("(a):\n");
  ta.print();
  std::printf("(b):\n");
  tb.print();

  bench::Verdict v;
  v.check(res[3][0].throughputOpsPerSec > 1.4 * res[0][0].throughputOpsPerSec,
          "rf=1: 10 -> 40 servers raises throughput substantially "
          "(paper: 128K -> 237K)");
  bool rfMonotone = true;
  for (int si = 0; si < 4; ++si) {
    for (int rf = 1; rf < 4; ++rf) {
      rfMonotone &= res[si][rf].throughputOpsPerSec <
                    res[si][rf - 1].throughputOpsPerSec * 1.02;
    }
  }
  v.check(rfMonotone, "higher rf never helps throughput");
  const double e1 = res[1][0].energyForRequestsJ(totalRequests);
  const double e4 = res[1][3].energyForRequestsJ(totalRequests);
  v.check(core::within(e4 / e1, 2.0, 5.5),
          "20 servers: rf 1->4 costs ~3.5x total energy (measured " +
              core::TableFormatter::num(e4 / e1, 1) + "x)");
  v.check(res[0][3].throughputOpsPerSec <= res[1][3].throughputOpsPerSec,
          "10 servers is the worst rf=4 configuration (paper: crashed)");
  return v.exitCode();
}
