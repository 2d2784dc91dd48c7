// Figure 5: total aggregated throughput of 20 servers running the
// update-heavy workload as a function of the replication factor.
//
// Paper: at 10 clients, rf 1 -> 4 drops 78 K -> 43 K (-45 %); at 30/60
// clients rf=4 lands around 41-50 K — replication is a first-order
// performance cost (Finding 3).

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Fig. 5 — replication factor vs throughput, 20 servers",
                "Taleb et al., ICDCS'17, Fig. 5, Finding 3");

  const int clientCounts[] = {10, 30, 60};
  double thr[3][4];
  double replWaitUs[3][4];
  // Exemplar integrity, collected from the 10-client runs (SLO tracking
  // on): every captured exemplar's stage durations must sum to its span
  // total within 1 us — the decomposition accounts for the whole RPC.
  std::uint64_t exemplars = 0;
  std::uint64_t exemplarsWithStages = 0;
  std::uint64_t exemplarSumViolations = 0;
  for (int ci = 0; ci < 3; ++ci) {
    for (int rf = 1; rf <= 4; ++rf) {
      core::ExperimentConfig cfg;
      cfg.cluster.servers = 20;
      cfg.cluster.clients = clientCounts[ci];
      cfg.cluster.replicationFactor = rf;
      cfg.workload = ycsb::WorkloadSpec::A();
      cfg.cluster.seed = opt.seed;
      cfg.timeScale = opt.timeScale();
      cfg.metricsDir = opt.runDir("cl" + std::to_string(clientCounts[ci]) +
                                  "_rf" + std::to_string(rf));
      if (ci == 0) {
        cfg.client.tenant = "fig05";
        cfg.readSlo = obs::SloTarget{sim::usec(250), sim::msec(1)};
        cfg.updateSlo = obs::SloTarget{sim::usec(800), sim::msec(4)};
      }
      const auto r = core::runExperiment(cfg);
      thr[ci][rf - 1] = r.throughputOpsPerSec;
      replWaitUs[ci][rf - 1] = r.replicationWaitMeanUs;
      for (const auto& row : r.sloWindows) {
        for (const auto& ex : row.exemplars) {
          ++exemplars;
          if (ex.detail.numStages == 0) continue;
          ++exemplarsWithStages;
          sim::Duration sum = 0;
          for (std::uint8_t si = 0; si < ex.detail.numStages; ++si) {
            sum += ex.detail.stages[si].elapsed;
          }
          const auto diff = sum > ex.detail.total ? sum - ex.detail.total
                                                  : ex.detail.total - sum;
          if (diff > sim::usec(1)) ++exemplarSumViolations;
        }
      }
    }
  }

  core::TableFormatter t({"replication factor", "10 clients", "30 clients",
                          "60 clients", "(Kop/s)"});
  for (int rf = 1; rf <= 4; ++rf) {
    t.addRow({std::to_string(rf), core::TableFormatter::kops(thr[0][rf - 1]),
              core::TableFormatter::kops(thr[1][rf - 1]),
              core::TableFormatter::kops(thr[2][rf - 1]), ""});
  }
  t.print();
  std::printf("paper: 10 clients 78->43K (rf1->4); 30cl rf4 ~41K; "
              "60cl rf4 ~50K\n");
  std::printf("mean replication wait, 10 clients: rf1 %.0fus -> rf4 %.0fus\n\n",
              replWaitUs[0][0], replWaitUs[0][3]);

  bench::Verdict v;
  const double drop10 = 1.0 - thr[0][3] / thr[0][0];
  v.check(core::within(drop10, 0.30, 0.65),
          "rf 1->4 costs ~45% throughput at 10 clients (measured " +
              core::TableFormatter::num(100 * drop10, 0) + "%)");
  for (int ci = 0; ci < 3; ++ci) {
    bool monotone = true;
    for (int rf = 1; rf < 4; ++rf) monotone &= thr[ci][rf] < thr[ci][rf - 1];
    v.check(monotone, std::string("throughput falls monotonically with rf (") +
                          std::to_string(clientCounts[ci]) + " clients)");
  }
  v.check(replWaitUs[0][3] > replWaitUs[0][0],
          "per-RPC replication wait grows rf 1->4 (10 clients)");
  std::printf("exemplars: %llu captured, %llu with stage decompositions, "
              "%llu sum violations\n",
              static_cast<unsigned long long>(exemplars),
              static_cast<unsigned long long>(exemplarsWithStages),
              static_cast<unsigned long long>(exemplarSumViolations));
  v.check(exemplarsWithStages > 0,
          "10-client runs captured staged exemplars");
  v.check(exemplarSumViolations == 0,
          "every exemplar's stages sum to its span total (within 1us)");
  return v.exitCode();
}
