// Figure 11: (a) recovery time and (b) per-node energy during recovery as
// a function of the replication factor (9 servers, ~1.085 GB to recover).
//
// Paper: counterintuitively, recovery time *grows* near-linearly with rf
// (10 s at rf=1 up to 55 s at rf=5) because replay re-inserts data through
// the same replicated write path; per-node energy grows accordingly
// (~1.2 KJ -> ~6.4 KJ) at a roughly constant 114-117 W (Finding 6).

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Fig. 11 — recovery time and energy vs replication factor",
                "Taleb et al., ICDCS'17, Fig. 11a/11b, Finding 6");

  core::TableFormatter t({"rf", "recovery time (s)", "energy/node (KJ)",
                          "power/node (W)", "all keys back"});
  double times[5];
  double joules[5];
  double rereplBusy[5];
  bool journalOk = true;
  bool allBack = true;
  for (int rf = 1; rf <= 5; ++rf) {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = 9;
    cfg.cluster.replicationFactor = rf;
    cfg.workload = ycsb::WorkloadSpec::C(opt.recoveryRecords());
    cfg.crash.emplace();
    cfg.crash->killAt = sim::seconds(5);
    cfg.crash->settleAfter = sim::seconds(2);
    cfg.cluster.seed = opt.seed;
    const auto r = core::runExperiment(cfg);
    times[rf - 1] = sim::toSeconds(r.recoveryDuration);
    joules[rf - 1] = r.energyPerNodeDuringRecoveryJ;
    rereplBusy[rf - 1] = bench::spanBusySeconds(r.spans, "rereplication");
    const auto* root = bench::recoveryRoot(r.spans);
    journalOk &= root != nullptr && !root->open && !root->abandoned;
    allBack &= r.recovered && r.allKeysRecovered;
    t.addRow({std::to_string(rf),
              core::TableFormatter::num(times[rf - 1], 1),
              core::TableFormatter::num(joules[rf - 1] / 1e3, 2),
              core::TableFormatter::num(r.meanPowerDuringRecoveryW, 1),
              r.allKeysRecovered ? "yes" : "NO"});
  }
  t.print();
  std::printf("paper (9.7 GB total): 10 / ~21 / ~32 / ~43 / 55 s; "
              "1.2 -> 6.4 KJ per node\n");
  std::printf("note: at --%s scale this run recovers %.0f%% of the paper's "
              "data volume; times scale with it\n\n",
              opt.scale == bench::Options::Scale::kFull ? "full" : "default",
              100.0 * static_cast<double>(opt.recoveryRecords()) / 10e6);

  bench::Verdict v;
  bool monotone = true;
  for (int i = 1; i < 5; ++i) monotone &= times[i] > times[i - 1];
  v.check(monotone,
          "recovery time grows monotonically with rf (Finding 6)");
  v.check(times[4] > 2.2 * times[0],
          "rf=5 takes several times rf=1's recovery time (paper: 5.5x)");
  bool energyMonotone = true;
  for (int i = 1; i < 5; ++i) energyMonotone &= joules[i] > joules[i - 1];
  v.check(energyMonotone, "per-node recovery energy grows with rf");
  v.check(joules[4] / joules[0] > 2.0,
          "energy scales roughly with time (power stays ~flat)");
  v.check(journalOk, "every rf run closes its recovery span tree");
  v.check(rereplBusy[4] > rereplBusy[0],
          "re-replication spans take longer at rf=5 than rf=1 "
          "(the replicated write path behind Finding 6)");
  v.check(allBack, "every rf recovers every key");
  return v.exitCode();
}
