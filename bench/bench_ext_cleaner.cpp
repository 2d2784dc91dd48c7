// Extension bench: log-cleaning under memory pressure.
//
// The paper deliberately sized memory so the cleaner never ran (SS III-C:
// "we avoid saturating the main memory ... and trigger the cleaning
// mechanism"). This bench removes that guard: an update-heavy workload at
// increasing memory utilisation, showing the cleaner's cost (throughput
// loss, write amplification) and the cost-benefit vs greedy victim-policy
// ablation (Rumble et al., FAST'14 — the design RAMCloud ships).

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

namespace {

struct Result {
  double kops = 0;
  double writeAmp = 0;
  std::uint64_t cleanerRuns = 0;
};

Result run(double memoryUtilisation, log::CleanerPolicy policy,
           const bench::Options& opt) {
  // 20 K records of ~1.1 KB live data per server pair; capacity chosen so
  // live/capacity == memoryUtilisation.
  const std::uint64_t records = 20'000;
  const std::uint64_t liveBytes = records * 1100;

  core::ExperimentConfig cfg;
  cfg.cluster.servers = 2;
  cfg.cluster.clients = 4;
  cfg.cluster.seed = opt.seed;
  cfg.cluster.master.log.segmentBytes = 1 * 1024 * 1024;
  cfg.cluster.master.log.capacityBytes = static_cast<std::uint64_t>(
      static_cast<double>(liveBytes / 2) / memoryUtilisation);
  cfg.cluster.master.log.cleanerThreshold = 0.9;
  cfg.cluster.master.cleanerPolicy = policy;
  cfg.workload = ycsb::WorkloadSpec::A(records);
  // Skew makes segment ages diverge — where cost-benefit beats greedy.
  cfg.workload.distribution = ycsb::WorkloadSpec::Distribution::kZipfian;
  // Windows scale relative to the default 0.4 (timeScale stays 1).
  cfg.warmup = static_cast<sim::Duration>(
      static_cast<double>(sim::seconds(2)) * opt.timeScale() / 0.4);
  cfg.measure = static_cast<sim::Duration>(
      static_cast<double>(sim::seconds(6)) * opt.timeScale() / 0.4);
  const auto x = core::runExperiment(cfg);

  Result r;
  r.kops = x.throughputOpsPerSec / 1e3;
  r.writeAmp = x.cleanerWriteAmp;
  r.cleanerRuns = x.cleanerRuns;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Extension — log cleaning under memory pressure",
                "Taleb et al. SS III-C (avoided) + Rumble et al. FAST'14");

  const double utils[] = {0.30, 0.60, 0.80, 0.90};
  core::TableFormatter t({"memory util", "policy", "throughput (Kop/s)",
                          "cleaner passes", "write amp"});
  double cbThr[4], cbAmp[4], grAmp[4];
  std::uint64_t cbRuns[4];
  for (int i = 0; i < 4; ++i) {
    const Result cb = run(utils[i], log::CleanerPolicy::kCostBenefit, opt);
    const Result gr = run(utils[i], log::CleanerPolicy::kGreedy, opt);
    cbThr[i] = cb.kops;
    cbAmp[i] = cb.writeAmp;
    grAmp[i] = gr.writeAmp;
    cbRuns[i] = cb.cleanerRuns;
    t.addRow({core::TableFormatter::num(100 * utils[i], 0) + "%",
              "cost-benefit", core::TableFormatter::num(cb.kops, 1) + "K",
              std::to_string(cb.cleanerRuns),
              core::TableFormatter::num(cb.writeAmp, 2)});
    t.addRow({"", "greedy", core::TableFormatter::num(gr.kops, 1) + "K",
              std::to_string(gr.cleanerRuns),
              core::TableFormatter::num(gr.writeAmp, 2)});
  }
  t.print();

  bench::Verdict v;
  v.check(cbAmp[0] < 0.3,
          "at 30% utilisation cleaning is nearly free: victims are almost "
          "all dead (write amp < 0.3)");
  v.check(cbRuns[3] > 20 * cbRuns[0],
          "at 90% utilisation cleaning is continuous");
  v.check(cbThr[3] < cbThr[0],
          "memory pressure costs update throughput (cleaner steals CPU)");
  v.check(cbAmp[3] > cbAmp[1],
          "write amplification grows with memory utilisation");
  v.check(cbAmp[3] <= grAmp[3] + 0.15,
          "cost-benefit's write amplification <= greedy's under skew+aging");
  return v.exitCode();
}
