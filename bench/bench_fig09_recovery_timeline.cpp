// Figure 9: average CPU usage (a) and power (b) of 10 servers before,
// during and after crash-recovery (rf=4). A random server is killed after
// a fixed idle period.
//
// Paper: idle cluster sits at exactly 25 % CPU (polling core); on crash
// the remaining nodes jump to ~92 % / ~119 W while replaying, then return
// to idle.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Fig. 9 — CPU and power timeline through crash-recovery",
                "Taleb et al., ICDCS'17, Fig. 9a/9b, Finding 5");

  core::ExperimentConfig cfg;
  cfg.cluster.servers = 10;
  cfg.cluster.replicationFactor = 4;
  cfg.workload = ycsb::WorkloadSpec::C(opt.recoveryRecords());  // paper: 10 M x 1 KB = 9.7 GB
  cfg.crash.emplace();
  cfg.crash->killAt = opt.scale == bench::Options::Scale::kFull ? sim::seconds(60)
                                                         : sim::seconds(10);
  cfg.cluster.seed = opt.seed;
  cfg.crash->sampleEvery = opt.recoverySampleEvery();
  const auto r = core::runExperiment(cfg);

  std::printf("\ndata on crashed server: %.2f GB   detection: %.2f s   "
              "recovery: %.1f s\n\n",
              r.dataRecoveredGB, sim::toSeconds(r.detectionDelay),
              sim::toSeconds(r.recoveryDuration));

  core::TableFormatter t({"t (s)", "avg CPU of alive servers (%)",
                          "avg power (W)"});
  const auto& cpu = r.cpuMeanPct.points();
  const auto& pw = r.powerMeanW.points();
  // Fine-grained (quick-scale) timelines get decimated to ~40 rows; the
  // shape checks below still see every bucket.
  const std::size_t stride = std::max<std::size_t>(1, cpu.size() / 40);
  for (std::size_t i = 0; i < cpu.size() && i < pw.size(); i += stride) {
    t.addRow({core::TableFormatter::num(sim::toSeconds(cpu[i].time), 1),
              core::TableFormatter::num(cpu[i].value, 1),
              core::TableFormatter::num(pw[i].value, 1)});
  }
  t.print();
  if (opt.csv) {
    std::printf("%s\n", r.cpuMeanPct.toCsv("cpu_pct").c_str());
    std::printf("%s\n", r.powerMeanW.toCsv("power_w").c_str());
  }

  // Split the timeline at the kill.
  double idleCpu = r.cpuMeanPct.meanInWindow(sim::seconds(2), r.killTime);
  double idlePower = r.powerMeanW.meanInWindow(sim::seconds(2), r.killTime);

  bench::Verdict v;
  v.check(r.recovered && r.allKeysRecovered,
          "recovery completed and every key is readable again");
  v.check(core::within(idleCpu, 24.5, 26.5),
          "idle cluster sits at 25% CPU (polling core)");
  v.check(core::within(idlePower, 74, 80), "idle power ~76 W");
  v.check(r.peakCpuPct > 60,
          "recovery drives CPU far above idle (paper: up to 92%)");
  v.check(r.powerMeanW.maxValue() > idlePower + 20,
          "recovery adds tens of watts per node (paper: ~119 W peak)");
  // Post-recovery: back to idle.
  const sim::SimTime end = r.killTime + r.detectionDelay +
                           r.recoveryDuration + sim::seconds(3);
  const double after = r.cpuMeanPct.meanInWindow(end, end + sim::seconds(6));
  v.check(after < 40, "CPU returns toward idle after recovery");

  // Journal shape: the crash must yield one complete cross-node span tree.
  const auto* root = bench::recoveryRoot(r.spans);
  v.check(root != nullptr && !root->open && !root->abandoned &&
              bench::spanCount(r.spans, "recovery") == 1,
          "journal holds exactly one closed recovery span tree");
  if (root != nullptr) {
    const auto phases = bench::phaseNames(r.spans, root->ctx);
    const auto nodes = bench::phaseNodes(r.spans, root->ctx);
    v.check(phases.size() >= 7,
            "span tree covers >= 7 distinct recovery phases");
    v.check(nodes.size() >= 3, "span tree crosses >= 3 nodes");
  }
  // Data-path work (fetch/replay/read/re-replicate) dwarfs the
  // coordinator's control phases — recovery is bandwidth-, not
  // coordination-bound.
  const double dataBusy = bench::spanBusySeconds(r.spans, "segment_fetch") +
                          bench::spanBusySeconds(r.spans, "replay") +
                          bench::spanBusySeconds(r.spans, "segment_read") +
                          bench::spanBusySeconds(r.spans, "rereplication");
  const double ctrlBusy =
      bench::spanBusySeconds(r.spans, "will_lookup") +
      bench::spanBusySeconds(r.spans, "partition_assignment");
  v.check(dataBusy > ctrlBusy,
          "data-path span busy-time dominates coordinator control phases");
  return v.exitCode();
}
