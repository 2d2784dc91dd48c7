// Extension bench: the paper's SS X future work — "consider more workloads"
// (YCSB D: read-latest with inserts; F: read-modify-write) and "evaluate
// the system with different request distributions" (uniform vs zipfian).
//
// Run on the Table II configuration (10 servers) for comparability.

// Part 2 (docs/WORKLOADS.md): the same B and D mixes driven open-loop by a
// TrafficSource population — offered vs delivered rate instead of a closed
// loop's equilibrium throughput — plus a diurnal rate-curve demonstration
// (the peak:valley delivered ratio follows the curve).

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Extension — workloads D/F and request distributions",
                "Taleb et al., ICDCS'17, SS X future work");

  auto run = [&opt](ycsb::WorkloadSpec spec, int clients) {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = 10;
    cfg.cluster.clients = clients;
    cfg.workload = std::move(spec);
    cfg.cluster.seed = opt.seed;
    cfg.timeScale = opt.timeScale();
    return core::runExperiment(cfg);
  };

  // --- more workloads at 30 clients
  core::TableFormatter t({"workload", "mix", "throughput (Kop/s)",
                          "W/node", "op/J"});
  struct Row {
    const char* mix;
    ycsb::WorkloadSpec spec;
  };
  const Row rows[] = {
      {"50r/50u", ycsb::WorkloadSpec::A()},
      {"95r/5u", ycsb::WorkloadSpec::B()},
      {"100r", ycsb::WorkloadSpec::C()},
      {"95r/5i latest", ycsb::WorkloadSpec::D()},
      {"50r/50rmw", ycsb::WorkloadSpec::F()},
  };
  double thr[5];
  int i = 0;
  for (const Row& row : rows) {
    const auto r = run(row.spec, 30);
    thr[i++] = r.throughputOpsPerSec;
    t.addRow({row.spec.name, row.mix,
              core::TableFormatter::kops(r.throughputOpsPerSec),
              core::TableFormatter::num(r.meanPowerPerServerW, 1),
              core::TableFormatter::num(r.opsPerJoule, 0)});
  }
  t.print();

  // --- request distributions on the update-heavy mix
  std::printf("\nrequest-distribution sweep (workload A, 30 clients)\n");
  core::TableFormatter td({"distribution", "throughput (Kop/s)",
                           "CPU spread min-max (%)"});
  double dthr[2];
  double spread[2];
  int di = 0;
  for (auto dist : {ycsb::WorkloadSpec::Distribution::kUniform,
                    ycsb::WorkloadSpec::Distribution::kZipfian}) {
    ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::A();
    spec.distribution = dist;
    const auto r = run(spec, 30);
    dthr[di] = r.throughputOpsPerSec;
    spread[di] = r.maxCpuPct - r.minCpuPct;
    td.addRow({dist == ycsb::WorkloadSpec::Distribution::kUniform
                   ? "uniform (paper)"
                   : "zipfian 0.99",
               core::TableFormatter::kops(r.throughputOpsPerSec),
               core::TableFormatter::num(r.minCpuPct, 1) + " - " +
                   core::TableFormatter::num(r.maxCpuPct, 1)});
    ++di;
  }
  td.print();

  bench::Verdict v;
  v.check(thr[3] > thr[0] && thr[3] < thr[2] * 1.05,
          "D (read-mostly) lands between A and C, near B");
  v.check(thr[4] < thr[1],
          "F pays for its write half: well below read-heavy B");
  v.check(thr[4] < 0.8 * thr[2], "F far below read-only C");
  v.check(dthr[1] < dthr[0],
          "zipfian skew costs update throughput (hot-spot contention)");
  v.check(spread[1] > spread[0] + 2.0,
          "zipfian widens the per-node CPU imbalance (hot tablet)");

  // --- Part 2: the B and D mixes, open-loop ------------------------------
  std::printf("\nopen-loop B/D: 100k-user population at 0.25 op/user/s "
              "(docs/WORKLOADS.md)\n");
  auto openRun = [&opt](ycsb::WorkloadSpec spec,
                        load::DiurnalCurve diurnal) {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = 10;
    cfg.workload = std::move(spec);
    cfg.cluster.seed = opt.seed;
    cfg.timeScale = opt.timeScale();
    core::OpenLoopTenant t;
    t.name = "pop";
    t.sources = 2;
    t.shape.users = 50'000;
    t.shape.opsPerUserPerSec = 0.25;  // 25 Kop/s offered in total
    t.shape.diurnal = std::move(diurnal);
    t.readSlo = {sim::msec(4), sim::msec(20)};
    t.updateSlo = {sim::msec(8), sim::msec(40)};
    cfg.openLoop = {t};
    return core::runExperiment(cfg);
  };
  core::TableFormatter ot({"workload", "offered (Kop/s)",
                           "delivered (Kop/s)", "read p99 (us)",
                           "failures"});
  const auto ob = openRun(ycsb::WorkloadSpec::B(), {});
  const auto od = openRun(ycsb::WorkloadSpec::D(), {});
  for (const auto* r : {&ob, &od}) {
    ot.addRow({r == &ob ? "B (open)" : "D (open)",
               core::TableFormatter::kops(r->offeredRatePerSec),
               core::TableFormatter::kops(r->throughputOpsPerSec),
               core::TableFormatter::num(r->tenants[0].readP99Us, 1),
               std::to_string(r->opFailures)});
  }
  ot.print();
  v.check(core::within(ob.throughputOpsPerSec, 0.9 * ob.offeredRatePerSec,
                       1.1 * ob.offeredRatePerSec),
          "open-loop B delivers its offered rate");
  v.check(core::within(od.throughputOpsPerSec, 0.9 * od.offeredRatePerSec,
                       1.1 * od.offeredRatePerSec),
          "open-loop D (inserts, read-latest) delivers its offered rate");

  // --- diurnal curve: delivered rate follows the valley ------------------
  load::DiurnalCurve day;
  // Period chosen so every measurement window covers whole periods at any
  // --quick/--full timescale (windows are >= 500 ms).
  day.period = sim::msec(250);
  day.points = {{0.0, 0.4}, {0.5, 1.6}};  // valley 0.4x, peak 1.6x, mean 1.0
  const auto odi = openRun(ycsb::WorkloadSpec::B(), day);
  std::printf("\ndiurnal B: mean multiplier %.2f -> delivered %.1f Kop/s\n",
              day.mean(), odi.throughputOpsPerSec / 1e3);
  v.check(core::within(odi.throughputOpsPerSec,
                       0.88 * odi.offeredRatePerSec,
                       1.1 * odi.offeredRatePerSec),
          "diurnal modulation preserves the curve's mean rate");
  return v.exitCode();
}
