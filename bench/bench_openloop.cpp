// Open-loop population scaling (docs/WORKLOADS.md): one TrafficSource
// aggregates the whole modeled population into a single batched arrival
// process, so simulator cost tracks the *request rate*, not the number of
// modeled users.
//
// Part 1 sweeps 10^3 -> 10^6 modeled users at a constant offered rate and
// checks that delivered rate and heap events/op stay flat while the
// population grows a thousandfold.
//
// Part 2 is the closed-loop parity gate: at an equal delivered op rate the
// open-loop engine's heap events/op must stay within 10% of the classic
// closed-loop YCSB-B harness — batching makes open-loop generation o(1)
// events per request, not a constant-factor tax.
//
// Part 3 is the tenant-isolation run (two tenants, B surges 10x against
// its dispatch QoS bucket) exported for CI's grep gates.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

namespace {

struct SweepRow {
  double users = 0;
  core::ExperimentResult r;
};

core::OpenLoopTenant tenantShape(double users, double ratePerSec) {
  core::OpenLoopTenant t;
  t.name = "pop";
  t.sources = 1;
  t.shape.users = users;
  t.shape.opsPerUserPerSec = ratePerSec / users;
  t.readSlo = {sim::msec(4), sim::msec(20)};
  t.updateSlo = {sim::msec(8), sim::msec(40)};
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Open-loop population scaling + tenant QoS",
                "extension; methodology of SS IV (docs/WORKLOADS.md)");

  constexpr double kRate = 20'000;  // offered ops/s, constant over the sweep
  bench::Verdict v;

  // ----- Part 1: 10^3 -> 10^6 modeled users at constant offered rate -------
  const double populations[] = {1e3, 1e4, 1e5, 1e6};
  std::vector<SweepRow> sweep;
  for (double users : populations) {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = 10;
    cfg.workload = ycsb::WorkloadSpec::B();
    cfg.warmup = sim::seconds(1);
    cfg.measure = sim::seconds(4);
    cfg.cluster.seed = opt.seed;
    cfg.timeScale = opt.timeScale();
    cfg.openLoop = {tenantShape(users, kRate)};
    SweepRow row;
    row.users = users;
    row.r = core::runExperiment(cfg);
    sweep.push_back(std::move(row));
  }

  core::TableFormatter t({"modeled users", "offered (op/s)",
                          "delivered (op/s)", "events/op", "arrivals/wakeup"});
  double evMin = 1e300;
  double evMax = 0;
  for (const auto& row : sweep) {
    const double perWake =
        row.r.generatorWakeups > 0
            ? static_cast<double>(row.r.arrivalsGenerated) /
                  static_cast<double>(row.r.generatorWakeups)
            : 0;
    evMin = std::min(evMin, row.r.eventsPerOp);
    evMax = std::max(evMax, row.r.eventsPerOp);
    t.addRow({core::TableFormatter::num(row.users, 0),
              core::TableFormatter::num(row.r.offeredRatePerSec, 0),
              core::TableFormatter::num(row.r.throughputOpsPerSec, 0),
              core::TableFormatter::num(row.r.eventsPerOp, 2),
              core::TableFormatter::num(perWake, 1)});
  }
  t.print();
  std::printf("one source stands in for the whole population: simulator "
              "cost follows the op rate, not the user count\n\n");

  for (const auto& row : sweep) {
    v.check(core::within(row.r.throughputOpsPerSec, 0.9 * kRate, 1.1 * kRate),
            "delivered ~= offered at " +
                core::TableFormatter::num(row.users, 0) + " users");
  }
  v.check(evMax <= 1.15 * evMin,
          "events/op flat across a 1000x population sweep");
  // 20k/s x 100 us quantum = ~2 arrivals per wakeup event.
  const auto& big = sweep.back().r;
  v.check(big.modeledUsers == 1'000'000 &&
              static_cast<double>(big.arrivalsGenerated) >
                  1.5 * static_cast<double>(big.generatorWakeups),
          "10^6 users sustained with batched (o(1)-event) generation");

  // ----- Part 2: closed-loop parity at equal delivered rate ----------------
  // Classic closed-loop YCSB-B throttled to the same delivered op rate;
  // compare heap events per delivered op.
  core::ExperimentConfig closed;
  closed.cluster.servers = 10;
  closed.cluster.clients = 10;
  closed.cluster.seed = opt.seed;
  closed.workload = ycsb::WorkloadSpec::B();
  closed.client.throttleOpsPerSec = kRate / closed.cluster.clients;
  closed.warmup = sim::seconds(1);
  closed.measure = sim::seconds(4);
  closed.timeScale = opt.timeScale();
  const core::ExperimentResult cl = core::runExperiment(closed);
  const double closedEventsPerOp = cl.eventsPerOp;
  const double closedRate = cl.throughputOpsPerSec;
  const double openEventsPerOp = sweep.back().r.eventsPerOp;
  std::printf("parity: closed-loop ycsb_b %.0f op/s at %.2f events/op vs "
              "open-loop 10^6 users %.0f op/s at %.2f events/op\n\n",
              closedRate, closedEventsPerOp,
              sweep.back().r.throughputOpsPerSec, openEventsPerOp);
  v.check(core::within(closedRate, 0.9 * kRate, 1.1 * kRate),
          "closed-loop baseline throttled to the same delivered rate");
  v.check(closedEventsPerOp > 0 &&
              openEventsPerOp <= 1.10 * closedEventsPerOp,
          "open-loop events/op within 10% of the closed-loop baseline");

  // ----- Part 3: tenant isolation under a 10x surge ------------------------
  core::ExperimentConfig iso;
  iso.cluster.servers = 10;
  iso.workload = ycsb::WorkloadSpec::B();
  iso.warmup = sim::seconds(1);
  iso.measure = sim::seconds(5);
  iso.cluster.seed = opt.seed;
  iso.timeScale = opt.timeScale();
  iso.metricsDir = opt.runDir("qos_isolation");

  core::OpenLoopTenant a = tenantShape(5'000, 5'000);
  a.name = "tenantA";
  a.qosRatePerSec = 1'000;  // 10k/s cluster-wide, 2x headroom
  a.qosPriority = true;
  core::OpenLoopTenant b = tenantShape(5'000, 5'000);
  b.name = "tenantB";
  b.qosRatePerSec = 800;  // 8k/s cluster-wide cap
  const sim::SimTime surgeAt = static_cast<sim::SimTime>(
      static_cast<double>(sim::seconds(3)) * iso.timeScale +
      static_cast<double>(sim::seconds(1)) * iso.timeScale);
  const auto surgeLen = static_cast<sim::Duration>(
      static_cast<double>(sim::seconds(2)) * iso.timeScale);
  b.shape.flashCrowds = {{surgeAt, surgeLen, 10.0}};
  iso.openLoop = {a, b};

  // Control run: same two tenants, no surge. Tenant A's whole-run p999 in
  // the surge run is gated against this baseline, which stays meaningful
  // at --quick timescales where the run fits inside one SLO window.
  core::ExperimentConfig control = iso;
  control.metricsDir.clear();
  control.openLoop[1].shape.flashCrowds.clear();
  const core::ExperimentResult cr = core::runExperiment(control);
  const core::ExperimentResult ir = core::runExperiment(iso);

  core::TableFormatter qt({"tenant", "offered (op/s)", "qos offered",
                           "admitted", "throttled", "episodes",
                           "read p999 (us)"});
  for (const auto& row : ir.tenants) {
    qt.addRow({row.name, core::TableFormatter::num(row.offeredRatePerSec, 0),
               std::to_string(row.qosOffered),
               std::to_string(row.qosAdmitted),
               std::to_string(row.qosThrottled),
               std::to_string(row.qosEpisodes),
               core::TableFormatter::num(row.readP999Us, 1)});
  }
  qt.print();
  std::printf("tenant B's surge is policed at its bucket; tenant A rides "
              "through\n\n");

  v.check(ir.tenants[0].qosThrottled == 0,
          "tenant A never throttled by its own bucket");
  v.check(ir.tenants[1].qosThrottled > 0 && ir.tenants[1].qosEpisodes > 0,
          "tenant B throttled at the bucket during the surge");
  v.check(cr.tenants[1].qosThrottled == 0,
          "control run (no surge): tenant B under its bucket, no throttle");
  // Intent-time p999 for tenant A: surge run within 20% of the no-surge
  // control (the isolation invariant, docs/WORKLOADS.md).
  const double baseP999 = cr.tenants[0].readP999Us;
  const double surgeP999 = ir.tenants[0].readP999Us;
  std::printf("tenant A read p999: %.1f us (control) vs %.1f us (surge)\n\n",
              baseP999, surgeP999);
  v.check(baseP999 > 0 && surgeP999 > 0 && surgeP999 < 1.2 * baseP999,
          "tenant A p999 degrades <20% while B surges 10x");
  return v.exitCode();
}
