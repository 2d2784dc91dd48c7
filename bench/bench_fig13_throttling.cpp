// Figure 13: aggregated throughput with client-side request throttling
// (update-heavy, 10 servers, rf=2, client rate capped at 200 or 500
// req/s).
//
// Paper §IX: throttling lets the overload-prone 10-server configuration
// scale linearly with clients instead of collapsing/crashing.
//
// Part 2 (SLO attribution, docs/SLO.md): a mixed-tenant run — half the
// clients throttled at 200 R/S, half open — with per-tenant windowed
// p99/p999 and burn-rate columns. SLO latency counts from op *intent*
// (before the token-bucket wait), so the throttled tenant's burn rate must
// dominate the open tenant's in every window: throttling trades tail
// latency for cluster stability, and the tracker makes that trade visible.

#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Fig. 13 — client-side request throttling",
                "Taleb et al., ICDCS'17, Fig. 13, SS IX");

  const int clientCounts[] = {10, 30, 60};
  const double rates[] = {200, 500};
  double thr[2][3];
  for (int ri = 0; ri < 2; ++ri) {
    for (int ci = 0; ci < 3; ++ci) {
      core::ExperimentConfig cfg;
      cfg.cluster.servers = 10;
      cfg.cluster.clients = clientCounts[ci];
      cfg.cluster.replicationFactor = 2;
      cfg.workload = ycsb::WorkloadSpec::A();
      cfg.client.throttleOpsPerSec = rates[ri];
      cfg.cluster.seed = opt.seed;
      cfg.timeScale = opt.timeScale();
      thr[ri][ci] = core::runExperiment(cfg).throughputOpsPerSec;
    }
  }

  core::TableFormatter t({"clients", "rate 200 R/S (op/s)",
                          "rate 500 R/S (op/s)"});
  for (int ci = 0; ci < 3; ++ci) {
    t.addRow({std::to_string(clientCounts[ci]),
              core::TableFormatter::num(thr[0][ci], 0),
              core::TableFormatter::num(thr[1][ci], 0)});
  }
  t.print();
  std::printf("paper: linear growth up to 60 clients; 500 R/S x 60 = 30K\n\n");

  bench::Verdict v;
  v.check(core::within(thr[0][2], 10'800, 13'200),
          "200 R/S x 60 clients -> ~12 Kop/s delivered");
  v.check(core::within(thr[1][2], 27'000, 33'000),
          "500 R/S x 60 clients -> ~30 Kop/s delivered");
  for (int ri = 0; ri < 2; ++ri) {
    const double perClient10 = thr[ri][0] / 10;
    const double perClient60 = thr[ri][2] / 60;
    v.check(std::abs(perClient60 - perClient10) < 0.12 * perClient10,
            "linear scaling under throttling (rate " +
                core::TableFormatter::num(rates[ri], 0) + ")");
  }

  // ----- Part 2: mixed-tenant SLO attribution ------------------------------
  std::printf("mixed tenants: 10 clients throttled @200 R/S, 10 open "
              "(intent-time SLO latency)\n");
  core::ExperimentConfig mix;
  mix.cluster.servers = 10;
  mix.cluster.clients = 20;
  mix.cluster.replicationFactor = 2;
  mix.workload = ycsb::WorkloadSpec::A();
  mix.cluster.seed = opt.seed;
  mix.timeScale = opt.timeScale();
  mix.metricsDir = opt.runDir("mixed_tenants");  // slo.jsonl for `rcdiag slo`
  const obs::SloTarget readTarget{sim::usec(250), sim::msec(1)};
  const obs::SloTarget updateTarget{sim::usec(600), sim::usecF(2500)};
  mix.clusterHook = [&](core::Cluster& c) {
    c.sloTracker().declareClass("throttled/read", readTarget);
    c.sloTracker().declareClass("throttled/update", updateTarget);
    c.sloTracker().declareClass("open/read", readTarget);
    c.sloTracker().declareClass("open/update", updateTarget);
  };
  mix.perClientParams = [](int i, ycsb::YcsbClientParams& p) {
    if (i % 2 == 0) {
      p.tenant = "throttled";
      p.throttleOpsPerSec = 200;
    } else {
      p.tenant = "open";
    }
  };
  const auto mr = core::runExperiment(mix);

  // window -> class -> row, for side-by-side per-window columns.
  std::map<std::uint64_t, std::map<std::string, obs::SloTracker::WindowRow>>
      byWindow;
  for (const auto& row : mr.sloWindows) byWindow[row.window][row.cls] = row;

  core::TableFormatter st({"window", "class", "count", "p99 (us)",
                           "p999 (us)", "burn", "breached"});
  for (const auto& [win, classes] : byWindow) {
    for (const auto& [cls, row] : classes) {
      st.addRow({std::to_string(win), cls, std::to_string(row.count),
                 core::TableFormatter::num(sim::toMicros(row.p99), 1),
                 core::TableFormatter::num(sim::toMicros(row.p999), 1),
                 core::TableFormatter::num(row.burnRate, 2),
                 row.breached ? "YES" : "no"});
    }
  }
  st.print();

  // Throttled burn must dominate open burn wherever both tenants completed
  // requests in the same window (both op classes).
  int comparable = 0;
  int dominated = 0;
  for (const auto& [win, classes] : byWindow) {
    for (const char* op : {"read", "update"}) {
      const auto t = classes.find(std::string("throttled/") + op);
      const auto o = classes.find(std::string("open/") + op);
      if (t == classes.end() || o == classes.end()) continue;
      if (t->second.count == 0 || o->second.count == 0) continue;
      ++comparable;
      dominated += t->second.burnRate >= o->second.burnRate ? 1 : 0;
    }
  }
  std::printf("throttled-vs-open burn: dominated in %d/%d comparable "
              "windows\n\n", dominated, comparable);
  v.check(comparable > 0 && dominated == comparable,
          "throttled tenant burns budget faster than open in every window");
  v.check(mr.sloBreachedWindows > 0,
          "over-admitted throttled tenant breaches its SLO");

  // ----- Part 3: server-side per-tenant QoS, open-loop ---------------------
  // The dual of the paper's client-side throttling: the *server's* dispatch
  // polices each tenant with a token bucket (docs/WORKLOADS.md).
  // Tenant B's population surges 10x; its admitted volume is capped at the
  // bucket while tenant A's intent-time tail holds.
  std::printf("open-loop tenants: steady A vs surging B, dispatch QoS "
              "buckets (docs/WORKLOADS.md)\n");
  core::ExperimentConfig ol;
  ol.cluster.servers = 10;
  ol.cluster.replicationFactor = 2;
  ol.workload = ycsb::WorkloadSpec::A();
  ol.cluster.seed = opt.seed;
  ol.timeScale = opt.timeScale();
  auto mkTenant = [](const char* name, double perNodeRate) {
    core::OpenLoopTenant t;
    t.name = name;
    t.sources = 1;
    t.shape.users = 4'000;  // 4 Kop/s offered per tenant
    t.readSlo = {sim::usec(250), sim::msec(1)};
    t.updateSlo = {sim::usec(600), sim::usecF(2500)};
    t.qosRatePerSec = perNodeRate;
    return t;
  };
  core::OpenLoopTenant olA = mkTenant("steady", 800);  // 8 Kop/s cap
  olA.qosPriority = true;
  core::OpenLoopTenant olB = mkTenant("surging", 600);  // 6 Kop/s cap
  const auto surgeStart = static_cast<sim::SimTime>(
      static_cast<double>(sim::seconds(4)) * ol.timeScale);
  olB.shape.flashCrowds = {
      {surgeStart,
       static_cast<sim::Duration>(static_cast<double>(sim::seconds(3)) *
                                  ol.timeScale),
       10.0}};
  ol.openLoop = {olA, olB};
  const auto olr = core::runExperiment(ol);

  core::TableFormatter qt({"tenant", "qos offered", "admitted", "throttled",
                           "episodes", "read p999 (us)"});
  for (const auto& row : olr.tenants) {
    qt.addRow({row.name, std::to_string(row.qosOffered),
               std::to_string(row.qosAdmitted),
               std::to_string(row.qosThrottled),
               std::to_string(row.qosEpisodes),
               core::TableFormatter::num(row.readP999Us, 1)});
  }
  qt.print();
  v.check(olr.tenants[0].qosThrottled == 0,
          "steady tenant never hits its bucket");
  v.check(olr.tenants[1].qosThrottled > olr.tenants[1].qosAdmitted / 2,
          "surging tenant policed at the bucket, not admitted at 10x");
  return v.exitCode();
}
