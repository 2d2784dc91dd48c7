// Open-loop traffic engine tests (docs/WORKLOADS.md):
//
//   1. Arrival-process statistics under a fixed seed: Poisson mean and
//      index of dispersion ~ 1, on/off self-similar traffic measurably
//      burstier at the same mean, diurnal modulation integrating to the
//      curve's analytic mean, flash-crowd edges exact.
//   2. The TrafficSource's batched generation: o(1) heap events per
//      request, offered rate delivered, intent-time SLO accounting.
//   3. Per-tenant QoS at dispatch: a surging tenant is policed at its
//      bucket rate while the other tenant's p999 stays put.
//   4. Determinism: same seed + same schedule => bit-identical
//      metrics.jsonl / slo.jsonl across runs (seeds 101/202/303).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "fault/fault_injector.hpp"
#include "load/arrival.hpp"
#include "load/traffic_source.hpp"
#include "sim/token_bucket.hpp"
#include "ycsb/workload.hpp"

namespace rc {
namespace {

using sim::msec;
using sim::seconds;
using sim::usec;

// ------------------------------------------------ arrival-process statistics

// Bin a drawn arrival stream and return {meanRate, indexOfDispersion}.
// Dispersion (variance/mean of per-bin counts) is 1 for Poisson and > 1
// for bursty processes — the standard burstiness probe.
struct BinStats {
  double ratePerSec = 0;
  double dispersion = 0;
  std::uint64_t count = 0;
};

BinStats binArrivals(load::ArrivalProcess& p, sim::Duration horizon,
                     sim::Duration bin) {
  std::vector<sim::SimTime> out;
  sim::SimTime cursor = 0;
  while (cursor < horizon) {
    cursor = p.drawRun(cursor, msec(5), 100000, out);
  }
  const auto bins = static_cast<std::size_t>(horizon / bin);
  std::vector<double> counts(bins, 0);
  for (sim::SimTime t : out) {
    if (t >= horizon) break;
    counts[static_cast<std::size_t>(t / bin)] += 1;
  }
  double mean = 0;
  for (double c : counts) mean += c;
  mean /= static_cast<double>(bins);
  double var = 0;
  for (double c : counts) var += (c - mean) * (c - mean);
  var /= static_cast<double>(bins);
  BinStats s;
  s.count = out.size();
  s.ratePerSec = static_cast<double>(out.size()) / sim::toSeconds(horizon);
  s.dispersion = mean > 0 ? var / mean : 0;
  return s;
}

TEST(Arrival, PoissonMeanAndDispersion) {
  load::TrafficShape shape;
  shape.process = load::TrafficShape::Process::kPoisson;
  shape.users = 50'000;
  shape.opsPerUserPerSec = 1.0;
  load::ArrivalProcess p(shape, sim::Rng(101, 1));
  const BinStats s = binArrivals(p, seconds(2), msec(10));
  // 100k expected arrivals: mean within 2%, dispersion ~ 1.
  EXPECT_NEAR(s.ratePerSec, 50'000.0, 1'000.0);
  EXPECT_GT(s.dispersion, 0.8);
  EXPECT_LT(s.dispersion, 1.25);
}

TEST(Arrival, OnOffIsBurstierThanPoissonAtSameMean) {
  load::TrafficShape shape;
  shape.process = load::TrafficShape::Process::kOnOff;
  shape.users = 50'000;
  shape.opsPerUserPerSec = 1.0;
  shape.onOffSources = 8;
  shape.onMean = msec(50);
  load::ArrivalProcess p(shape, sim::Rng(101, 1));
  const BinStats s = binArrivals(p, seconds(5), msec(10));
  // Long-run mean converges to users * opsPerUser (generous tolerance: the
  // heavy-tailed off periods make convergence slow by construction).
  EXPECT_NEAR(s.ratePerSec, 50'000.0, 17'500.0);
  // The whole point of the Willinger construction: visibly over-dispersed.
  EXPECT_GT(s.dispersion, 1.5);
}

TEST(Arrival, DiurnalCurveMeanIsExactIntegral) {
  load::DiurnalCurve c;
  c.period = seconds(4);
  // Triangle wave 0.5 -> 1.5 -> 0.5: mean exactly 1.0.
  c.points = {{0.0, 0.5}, {0.5, 1.5}};
  EXPECT_FALSE(c.flat());
  EXPECT_NEAR(c.mean(), 1.0, 1e-9);
  EXPECT_NEAR(c.at(0), 0.5, 1e-9);
  EXPECT_NEAR(c.at(seconds(2)), 1.5, 1e-9);
  EXPECT_NEAR(c.at(seconds(1)), 1.0, 1e-9);  // halfway up
  EXPECT_NEAR(c.at(seconds(3)), 1.0, 1e-9);  // halfway down (wrap side)
  EXPECT_NEAR(c.at(seconds(4)), 0.5, 1e-9);  // periodic
}

TEST(Arrival, DiurnalModulatedCountMatchesCurveMean) {
  load::TrafficShape shape;
  shape.users = 20'000;
  shape.diurnal.period = seconds(1);
  shape.diurnal.points = {{0.0, 0.2}, {0.5, 1.8}};  // mean 1.0
  load::ArrivalProcess p(shape, sim::Rng(202, 1));
  // Whole number of periods, so the integral applies exactly.
  const BinStats s = binArrivals(p, seconds(4), msec(10));
  EXPECT_NEAR(s.ratePerSec, 20'000.0 * shape.diurnal.mean(), 1'500.0);
  // Valley rate ~0.2x, peak ~1.8x: strongly over-dispersed in 10 ms bins.
  EXPECT_GT(s.dispersion, 2.0);
}

TEST(Arrival, FlashCrowdMultipliesRateExactlyInWindow) {
  load::TrafficShape shape;
  shape.users = 10'000;
  shape.flashCrowds = {{seconds(1), msec(500), 5.0}};
  load::ArrivalProcess p(shape, sim::Rng(303, 1));
  EXPECT_NEAR(p.rateAt(msec(500)), 10'000.0, 1e-6);
  EXPECT_NEAR(p.rateAt(seconds(1)), 50'000.0, 1e-6);
  EXPECT_NEAR(p.rateAt(msec(1499)), 50'000.0, 1e-6);
  EXPECT_NEAR(p.rateAt(msec(1500)), 10'000.0, 1e-6);

  std::vector<sim::SimTime> out;
  sim::SimTime cursor = 0;
  while (cursor < seconds(2)) cursor = p.drawRun(cursor, msec(5), 100000, out);
  std::uint64_t inCrowd = 0;
  std::uint64_t before = 0;
  for (sim::SimTime t : out) {
    if (t < seconds(1)) ++before;
    else if (t < msec(1500)) ++inCrowd;
  }
  const double baseRate = static_cast<double>(before) / 1.0;
  const double crowdRate = static_cast<double>(inCrowd) / 0.5;
  EXPECT_NEAR(crowdRate / baseRate, 5.0, 0.5);
}

TEST(Arrival, SameSeedDrawsIdenticalRuns) {
  load::TrafficShape shape;
  shape.users = 5'000;
  shape.flashCrowds = {{msec(200), msec(100), 3.0}};
  load::ArrivalProcess a(shape, sim::Rng(101, 7));
  load::ArrivalProcess b(shape, sim::Rng(101, 7));
  std::vector<sim::SimTime> outA;
  std::vector<sim::SimTime> outB;
  sim::SimTime ca = 0;
  sim::SimTime cb = 0;
  for (int i = 0; i < 200; ++i) {
    ca = a.drawRun(ca, msec(1), 4096, outA);
    cb = b.drawRun(cb, msec(1), 4096, outB);
  }
  EXPECT_EQ(ca, cb);
  ASSERT_EQ(outA.size(), outB.size());
  EXPECT_TRUE(outA == outB);
}

// --------------------------------------------------------- sim token bucket

TEST(TokenBucket, TryAcquireNeverGoesIntoDebt) {
  sim::TokenBucket tb(1'000.0, 2.0);  // 1k/s, depth 2
  EXPECT_TRUE(tb.tryAcquire(0));
  EXPECT_TRUE(tb.tryAcquire(0));
  EXPECT_FALSE(tb.tryAcquire(0));  // empty: policing refuses, no debt
  // 1 ms refills exactly one token.
  EXPECT_TRUE(tb.tryAcquire(msec(1)));
  EXPECT_FALSE(tb.tryAcquire(msec(1)));
}

TEST(TokenBucket, TimeToTokenIsNonConsumingHint) {
  sim::TokenBucket tb(1'000.0, 1.0);
  EXPECT_TRUE(tb.tryAcquire(0));
  const sim::Duration wait = tb.timeToToken(0);
  EXPECT_GT(wait, 0);
  EXPECT_LE(wait, msec(1));
  EXPECT_EQ(wait, tb.timeToToken(0));  // hint does not consume
  EXPECT_TRUE(tb.tryAcquire(wait));
}

TEST(TokenBucket, ReserveStillPacesWithDebt) {
  // The client-side contract (retry budgets) is unchanged by the move to
  // sim/: reserve() commits and returns the wait.
  sim::TokenBucket tb(100.0, 1.0);
  EXPECT_EQ(tb.reserve(0), 0);
  EXPECT_GT(tb.reserve(0), 0);  // debt: caller must wait
}

// ------------------------------------------------- open-loop traffic engine

core::ExperimentConfig smallConfig() {
  core::ExperimentConfig cfg;
  cfg.cluster.servers = 4;
  cfg.workload = ycsb::WorkloadSpec::B(20'000);
  cfg.warmup = msec(500);
  cfg.measure = seconds(2);
  cfg.cluster.seed = 42;
  core::OpenLoopTenant t;
  t.name = "web";
  t.sources = 2;
  t.shape.users = 1'000;  // 2 sources x 1k users x 1 op/s = 2k ops/s
  t.readSlo = {msec(4), msec(20)};
  t.updateSlo = {msec(8), msec(40)};
  cfg.openLoop = {t};
  return cfg;
}

TEST(OpenLoop, DeliversOfferedRateWhenUncongested) {
  const core::ExperimentConfig cfg = smallConfig();
  const core::ExperimentResult r = core::runExperiment(cfg);
  EXPECT_EQ(r.modeledUsers, 2'000u);
  EXPECT_NEAR(r.offeredRatePerSec, 2'000.0, 1e-6);
  // Open loop at ~2% of capacity: delivered == offered (within noise).
  EXPECT_NEAR(r.throughputOpsPerSec, r.offeredRatePerSec,
              0.1 * r.offeredRatePerSec);
  EXPECT_EQ(r.opFailures, 0u);
  EXPECT_EQ(r.sourceDropped, 0u);
  EXPECT_GT(r.sloWindows.size(), 0u);
}

TEST(OpenLoop, BatchedGenerationAmortizesHeapEvents) {
  core::ExperimentConfig cfg = smallConfig();
  cfg.openLoop[0].sources = 1;
  cfg.openLoop[0].shape.users = 200'000;  // 200k ops/s through one source
  cfg.warmup = msec(100);
  cfg.measure = msec(500);
  const core::ExperimentResult batched = core::runExperiment(cfg);
  ASSERT_GT(batched.generatorWakeups, 0u);
  const double perWake =
      static_cast<double>(batched.arrivalsGenerated) /
      static_cast<double>(batched.generatorWakeups);
  // 200k/s x 100 us quantum = ~20 arrivals per wakeup event.
  EXPECT_GT(perWake, 5.0);

  cfg.batchQuantum = 0;  // pace per arrival: ~one wakeup each
  const core::ExperimentResult paced = core::runExperiment(cfg);
  ASSERT_GT(paced.arrivalsGenerated, 0u);
  // Slightly under 1:1 only when two drawn arrivals share a timestamp.
  EXPECT_GE(static_cast<double>(paced.generatorWakeups),
            0.95 * static_cast<double>(paced.arrivalsGenerated));
}

TEST(OpenLoop, SourceDropGuardsCollapse) {
  // Offered far beyond capacity with a tiny in-flight cap: the source
  // sheds at the generator instead of growing client state unboundedly.
  core::ExperimentConfig cfg = smallConfig();
  cfg.cluster.servers = 2;
  cfg.openLoop[0].sources = 1;
  cfg.openLoop[0].shape.users = 500'000;
  cfg.warmup = msec(100);
  cfg.measure = msec(500);
  core::ExperimentResult r;
  {
    core::ExperimentConfig c = cfg;
    c.clusterHook = [](core::Cluster&) {};
    r = core::runExperiment(c);
  }
  EXPECT_GT(r.sourceDropped + r.shedRequests, 0u);
}

TEST(OpenLoop, LoadSurgeFaultRaisesOpenLoopRate) {
  // The kLoadSurge fault lands on TrafficSources as a flash-crowd overlay
  // (the closed-loop-only hook it subsumes).
  core::ClusterParams cp;
  cp.servers = 3;
  cp.clients = 1;
  cp.seed = 7;
  core::Cluster cluster(cp);
  const std::uint64_t table = cluster.createTable("usertable");
  ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::C(10'000);
  cluster.bulkLoad(table, spec.recordCount, spec.valueBytes);

  load::TrafficSourceParams p;
  p.shape.users = 2'000;
  cluster.configureOpenLoop(table, spec, {p});
  cluster.startTraffic();

  fault::FaultPlan plan;
  plan.loadSurge(seconds(1), /*clientIdx=*/-1, /*factor=*/4.0, seconds(1));
  fault::FaultInjector injector(cluster, plan, cluster.sim().rng().fork(9));
  injector.arm();

  cluster.sim().runFor(msec(900));
  const std::uint64_t before = cluster.totalArrivalsGenerated();
  EXPECT_NEAR(cluster.clientHost(0).traffic->offeredRate(), 2'000.0, 1e-6);
  cluster.sim().runFor(msec(600));  // inside the surge window
  const std::uint64_t during = cluster.totalArrivalsGenerated() - before;
  EXPECT_NEAR(cluster.clientHost(0).traffic->offeredRate(), 8'000.0, 1e-6);
  cluster.sim().runFor(seconds(1));  // past it
  EXPECT_NEAR(cluster.clientHost(0).traffic->offeredRate(), 2'000.0, 1e-6);
  cluster.stopTraffic();
  // ~0.9 s at 2k/s vs 0.6 s at 8k/s: the surge window generated more.
  EXPECT_GT(during, before);
}

TEST(OpenLoop, ConfiguringOneDriverReplacesTheOther) {
  // A host runs one driver: whichever of configureYcsb/configureOpenLoop
  // came last is the only one left, so the cluster totals (and a
  // kLoadSurge) see one driver per host.
  for (bool openLast : {true, false}) {
    SCOPED_TRACE(openLast ? "open loop last" : "closed loop last");
    core::ClusterParams cp;
    cp.servers = 2;
    cp.clients = 1;
    cp.seed = 7;
    core::Cluster cluster(cp);
    const std::uint64_t table = cluster.createTable("usertable");
    const ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::C(2'000);
    cluster.bulkLoad(table, spec.recordCount, spec.valueBytes);
    load::TrafficSourceParams p;
    p.shape.users = 1'000;
    if (openLast) {
      cluster.configureYcsb(table, spec, ycsb::YcsbClientParams{});
      cluster.configureOpenLoop(table, spec, {p});
    } else {
      cluster.configureOpenLoop(table, spec, {p});
      cluster.configureYcsb(table, spec, ycsb::YcsbClientParams{});
    }
    cluster.startYcsb();
    cluster.startTraffic();
    cluster.sim().runFor(seconds(1));
    cluster.stopYcsb();
    cluster.stopTraffic();

    auto& host = cluster.clientHost(0);
    EXPECT_EQ(host.ycsb == nullptr, openLast);
    EXPECT_EQ(host.traffic == nullptr, !openLast);
    const ycsb::YcsbStats& st =
        openLast ? host.traffic->stats() : host.ycsb->stats();
    EXPECT_GT(st.opsCompleted, 0u);
    EXPECT_EQ(cluster.totalOpsCompleted(), st.opsCompleted);
    EXPECT_EQ(cluster.totalOpFailures(), st.failures);
  }
}

TEST(OpenLoop, StoppedOpsLeaveTheInFlightCount) {
  // Ops still outstanding at stop() are abandoned, not accounted, but they
  // must still leave the in-flight count, or a restarted source's valve
  // would start from the leaked count.
  core::ClusterParams cp;
  cp.servers = 2;
  cp.clients = 1;
  cp.seed = 7;
  core::Cluster cluster(cp);
  const std::uint64_t table = cluster.createTable("usertable");
  const ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::F(2'000);
  cluster.bulkLoad(table, spec.recordCount, spec.valueBytes);
  load::TrafficSourceParams p;
  p.shape.users = 20'000;
  cluster.configureOpenLoop(table, spec, {p});
  const load::TrafficSource& src = *cluster.clientHost(0).traffic;

  cluster.startTraffic();
  cluster.sim().runFor(msec(200));
  cluster.stopTraffic();
  ASSERT_GT(src.inFlight(), 0u);
  const std::uint64_t accounted = src.stats().opsCompleted;
  cluster.sim().runFor(seconds(1));
  EXPECT_EQ(src.inFlight(), 0u);
  EXPECT_EQ(src.stats().opsCompleted, accounted);
}

// ----------------------------------------------------- per-tenant QoS stage

TEST(OpenLoop, TenantIsolationUnderTenXSurge) {
  // The acceptance invariant: tenant B surges 10x; its admitted rate is
  // policed at the bucket while tenant A's intent-time p999 holds.
  core::ExperimentConfig cfg;
  cfg.cluster.servers = 4;
  cfg.workload = ycsb::WorkloadSpec::B(20'000);
  cfg.warmup = seconds(1);
  cfg.measure = seconds(5);
  cfg.cluster.seed = 42;

  core::OpenLoopTenant a;
  a.name = "tenantA";
  a.sources = 1;
  a.shape.users = 1'500;
  a.readSlo = {msec(4), msec(20)};
  a.updateSlo = {msec(8), msec(40)};
  a.qosRatePerSec = 1'000;  // 4k/s cluster-wide >> 1.5k offered
  a.qosPriority = true;

  core::OpenLoopTenant b = a;
  b.name = "tenantB";
  b.shape.users = 1'500;
  b.qosRatePerSec = 750;  // 3k/s cluster-wide cap
  b.qosPriority = false;
  // 10x surge for 2 s in the middle of the measurement window.
  b.shape.flashCrowds = {{seconds(3), seconds(2), 10.0}};

  cfg.openLoop = {a, b};
  const core::ExperimentResult r = core::runExperiment(cfg);

  ASSERT_EQ(r.tenants.size(), 2u);
  const core::TenantResult& ra = r.tenants[0];
  const core::TenantResult& rb = r.tenants[1];

  // A never throttles; B does, hard, and only via the bucket.
  EXPECT_EQ(ra.qosThrottled, 0u);
  EXPECT_GT(rb.qosThrottled, 5'000u);
  EXPECT_GT(rb.qosEpisodes, 0u);

  // B's admitted total ~= offered outside the surge (4 s x 1.5k) plus the
  // bucket cap inside it (2 s x 3k): policing at the bucket rate.
  const double expectAdmitted = 4.0 * 1'500 + 2.0 * 3'000;
  EXPECT_NEAR(static_cast<double>(rb.qosAdmitted), expectAdmitted,
              0.25 * expectAdmitted);

  // Tenant A's per-window intent-time p999: surge windows stay within 20%
  // of the pre-surge baseline (both tails taken over read windows).
  double baseP999 = 0;
  double surgeP999 = 0;
  for (const auto& w : r.sloWindows) {
    if (w.cls != "tenantA/read" || w.count == 0) continue;
    const double p = sim::toMicros(w.p999);
    if (w.window >= 1 && w.window < 4) baseP999 = std::max(baseP999, p);
    if (w.window >= 4 && w.window < 6) surgeP999 = std::max(surgeP999, p);
  }
  ASSERT_GT(baseP999, 0.0);
  ASSERT_GT(surgeP999, 0.0);
  EXPECT_LT(surgeP999, 1.2 * baseP999)
      << "tenant A p999 degraded >20% during tenant B's surge";
}

// ------------------------------------------------------------- determinism

class OpenLoopSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OpenLoopSeed, ReplaysBitIdentical) {
  const std::uint64_t seed = GetParam();
  auto run = [&](const std::string& dir) {
    core::ExperimentConfig cfg = smallConfig();
    cfg.cluster.seed = seed;
    cfg.warmup = msec(300);
    cfg.measure = seconds(1);
    cfg.metricsDir = dir;
    // Exercise every schedule type in the replay: diurnal valley, flash
    // crowd, on/off tenant.
    cfg.openLoop[0].shape.diurnal.period = msec(800);
    cfg.openLoop[0].shape.diurnal.points = {{0.0, 0.6}, {0.5, 1.4}};
    cfg.openLoop[0].shape.flashCrowds = {{msec(600), msec(200), 3.0}};
    core::OpenLoopTenant burst;
    burst.name = "burst";
    burst.sources = 1;
    burst.shape.process = load::TrafficShape::Process::kOnOff;
    burst.shape.users = 500;
    burst.shape.onOffSources = 4;
    burst.readSlo = {msec(4), msec(20)};
    burst.updateSlo = {msec(8), msec(40)};
    cfg.openLoop.push_back(burst);
    return core::runExperiment(cfg);
  };
  const std::string dirA =
      ::testing::TempDir() + "openloop_replay_a" + std::to_string(seed);
  const std::string dirB =
      ::testing::TempDir() + "openloop_replay_b" + std::to_string(seed);
  const core::ExperimentResult a = run(dirA);
  const core::ExperimentResult b = run(dirB);
  EXPECT_EQ(a.opsMeasured, b.opsMeasured);
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
  EXPECT_EQ(a.arrivalsGenerated, b.arrivalsGenerated);

  auto slurp = [](const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
  };
  const std::string metricsA = slurp(dirA + "/metrics.jsonl");
  ASSERT_FALSE(metricsA.empty());
  EXPECT_EQ(metricsA, slurp(dirB + "/metrics.jsonl"));
  const std::string sloA = slurp(dirA + "/slo.jsonl");
  ASSERT_FALSE(sloA.empty());
  EXPECT_EQ(sloA, slurp(dirB + "/slo.jsonl"));
}

INSTANTIATE_TEST_SUITE_P(Matrix, OpenLoopSeed,
                         ::testing::Values(101u, 202u, 303u));

}  // namespace
}  // namespace rc
