// Overload control & graceful degradation (docs/OVERLOAD.md): unit tests
// for the dispatch admission gate, the shared jittered-backoff policy and
// the kLoadSurge fault, plus the chaos overload scenarios — flash crowd,
// hot-key storm, retry storm against a degraded backup — asserting the
// no-collapse invariant:
//
//   1. With defenses on, goodput under a surge to ~3x capacity stays
//      >= 80% of the pre-surge level, and admitted-op p99 stays bounded.
//   2. No acked data is lost: every bulk-loaded key reads back kOk after
//      the storm quiesces.
//   3. Same seed + same plan => bit-identical metrics.jsonl/events.jsonl.
//   4. The regression fixture (admission off, retry budget off) runs the
//      same storm and demonstrably degrades — the metastable timeout-retry
//      amplification the defenses exist to prevent.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "server/common.hpp"
#include "server/dispatch.hpp"
#include "server/master_service.hpp"
#include "sim/backoff.hpp"

namespace rc {
namespace {

using sim::msec;
using sim::seconds;
using sim::usec;

// ------------------------------------------------- dispatch admission gate

server::DispatchParams admissionParams() {
  server::DispatchParams dp;
  dp.admission.enabled = true;
  return dp;
}

TEST(Admission, QuietNodeAdmitsEverything) {
  sim::Simulation sim;
  server::Dispatch d(sim, admissionParams());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(d.admit(i % 2 == 0, 0).admitted);
  }
  EXPECT_EQ(d.shedTotal(), 0u);
  EXPECT_FALSE(d.underPressure());
}

TEST(Admission, DisabledNeverSheds) {
  sim::Simulation sim;
  server::DispatchParams dp;
  dp.admission.enabled = false;
  server::Dispatch d(sim, dp);
  d.noteSojourn(seconds(1));
  sim.runFor(msec(100));
  EXPECT_TRUE(d.admit(true, 0).admitted);
  EXPECT_EQ(d.shedTotal(), 0u);
}

TEST(Admission, TransientSpikeIsAbsorbed) {
  // CoDel-style: load above target for less than `interval` never sheds.
  sim::Simulation sim;
  server::Dispatch d(sim, admissionParams());
  d.noteSojourn(msec(20));
  EXPECT_TRUE(d.admit(true, 0).admitted);  // starts the sustained-above gate
  sim.runFor(msec(5));                     // < interval (10 ms)
  d.noteSojourn(msec(20));
  EXPECT_TRUE(d.admit(true, 0).admitted);
  EXPECT_EQ(d.shedTotal(), 0u);
}

TEST(Admission, ShedsWritesBeforeReads) {
  // Sustained sojourn between writeTarget (2 ms) and readTarget (8 ms):
  // writes bounce, reads pass — the degradation ladder's first rung.
  sim::Simulation sim;
  server::Dispatch d(sim, admissionParams());
  d.noteSojourn(msec(5));
  EXPECT_TRUE(d.admit(true, 0).admitted);
  sim.runFor(msec(10));
  d.noteSojourn(msec(5));
  EXPECT_FALSE(d.admit(true, 0).admitted);
  EXPECT_TRUE(d.admit(false, 0).admitted);
  EXPECT_EQ(d.shedWrites(), 1u);
  EXPECT_EQ(d.shedReads(), 0u);
  EXPECT_TRUE(d.underPressure());

  // Past readTarget everything data-plane sheds.
  d.noteSojourn(msec(20));
  EXPECT_FALSE(d.admit(false, 0).admitted);
  EXPECT_EQ(d.shedReads(), 1u);
}

TEST(Admission, PriorityTenantShedsLast) {
  sim::Simulation sim;
  server::DispatchParams dp = admissionParams();
  dp.admission.priorityTenants = {7};
  server::Dispatch d(sim, dp);
  d.noteSojourn(msec(5));
  EXPECT_TRUE(d.admit(true, 0).admitted);
  sim.runFor(msec(10));
  d.noteSojourn(msec(5));
  // 5 ms > writeTarget for the best-effort tenant, but under tenant 7's
  // scaled target (2 ms x 4 = 8 ms).
  EXPECT_FALSE(d.admit(true, 0).admitted);
  EXPECT_TRUE(d.admit(true, 7).admitted);
}

TEST(Admission, RetryAfterHintTracksLoadAndClamps) {
  sim::Simulation sim;
  server::Dispatch d(sim, admissionParams());
  d.noteSojourn(msec(5));
  (void)d.admit(true, 0);
  sim.runFor(msec(10));
  d.noteSojourn(msec(5));
  const auto shed = d.admit(true, 0);
  ASSERT_FALSE(shed.admitted);
  EXPECT_GE(shed.retryAfter, msec(1));
  EXPECT_LE(shed.retryAfter, msec(50));
  EXPECT_NEAR(static_cast<double>(shed.retryAfter),
              static_cast<double>(msec(5)), static_cast<double>(msec(1)));

  // An absurd estimate clamps to maxRetryAfter.
  d.noteSojourn(seconds(2));
  const auto capped = d.admit(true, 0);
  ASSERT_FALSE(capped.admitted);
  EXPECT_EQ(capped.retryAfter, msec(50));
}

TEST(Admission, EwmaDecaysAndOverloadExits) {
  sim::Simulation sim;
  server::Dispatch d(sim, admissionParams());
  int enters = 0;
  int exits = 0;
  d.onOverloadState = [&](bool on) { on ? ++enters : ++exits; };
  d.noteSojourn(msec(20));
  (void)d.admit(true, 0);
  sim.runFor(msec(10));
  d.noteSojourn(msec(20));
  EXPECT_FALSE(d.admit(true, 0).admitted);
  EXPECT_EQ(enters, 1);
  EXPECT_TRUE(d.underPressure());

  // Quiet for a second: the sojourn EWMA halves per interval, the estimate
  // drops under target, and the next admit() exits overload.
  sim.runFor(seconds(1));
  EXPECT_LE(d.loadEstimate(sim.now()), msec(2));
  EXPECT_TRUE(d.admit(true, 0).admitted);
  EXPECT_FALSE(d.underPressure());
  EXPECT_EQ(exits, 1);
  EXPECT_EQ(d.overloadEnters(), 1u);
}

TEST(Admission, CrashResetsAdmissionState) {
  sim::Simulation sim;
  server::Dispatch d(sim, admissionParams());
  d.noteSojourn(msec(20));
  (void)d.admit(true, 0);
  sim.runFor(msec(10));
  d.noteSojourn(msec(20));
  EXPECT_FALSE(d.admit(true, 0).admitted);
  d.crash();
  EXPECT_FALSE(d.underPressure());
  d.restart();
  EXPECT_TRUE(d.admit(true, 0).admitted);
}

TEST(Admission, ZeroRateQosPolicyCountsEveryRequestAndThrottlesNone) {
  // A QoS policy with ratePerSec 0 leaves its tenant unlimited: every
  // request counts as offered and admitted, none is throttled, no episode
  // starts. A rated policy with the same one-token burst, offered the same
  // instant's requests, is throttled after its first.
  sim::Simulation sim;
  server::DispatchParams dp;
  dp.admission.enabled = false;
  server::Dispatch d(sim, dp);
  server::QosParams qos;
  qos.enabled = true;
  server::QosTenantPolicy open;
  open.name = "open";
  open.tags = {3, 4};
  open.ratePerSec = 0;
  open.burst = 1;
  server::QosTenantPolicy rated = open;
  rated.name = "rated";
  rated.tags = {5};
  rated.ratePerSec = 10;
  qos.tenants = {open, rated};
  d.configureQos(qos);
  std::vector<std::string> episodes;
  d.onQosEpisode = [&](const std::string& name) { episodes.push_back(name); };

  for (int i = 0; i < 1'000; ++i) {
    EXPECT_TRUE(d.admit(i % 2 == 0, 3 + i % 2).admitted) << i;
    (void)d.admit(true, 5);
  }
  ASSERT_EQ(d.qosSlotCount(), 2u);
  const server::Dispatch::QosSlot& s = d.qosSlot(0);
  EXPECT_EQ(s.name, "open");
  EXPECT_EQ(s.offered, 1'000u);
  EXPECT_EQ(s.admitted, 1'000u);
  EXPECT_EQ(s.throttled, 0u);
  EXPECT_EQ(s.episodes, 0u);
  const server::Dispatch::QosSlot& r = d.qosSlot(1);
  EXPECT_EQ(r.offered, 1'000u);
  EXPECT_EQ(r.admitted, 1u);
  EXPECT_EQ(r.throttled, 999u);
  EXPECT_EQ(episodes, std::vector<std::string>{"rated"});
}

// ----------------------------------------------------- shared backoff policy

TEST(Backoff, ServerAliasIsTheSharedPolicy) {
  // Satellite: client and server share one jittered-backoff header; the
  // old server::Backoff is now an alias of sim::Backoff.
  static_assert(std::is_same_v<server::Backoff, sim::Backoff>,
                "server::Backoff must alias the shared sim::Backoff");
  SUCCEED();
}

TEST(Backoff, DelayIsJitteredDeterministicAndCapped) {
  const sim::Backoff b{msec(1), msec(200)};
  for (int attempt = 0; attempt < 12; ++attempt) {
    const sim::Duration target =
        std::min<sim::Duration>(msec(200), msec(1) << std::min(attempt, 20));
    const sim::Duration d1 = b.delay(attempt, /*salt=*/0xABCD);
    const sim::Duration d2 = b.delay(attempt, /*salt=*/0xABCD);
    EXPECT_EQ(d1, d2) << "same (attempt, salt) must replay identically";
    EXPECT_GE(d1, target / 2);
    EXPECT_LT(d1, target);
  }
  // Different salts de-synchronize: across many salts the delays spread.
  std::vector<sim::Duration> delays;
  for (std::uint64_t s = 0; s < 32; ++s) delays.push_back(b.delay(4, s));
  std::sort(delays.begin(), delays.end());
  EXPECT_GT(delays.back() - delays.front(), msec(1));
}

// --------------------------------------------------------- kLoadSurge fault

TEST(LoadSurge, SurgesEveryClientForTheWindow) {
  core::ClusterParams p;
  p.servers = 3;
  p.clients = 2;
  p.replicationFactor = 2;
  p.seed = 11;
  core::Cluster c(p);
  const auto table = c.createTable("surge");
  c.bulkLoad(table, 1'000, 128);
  c.configureYcsb(table, ycsb::WorkloadSpec::B(1'000),
                  ycsb::YcsbClientParams{});
  c.startYcsb();

  fault::FaultPlan plan;
  plan.loadSurge(msec(500), /*clientIdx=*/-1, /*factor=*/3.0, seconds(1));
  fault::FaultInjector injector(c, plan, c.sim().rng().fork(0x50463));
  injector.arm();

  c.sim().runFor(msec(700));  // inside the surge window
  for (int i = 0; i < c.clientCount(); ++i) {
    EXPECT_TRUE(c.clientHost(i).ycsb->surging()) << "client " << i;
  }
  EXPECT_EQ(c.journal().spansNamed("fault_load_surge").size(),
            static_cast<std::size_t>(c.clientCount()));

  c.sim().runFor(seconds(1));  // past surgeUntil
  for (int i = 0; i < c.clientCount(); ++i) {
    EXPECT_FALSE(c.clientHost(i).ycsb->surging()) << "client " << i;
  }
  c.stopYcsb();
}

// ------------------------------------------------------- overload scenarios

// Scenario geometry: a deliberately small cluster (1 worker thread, slow
// service times) so a modest client fleet can push it past saturation, and
// a short op timeout so the undefended variant exhibits the timeout-retry
// amplification loop. Offered load: 72 clients at ~24.8 ms/op baseline
// (~2.9 Kop/s, roughly half of capacity), surging 10x past saturation.
//
// The op timeout sits between the baseline queueing delay (~2 ms) and the
// saturated queueing delay (~12 ms by Little's law: 72 clients / ~6 Kop/s).
// Defended, admission keeps sojourn under the (tightened) targets and ops
// finish inside the timeout; undefended, most saturated ops time out and
// every timeout re-issues work the servers are still executing — the
// metastable loop that holds goodput down.
constexpr int kStormServers = 3;
constexpr int kStormClients = 72;
constexpr std::uint64_t kStormRecords = 2'000;
constexpr sim::Duration kStormOpTimeout = msec(6);

struct StormOptions {
  std::uint64_t seed = 101;
  bool defenses = true;        ///< admission control + retry budgets
  bool hotKey = false;         ///< surge only clients pinned to one owner
  bool slowBackup = false;     ///< slow one replica's network in the surge
  std::string exportDir;
};

struct StormResult {
  double baselineGoodput = 0;  ///< successful ops/s before the surge
  double surgeGoodput = 0;     ///< successful ops/s during the surge
  double postGoodput = 0;      ///< successful ops/s after the surge ends
  double p99BaselineUs = 0;
  double p99SurgeUs = 0;
  std::uint64_t shedTotal = 0;
  std::uint64_t shedHot = 0;      ///< sheds on the hot-key owner
  std::uint64_t shedColdMax = 0;  ///< max sheds across the other servers
  std::uint64_t bounces = 0;
  std::uint64_t budgetWaits = 0;
  std::uint64_t giveUps = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failures = 0;
  std::uint64_t brownouts = 0;
  int overloadEnterEvents = 0;
  int readbackFailures = 0;
};

double p99Us(std::vector<sim::Duration>& v) {
  if (v.empty()) return 0;
  std::size_t k = (v.size() * 99) / 100;
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return sim::toMicros(v[static_cast<std::ptrdiff_t>(k)]);
}

StormResult runStorm(const StormOptions& o) {
  core::ClusterParams p;
  p.servers = kStormServers;
  p.clients = kStormClients;
  p.replicationFactor = 3;
  p.seed = o.seed;
  // Shrink per-node capacity so the storm saturates a 3-node cluster with
  // tens (not thousands) of closed-loop clients.
  p.serverNode.cpu.workerThreads = 1;
  p.master.readServiceTime = usec(300);
  p.master.writeAppendCpu = usec(400);
  // Short timeout: queueing past ~6 ms turns into client re-issues — the
  // fuel of the metastable feedback loop the admission gate breaks. The
  // admission targets are tightened to keep admitted RTTs inside it.
  p.client.opTimeout = kStormOpTimeout;
  p.dispatch.admission.writeTarget = msec(1);
  p.dispatch.admission.readTarget = msec(4);
  // A bounced closed-loop client contributes nothing while it waits, so cap
  // both the server hint and the client's bounce backoff well under their
  // 50/200 ms defaults, and let ops ride out more bounces instead of giving
  // up: rejected clients re-offer soon enough to keep the pipeline full.
  p.dispatch.admission.maxRetryAfter = msec(10);
  p.client.overloadBackoff = sim::Backoff{msec(2), msec(10)};
  p.client.retryBackoff = sim::Backoff{msec(1), msec(10)};
  p.client.maxRetries = 10;
  if (!o.defenses) {
    p.dispatch.admission.enabled = false;
    p.client.retryBudgetPerSec = 0;
  }
  if (o.slowBackup) {
    // A tight per-client retry budget: the degraded replica multiplies
    // retries, and the budget is what visibly meters them.
    p.client.retryBudgetPerSec = o.defenses ? 25.0 : 0.0;
    p.client.retryBudgetBurst = 5.0;
  }
  core::Cluster c(p);
  const auto table = c.createTable("storm");
  c.bulkLoad(table, kStormRecords, 128);

  // Hot-key variant: a quarter of the fleet only touches keys owned by one
  // master, so only that node should shed.
  const int hotClients = kStormClients / 4;
  const auto hotOwner = c.ownerOfKey(table, 1);
  ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::A(kStormRecords);
  spec.valueBytes = 128;
  ycsb::YcsbClientParams ycp;
  ycp.clientOverheadPerOp = msec(24);
  c.configureYcsb(table, spec, ycp,
                  [&](int i, ycsb::YcsbClientParams& cp) {
                    if (o.hotKey && i < hotClients) {
                      cp.keyPredicate = [&c, table,
                                         hotOwner](std::uint64_t k) {
                        return c.ownerOfKey(table, k) == hotOwner;
                      };
                    }
                  });

  std::vector<sim::Duration> baseLat, surgeLat;
  std::vector<sim::Duration>* sink = nullptr;
  for (int i = 0; i < c.clientCount(); ++i) {
    c.clientHost(i).ycsb->onOpComplete =
        [&sink](sim::SimTime, sim::Duration l, bool) {
          if (sink != nullptr) sink->push_back(l);
        };
  }

  fault::FaultPlan plan;
  if (o.hotKey) {
    for (int i = 0; i < hotClients; ++i) {
      plan.loadSurge(seconds(2), i, /*factor=*/10.0, msec(1500));
    }
  } else {
    plan.loadSurge(seconds(2), /*clientIdx=*/-1, /*factor=*/10.0, msec(1500));
  }
  if (o.slowBackup) {
    // Gray failure on one replica: every RPC to/from node 1 — client ops
    // and, crucially, replication from the other masters to its backup —
    // picks up extra wire latency for the storm window.
    fault::FaultEvent slow;
    slow.kind = fault::FaultKind::kNetworkDelay;
    slow.trigger.at = seconds(2);
    slow.server = 1;
    slow.extraLatency = usec(250);
    slow.duration = msec(1500);
    slow.tag = "slow-backup";
    plan.events.push_back(std::move(slow));
  }
  fault::FaultInjector injector(c, plan, c.sim().rng().fork(0x0E21));
  injector.arm();

  c.startYcsb();
  c.sim().runFor(msec(500));  // warmup, unmeasured

  auto goodOps = [&c] {
    std::uint64_t ok = 0;
    for (int i = 0; i < c.clientCount(); ++i) {
      const auto& s = c.clientHost(i).ycsb->stats();
      ok += s.opsCompleted - s.failures;
    }
    return ok;
  };

  const std::uint64_t g0 = goodOps();
  sink = &baseLat;
  c.sim().runFor(msec(1500));  // baseline [0.5 s, 2.0 s)
  const std::uint64_t g1 = goodOps();
  sink = &surgeLat;
  c.sim().runFor(msec(1500));  // surge [2.0 s, 3.5 s)
  const std::uint64_t g2 = goodOps();
  sink = nullptr;
  c.sim().runFor(msec(1000));  // post-surge [3.5 s, 4.5 s)
  const std::uint64_t g3 = goodOps();

  c.stopYcsb();
  c.sim().runFor(seconds(1));  // drain trailing retries

  StormResult r;
  r.baselineGoodput = static_cast<double>(g1 - g0) / 1.5;
  r.surgeGoodput = static_cast<double>(g2 - g1) / 1.5;
  r.postGoodput = static_cast<double>(g3 - g2) / 1.0;
  r.p99BaselineUs = p99Us(baseLat);
  r.p99SurgeUs = p99Us(surgeLat);
  for (int i = 0; i < c.serverCount(); ++i) {
    const std::uint64_t shed = c.server(i).dispatch->shedTotal();
    r.shedTotal += shed;
    if (c.serverNodeId(i) == hotOwner) {
      r.shedHot = shed;
    } else {
      r.shedColdMax = std::max(r.shedColdMax, shed);
    }
  }
  for (int i = 0; i < c.clientCount(); ++i) {
    const auto& s = c.clientHost(i).rc->stats();
    r.bounces += s.overloadedBounces;
    r.budgetWaits += s.retryBudgetWaits;
    r.giveUps += s.overloadedGiveUps;
    r.timeouts += s.rpcTimeouts;
    const auto& y = c.clientHost(i).ycsb->stats();
    r.failures += y.failures;
  }
  r.brownouts = c.sloTracker().brownoutEngagements();
  r.overloadEnterEvents =
      static_cast<int>(c.journal().spansNamed("overload_enter").size());

  // Acked-write safety: every bulk-loaded key must still read back. The
  // storm sheds requests, never data.
  int pending = 0;
  int fails = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    ++pending;
    c.clientHost(0).rc->read(table, (k * 31) % kStormRecords,
                             [&](net::Status s, sim::Duration) {
                               --pending;
                               if (s != net::Status::kOk) ++fails;
                             });
  }
  for (int i = 0; i < 100 && pending > 0; ++i) c.sim().runFor(msec(100));
  r.readbackFailures = fails + pending;

  if (!o.exportDir.empty()) {
    EXPECT_TRUE(c.exportMetrics(o.exportDir));
  }
  if (std::getenv("OVERLOAD_DEBUG") != nullptr) {
    std::printf(
        "storm seed=%llu defenses=%d hot=%d slow=%d: goodput %.0f/%.0f/%.0f "
        "p99 %.0f/%.0fus shed=%llu (hot=%llu coldMax=%llu) bounces=%llu "
        "budgetWaits=%llu giveUps=%llu timeouts=%llu failures=%llu "
        "brownouts=%llu enters=%d readbackFail=%d\n",
        (unsigned long long)o.seed, o.defenses, o.hotKey, o.slowBackup,
        r.baselineGoodput, r.surgeGoodput, r.postGoodput, r.p99BaselineUs,
        r.p99SurgeUs, (unsigned long long)r.shedTotal,
        (unsigned long long)r.shedHot, (unsigned long long)r.shedColdMax,
        (unsigned long long)r.bounces, (unsigned long long)r.budgetWaits,
        (unsigned long long)r.giveUps, (unsigned long long)r.timeouts,
        (unsigned long long)r.failures, (unsigned long long)r.brownouts,
        r.overloadEnterEvents, r.readbackFailures);
  }
  return r;
}

void expectNoCollapse(const StormResult& r) {
  // Admission engaged and was visible end to end: servers shed, clients
  // bounced, the brownout rung fired.
  EXPECT_GT(r.shedTotal, 0u);
  EXPECT_GT(r.bounces, 0u);
  EXPECT_GE(r.overloadEnterEvents, 1);
  EXPECT_GE(r.brownouts, 1u);
  // The no-collapse invariant: goodput under ~3x capacity holds >= 80% of
  // the pre-surge level, and recovers after the surge.
  EXPECT_GE(r.surgeGoodput, 0.8 * r.baselineGoodput);
  EXPECT_GE(r.postGoodput, 0.8 * r.baselineGoodput);
  // p99 stays bounded even at the height of the storm: the worst op rides
  // out ~10 bounce-waits of <= 10 ms each before landing — shed-and-retry
  // with a deterministic ceiling, not queue-forever (the undefended run's
  // tail is several times longer).
  EXPECT_LT(r.p99SurgeUs, sim::toMicros(msec(120)));
  // Nothing acked was lost.
  EXPECT_EQ(r.readbackFailures, 0);
}

class OverloadSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverloadSeed, FlashCrowdDoesNotCollapse) {
  StormOptions o;
  o.seed = GetParam();
  expectNoCollapse(runStorm(o));
}

INSTANTIATE_TEST_SUITE_P(Matrix, OverloadSeed,
                         ::testing::Values(101ull, 202ull, 303ull));

TEST(Overload, HotKeyStormShedsOnlyTheHotServer) {
  StormOptions o;
  o.seed = 101;
  o.hotKey = true;
  const StormResult r = runStorm(o);
  // The surged quarter of the fleet hammers one owner: that node sheds,
  // the cold nodes stay comfortably under their targets.
  EXPECT_GT(r.shedHot, 0u);
  EXPECT_LT(r.shedColdMax, r.shedHot / 4 + 1);
  // Cold traffic keeps flowing. The bar is a notch below the flash-crowd
  // invariant: unsurged clients still route 1/3 of their ops at the hot
  // node and pay bounce-waits there, but the cluster stays productive.
  EXPECT_GE(r.surgeGoodput, 0.7 * r.baselineGoodput);
  EXPECT_GE(r.postGoodput, 0.8 * r.baselineGoodput);
  EXPECT_EQ(r.readbackFailures, 0);
}

TEST(Overload, RetryStormWithSlowBackupStaysStable) {
  // Compound fault: the flash crowd lands while one replica's network is
  // degraded, so every write's replication leg is stretched and timeouts
  // multiply retries — the classic retry-storm trigger. Capacity is
  // legitimately reduced (the slow node drags the whole write path), so
  // the bar is stability, not full throughput: forward progress through
  // the storm, the retry budget visibly metering the amplification, and a
  // clean snap back to baseline once the fault lifts.
  StormOptions o;
  o.seed = 202;
  o.slowBackup = true;
  const StormResult r = runStorm(o);
  EXPECT_GT(r.shedTotal, 0u);
  EXPECT_GT(r.bounces, 0u);
  EXPECT_GE(r.overloadEnterEvents, 1);
  // The tight per-client budget ran dry and delayed retries — the meter
  // that caps the storm's amplification.
  EXPECT_GT(r.budgetWaits, 0u);
  // Degraded but live: goodput never collapses toward zero...
  EXPECT_GE(r.surgeGoodput, 0.3 * r.baselineGoodput);
  // ...ops give up rarely instead of en masse...
  EXPECT_LT(r.failures, 100u);
  // ...and the system recovers completely after the window.
  EXPECT_GE(r.postGoodput, 0.8 * r.baselineGoodput);
  EXPECT_EQ(r.readbackFailures, 0);
}

TEST(Overload, FlashCrowdReplaysBitIdentical) {
  const std::string dirA = ::testing::TempDir() + "overload_replay_a";
  const std::string dirB = ::testing::TempDir() + "overload_replay_b";
  StormOptions o;
  o.seed = 101;
  o.exportDir = dirA;
  const StormResult a = runStorm(o);
  o.exportDir = dirB;
  const StormResult b = runStorm(o);
  expectNoCollapse(a);
  expectNoCollapse(b);

  auto slurp = [](const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
  };
  const std::string metricsA = slurp(dirA + "/metrics.jsonl");
  ASSERT_FALSE(metricsA.empty());
  EXPECT_EQ(metricsA, slurp(dirB + "/metrics.jsonl"));
  const std::string eventsA = slurp(dirA + "/events.jsonl");
  ASSERT_FALSE(eventsA.empty());
  EXPECT_EQ(eventsA, slurp(dirB + "/events.jsonl"));
}

// The anti-metastability regression fixture: the same flash crowd with
// every defense off. Queueing pushes latency past the op timeout, each
// timeout re-issues work the servers are still executing, and the
// amplification holds goodput down — demonstrably worse than the defended
// run on the same seed. If this fixture ever stops collapsing, the storm
// no longer exercises the defenses and must be re-tuned.
TEST(Overload, CollapseWithoutDefensesRegressionFixture) {
  StormOptions defended;
  defended.seed = 303;
  const StormResult with = runStorm(defended);

  StormOptions exposed = defended;
  exposed.defenses = false;
  const StormResult without = runStorm(exposed);

  // No admission control: nothing sheds, nobody bounces.
  EXPECT_EQ(without.shedTotal, 0u);
  EXPECT_EQ(without.bounces, 0u);
  // The timeout-retry loop engages: at least twice the re-issues of the
  // defended run (which still absorbs some write-path timeouts — the write
  // RTT includes the replication leg the admission gate cannot see).
  EXPECT_GT(without.timeouts, 2 * with.timeouts);
  // ...and goodput degrades through the surge where the defended run held.
  EXPECT_LT(without.surgeGoodput, 0.8 * without.baselineGoodput);
  EXPECT_LT(without.surgeGoodput, with.surgeGoodput);
}

}  // namespace
}  // namespace rc
