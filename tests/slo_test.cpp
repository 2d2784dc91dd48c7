// Tail-latency attribution tests (docs/SLO.md): windowed quantiles and
// burn rates, exemplar capture, flight-recorder arming, abandonSpan
// forensics and end-to-end determinism of slo.jsonl.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/jsonl.hpp"
#include "obs/slo_tracker.hpp"
#include "obs/time_trace.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "ycsb/workload.hpp"
#include "ycsb/ycsb_client.hpp"

using namespace rc;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

}  // namespace

// ----- SloTracker unit behaviour --------------------------------------------

TEST(SloTracker, WindowedQuantilesMatchReferenceDigest) {
  sim::Simulation sim;
  obs::SloTracker slo(sim);
  const int cls = slo.declareClass("t/read", obs::SloTarget{sim::msec(10), 0});

  // Same stream into the tracker (spread over 3 nodes) and into a
  // reference digest: the class-level window must merge the per-node
  // streams without loss.
  sim::LatencyDigest ref;
  for (int i = 1; i <= 900; ++i) {
    const sim::Duration v = sim::usec(i);
    ref.add(v);
    slo.record(cls, /*node=*/i % 3, /*span=*/static_cast<std::uint64_t>(i), v,
               nullptr);
  }
  slo.finish();

  ASSERT_EQ(slo.rows().size(), 1u);
  const auto& row = slo.rows()[0];
  EXPECT_EQ(row.count, 900u);
  EXPECT_EQ(row.p50, ref.percentile(0.5));
  EXPECT_EQ(row.p99, ref.percentile(0.99));
  EXPECT_EQ(row.p999, ref.percentile(0.999));

  // Per-node digests partition the stream: counts sum to the class count.
  ASSERT_EQ(row.perNode.size(), 3u);
  std::uint64_t nodeSum = 0;
  for (const auto& nq : row.perNode) nodeSum += nq.count;
  EXPECT_EQ(nodeSum, row.count);
}

TEST(SloTracker, BurnRateAndBreachArithmetic) {
  sim::Simulation sim;
  obs::SloTracker slo(sim);
  // p99 target 100us: budget is 1% of requests over target.
  const int cls =
      slo.declareClass("t/read", obs::SloTarget{sim::usec(100), 0});

  // 98 under target, 2 over -> over-fraction 2% -> burn 2.0 -> breached.
  for (int i = 0; i < 98; ++i) {
    slo.record(cls, 0, 0, sim::usec(50), nullptr);
  }
  slo.record(cls, 0, 0, sim::usec(500), nullptr);
  slo.record(cls, 0, 0, sim::usec(500), nullptr);
  slo.finish();

  ASSERT_EQ(slo.rows().size(), 1u);
  const auto& row = slo.rows()[0];
  EXPECT_EQ(row.overP99, 2u);
  EXPECT_DOUBLE_EQ(row.burnRate99, 2.0);
  EXPECT_DOUBLE_EQ(row.burnRate, 2.0);
  EXPECT_TRUE(row.breached);
  EXPECT_EQ(slo.breachedWindows(), 1u);
}

TEST(SloTracker, WindowEdgesSplitExactlyAtBoundaries) {
  sim::Simulation sim;
  obs::SloTracker slo(sim);  // 1 s windows aligned to epoch 0
  const int cls = slo.declareClass("t/read", obs::SloTarget{sim::msec(1), 0});

  // Last representable instant of window 0...
  sim.runFor(sim::seconds(1) - 1);
  ASSERT_EQ(slo.windowIndexAt(sim.now()), 0u);
  slo.record(cls, 0, 1, sim::usec(10), nullptr);
  // ...and the first instant of window 1.
  sim.runFor(1);
  ASSERT_EQ(slo.windowIndexAt(sim.now()), 1u);
  slo.record(cls, 0, 2, sim::usec(10), nullptr);
  slo.record(cls, 0, 3, sim::usec(10), nullptr);
  slo.finish();

  ASSERT_EQ(slo.rows().size(), 2u);
  EXPECT_EQ(slo.rows()[0].window, 0u);
  EXPECT_EQ(slo.rows()[0].count, 1u);
  EXPECT_EQ(slo.rows()[1].window, 1u);
  EXPECT_EQ(slo.rows()[1].count, 2u);
}

TEST(SloTracker, LazyRotationSkipsIdleWindows) {
  sim::Simulation sim;
  obs::SloTracker slo(sim);
  const int cls = slo.declareClass("t/read", obs::SloTarget{sim::msec(1), 0});

  slo.record(cls, 0, 1, sim::usec(10), nullptr);
  sim.runFor(sim::seconds(5));
  slo.record(cls, 0, 2, sim::usec(10), nullptr);
  slo.finish();

  // Windows 1..4 saw no traffic and cost nothing: only 0 and 5 emit rows.
  ASSERT_EQ(slo.rows().size(), 2u);
  EXPECT_EQ(slo.rows()[0].window, 0u);
  EXPECT_EQ(slo.rows()[1].window, 5u);
}

TEST(SloTracker, ExemplarsKeepSlowestRequestsWithStages) {
  sim::Simulation sim;
  obs::SloTracker slo(sim, sim::seconds(1), /*exemplarsPerWindow=*/2);
  const int cls = slo.declareClass("t/read", obs::SloTarget{sim::usec(50), 0});

  obs::TimeTrace::SpanDetail detail;
  detail.total = sim::usec(400);
  detail.numStages = 2;
  detail.stages[0] =
      obs::TimeTrace::StageRec{obs::TimeTrace::Stage::kNetworkRequest,
                               sim::usec(100), 3, 1};
  detail.stages[1] =
      obs::TimeTrace::StageRec{obs::TimeTrace::Stage::kWorkerService,
                               sim::usec(300), -1, 1};

  for (int i = 1; i <= 10; ++i) {
    slo.record(cls, 0, static_cast<std::uint64_t>(i), sim::usec(10 * i),
               i == 7 ? &detail : nullptr);
  }
  slo.finish();

  ASSERT_EQ(slo.rows().size(), 1u);
  const auto& ex = slo.rows()[0].exemplars;
  ASSERT_EQ(ex.size(), 2u);  // k = 2: the two slowest survive
  EXPECT_EQ(ex[0].span, 10u);
  EXPECT_EQ(ex[0].latency, sim::usec(100));
  EXPECT_EQ(ex[1].span, 9u);
  // The span that carried a SpanDetail was evicted by slower requests; the
  // retained ones carry whatever detail they were recorded with.
  EXPECT_EQ(ex[0].detail.numStages, 0);
}

TEST(SloTracker, UnknownAndNegativeClassIdsAreNoops) {
  sim::Simulation sim;
  obs::SloTracker slo(sim);
  EXPECT_EQ(slo.classId("nope"), -1);
  slo.record(-1, 0, 0, sim::usec(10), nullptr);  // must not crash
  slo.finish();
  EXPECT_EQ(slo.rows().size(), 0u);
  EXPECT_FALSE(slo.enabled());
}

// ----- abandonSpan forensics ------------------------------------------------

TEST(FlightRecorder, AbandonSpanFlushesRetainedStampsToRing) {
  sim::Simulation sim;
  obs::TimeTrace trace(sim);

  const std::uint64_t span = trace.beginSpan(/*tenant=*/5);
  sim.runFor(sim::usec(10));
  trace.stamp(span, obs::TimeTrace::Stage::kNetworkRequest, /*queueDepth=*/3,
              /*node=*/2);
  sim.runFor(sim::usec(20));
  trace.stamp(span, obs::TimeTrace::Stage::kDispatchWait, /*queueDepth=*/7,
              /*node=*/2);
  trace.abandonSpan(span);

  // Two live stamps + the same two re-emitted as abandoned forensics.
  const auto entries = trace.entries();
  ASSERT_EQ(entries.size(), 4u);
  int abandonedCount = 0;
  for (const auto& e : entries) {
    EXPECT_EQ(e.span, span);
    EXPECT_EQ(e.tenant, 5);
    if (e.abandoned) ++abandonedCount;
  }
  EXPECT_EQ(abandonedCount, 2);
  // The re-emission preserves per-stage queue depths and elapsed charges.
  EXPECT_EQ(entries[2].queueDepth, 3);
  EXPECT_EQ(entries[2].elapsed, sim::usec(10));
  EXPECT_EQ(entries[3].queueDepth, 7);
  EXPECT_EQ(entries[3].elapsed, sim::usec(20));
  // Forensic flush must not count as a completed span.
  EXPECT_EQ(trace.spansCompleted(), 0u);
}

TEST(FlightRecorder, RingOverwritesOldestAndNeverAllocates) {
  sim::Simulation sim;
  obs::TimeTrace trace(sim);
  constexpr std::uint64_t kCap = obs::TimeTrace::kRingCapacity;
  for (std::uint64_t i = 1; i <= kCap + 6; ++i) {
    trace.endSpan(trace.beginSpan());  // one kTotal entry per span
  }
  const auto entries = trace.entries();
  ASSERT_EQ(entries.size(), kCap);
  EXPECT_EQ(entries.front().span, 7u);  // oldest retained
  EXPECT_EQ(entries.back().span, kCap + 6);
  EXPECT_EQ(trace.recorded(), kCap + 6);
  EXPECT_FALSE(trace.triggered());
}

// ----- cluster end-to-end ---------------------------------------------------

namespace {

struct E2eOutcome {
  std::string sloJsonl;
  bool flightTriggered = false;
  std::uint64_t breached = 0;
  std::vector<obs::SloTracker::WindowRow> rows;
};

/// Small YCSB-B cluster with the SLO tracker live; optionally stalls
/// server 1's disk mid-run. Small segments + a small backup buffer pool so
/// a stalled disk genuinely back-pressures replication (closed frames pile
/// up unflushed, the pool fills, write acks gate) instead of hiding behind
/// the default 48 MB of DRAM buffering. Deterministic given (seed, stall).
E2eOutcome runE2e(std::uint64_t seed, bool stall, bool tightTargets) {
  core::ClusterParams p;
  p.servers = 4;
  p.clients = 3;
  p.replicationFactor = 2;
  p.seed = seed;
  p.master.log.segmentBytes = 64 * 1024;
  // Small enough that a 400 ms disk stall overruns the 2x hard limit and
  // gates open-head append acks (client-visible replication stall).
  p.backup.bufferPoolBytes = 128 * 1024;
  core::Cluster c(p);
  // Tight targets sit just above the healthy-cluster tail (so only a fault
  // breaches them); loose ones are far above anything a healthy or faulty
  // short run produces (determinism runs must not arm the recorder).
  if (tightTargets) {
    c.sloTracker().declareClass(
        "acme/read", obs::SloTarget{sim::usec(250), sim::msec(1)});
    c.sloTracker().declareClass(
        "acme/update", obs::SloTarget{sim::msec(2), sim::msec(20)});
  } else {
    c.sloTracker().declareClass(
        "acme/read", obs::SloTarget{sim::msec(50), sim::msec(200)});
    c.sloTracker().declareClass(
        "acme/update", obs::SloTarget{sim::msec(50), sim::msec(200)});
  }

  const auto table = c.createTable("usertable");
  c.bulkLoad(table, 20'000, 256);

  ycsb::YcsbClientParams ycp;
  ycp.tenant = "acme";
  c.configureYcsb(table, ycsb::WorkloadSpec::B(20'000), ycp);

  std::unique_ptr<fault::FaultInjector> injector;
  if (stall) {
    fault::FaultPlan plan;
    plan.diskStall(sim::msec(1200), /*serverIdx=*/1, sim::msec(400));
    injector = std::make_unique<fault::FaultInjector>(
        c, plan, c.sim().rng().fork(0x510));
    injector->arm();
  }

  c.startYcsb();
  c.sim().runFor(sim::seconds(3));
  c.stopYcsb();
  c.sim().runFor(sim::msec(200));

  c.sloTracker().finish();
  E2eOutcome out;
  out.sloJsonl = c.sloTracker().toJsonl();
  out.flightTriggered = c.timeTrace().triggered();
  out.breached = c.sloTracker().breachedWindows();
  out.rows = c.sloTracker().rows();
  return out;
}

}  // namespace

TEST(SloEndToEnd, DiskStallBreachesTenantWindowWithExemplarForensics) {
  const auto out = runE2e(/*seed=*/42, /*stall=*/true, /*tightTargets=*/true);

  // The stall window must blow at least one class budget, and the breach
  // must have armed the flight recorder.
  EXPECT_GT(out.breached, 0u);
  EXPECT_TRUE(out.flightTriggered);

  // The breached window names the stall period and its exemplars
  // decompose: stage durations sum to the span total within 1 us.
  bool sawBreachedWithExemplar = false;
  for (const auto& row : out.rows) {
    if (!row.breached) continue;
    for (const auto& ex : row.exemplars) {
      if (ex.detail.numStages == 0) continue;
      sawBreachedWithExemplar = true;
      sim::Duration sum = 0;
      for (std::uint8_t i = 0; i < ex.detail.numStages; ++i) {
        sum += ex.detail.stages[i].elapsed;
      }
      const sim::Duration diff =
          sum > ex.detail.total ? sum - ex.detail.total : ex.detail.total - sum;
      EXPECT_LE(diff, sim::usec(1))
          << "exemplar span " << ex.span << " stages drift from total";
    }
  }
  EXPECT_TRUE(sawBreachedWithExemplar);
}

TEST(SloEndToEnd, FaultFreeRunsNeverArmTheFlightRecorderAtLooseTargets) {
  // Targets far above anything a healthy 4-server cluster produces: no
  // breach, so the recorder stays passive and flight.jsonl is not written.
  core::ClusterParams p;
  p.servers = 4;
  p.clients = 2;
  p.replicationFactor = 2;
  p.seed = 7;
  core::Cluster c(p);
  c.sloTracker().declareClass("acme/read",
                              obs::SloTarget{sim::seconds(1), 0});
  c.sloTracker().declareClass("acme/update",
                              obs::SloTarget{sim::seconds(1), 0});
  const auto table = c.createTable("usertable");
  c.bulkLoad(table, 10'000, 256);
  ycsb::YcsbClientParams ycp;
  ycp.tenant = "acme";
  c.configureYcsb(table, ycsb::WorkloadSpec::B(10'000), ycp);
  c.startYcsb();
  c.sim().runFor(sim::seconds(2));
  c.stopYcsb();

  EXPECT_FALSE(c.timeTrace().triggered());
  EXPECT_GT(c.sloTracker().recorded(), 0u);

  const std::string dir = ::testing::TempDir() + "slo_fault_free";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(c.exportMetrics(dir));
  EXPECT_TRUE(std::filesystem::exists(dir + "/slo.jsonl"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/flight.jsonl"));
}

TEST(SloEndToEnd, SloJsonlIsByteIdenticalAcrossRepeatedRuns) {
  for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
    const auto a = runE2e(seed, /*stall=*/false, /*tightTargets=*/false);
    const auto b = runE2e(seed, /*stall=*/false, /*tightTargets=*/false);
    EXPECT_FALSE(a.sloJsonl.empty());
    EXPECT_EQ(a.sloJsonl, b.sloJsonl) << "seed " << seed;
    EXPECT_FALSE(a.flightTriggered);
  }
}

TEST(SloEndToEnd, ExportWritesSloJsonlThatRoundTripsByteIdentically) {
  const std::string dirA = ::testing::TempDir() + "slo_export_a";
  const std::string dirB = ::testing::TempDir() + "slo_export_b";
  std::filesystem::remove_all(dirA);
  std::filesystem::remove_all(dirB);
  for (const std::string& dir : {dirA, dirB}) {
    core::ClusterParams p;
    p.servers = 3;
    p.clients = 2;
    p.replicationFactor = 2;
    p.seed = 11;
    core::Cluster c(p);
    c.sloTracker().declareClass("acme/read",
                                obs::SloTarget{sim::usec(500), 0});
    c.sloTracker().declareClass("acme/update",
                                obs::SloTarget{sim::msec(1), 0});
    const auto table = c.createTable("usertable");
    c.bulkLoad(table, 5'000, 128);
    ycsb::YcsbClientParams ycp;
    ycp.tenant = "acme";
    c.configureYcsb(table, ycsb::WorkloadSpec::B(5'000), ycp);
    c.startYcsb();
    c.sim().runFor(sim::seconds(2));
    c.stopYcsb();
    ASSERT_TRUE(c.exportMetrics(dir));
  }
  const std::string a = slurp(dirA + "/slo.jsonl");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(dirB + "/slo.jsonl"));
}

TEST(SloEndToEnd, ClassNamesWithQuotesAndBackslashesRoundTripInEveryStream) {
  // A tenant name with JSON metacharacters, and a read target no request
  // can meet, so its windows breach and arm the flight dump.
  const std::string tenant = "a\"b\\c";
  core::ClusterParams p;
  p.servers = 3;
  p.clients = 1;
  p.replicationFactor = 1;
  p.seed = 5;
  core::Cluster c(p);
  c.sloTracker().declareClass(tenant + "/read",
                              obs::SloTarget{sim::nsec(1), 0});
  c.sloTracker().declareClass(tenant + "/update",
                              obs::SloTarget{sim::seconds(1), 0});
  const auto table = c.createTable("usertable");
  c.bulkLoad(table, 2'000, 128);
  ycsb::YcsbClientParams ycp;
  ycp.tenant = tenant;
  c.configureYcsb(table, ycsb::WorkloadSpec::B(2'000), ycp);
  c.startYcsb();
  c.sim().runFor(sim::seconds(1));
  c.stopYcsb();
  const std::string dir = ::testing::TempDir() + "slo_escaped_names";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(c.exportMetrics(dir));

  // Every "class" (or trigger "reason") field of `file` whose line has
  // `type`, read back through the JSONL reader.
  auto fields = [&](const std::string& file, const std::string& type,
                    const std::string& key) {
    std::vector<std::string> out;
    std::ifstream is(dir + "/" + file);
    for (std::string line; std::getline(is, line);) {
      std::string t, v;
      if (obs::jsonString(line, "type", &t) && t == type &&
          obs::jsonString(line, key, &v)) {
        out.push_back(v);
      }
    }
    return out;
  };
  const std::vector<std::string> both = {tenant + "/read",
                                         tenant + "/update"};
  for (const char* type :
       {"slo_window", "slo_node", "exemplar", "exemplar_stage"}) {
    const auto classes = fields("slo.jsonl", type, "class");
    ASSERT_FALSE(classes.empty()) << type;
    for (const auto& cls : classes) {
      EXPECT_TRUE(cls == both[0] || cls == both[1]) << type << ": " << cls;
    }
  }
  EXPECT_EQ(fields("energy.jsonl", "energy_tenant", "class"), both);
  const auto reasons = fields("flight.jsonl", "flight_trigger", "reason");
  ASSERT_FALSE(reasons.empty());
  for (const auto& r : reasons) EXPECT_EQ(r, "slo_breach:" + both[0]);
}

TEST(TimeTrace, FlightJsonlStageRowsSumToSpanTotals) {
  // A fault-armed run (dropped replies, so some spans are abandoned after
  // the server stamped them): in the dumped ring, every span seen from its
  // first stamp to its total decomposes exactly. Rows print microseconds
  // to 3 decimals, i.e. exact integer nanoseconds.
  core::ClusterParams p;
  p.servers = 4;
  p.clients = 4;
  p.replicationFactor = 2;
  p.seed = 9;
  core::Cluster c(p);
  const auto table = c.createTable("usertable");
  c.bulkLoad(table, 5'000, 256);
  c.configureYcsb(table, ycsb::WorkloadSpec::A(5'000),
                  ycsb::YcsbClientParams{});
  fault::FaultPlan plan;
  plan.replyDrop(sim::msec(500), /*serverIdx=*/1, /*probability=*/0.05,
                 sim::msec(500));
  fault::FaultInjector injector(c, plan, c.sim().rng().fork(0xF1));
  injector.arm();
  // Stop issuing when the drops end, then let the unanswered RPCs time
  // out, so their abandoned re-emissions are among the ring's newest rows.
  c.startYcsb();
  c.sim().runFor(sim::seconds(1));
  c.stopYcsb();
  c.sim().runFor(sim::seconds(2));
  const std::string dir = ::testing::TempDir() + "flight_stage_sums";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(c.exportMetrics(dir));

  std::map<std::uint64_t, long long> stageSum;
  std::map<std::uint64_t, long long> total;
  std::set<std::uint64_t> opened;
  std::uint64_t abandonedRows = 0;
  std::ifstream is(dir + "/flight.jsonl");
  for (std::string line; std::getline(is, line);) {
    std::string type, stage;
    double span = 0, us = 0, abandoned = 0;
    ASSERT_TRUE(obs::jsonString(line, "type", &type)) << line;
    if (type != "flight") continue;
    ASSERT_TRUE(obs::jsonString(line, "stage", &stage) &&
                obs::jsonNumber(line, "span", &span) &&
                obs::jsonNumber(line, "us", &us) &&
                obs::jsonNumber(line, "abandoned", &abandoned))
        << line;
    const auto id = static_cast<std::uint64_t>(span);
    const long long ns = std::llround(us * 1000.0);
    if (abandoned != 0) {
      ++abandonedRows;
    } else if (stage == "total") {
      total[id] = ns;
    } else {
      if (stage == "network_request") opened.insert(id);
      stageSum[id] += ns;
    }
  }
  EXPECT_GT(abandonedRows, 0u);
  std::size_t checked = 0;
  for (const auto& [id, t] : total) {
    if (opened.count(id) == 0) continue;  // began before the ring's tail
    EXPECT_EQ(stageSum[id], t) << "span " << id;
    ++checked;
  }
  EXPECT_GT(checked, 1000u);
}
