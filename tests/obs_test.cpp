// Tests for the observability layer: metric registry, per-RPC time trace,
// 1 Hz stats sampler and the JSONL/CSV exporter — plus an end-to-end YCSB
// run checking that the exported series align with the PDU ticks and the
// per-stage RPC histograms are populated.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "obs/metric_registry.hpp"
#include "obs/metrics_exporter.hpp"
#include "obs/stats_sampler.hpp"
#include "obs/time_trace.hpp"
#include "ycsb/workload.hpp"

namespace rc::obs {
namespace {

using sim::msec;
using sim::seconds;
using sim::usec;
using Stage = TimeTrace::Stage;

// ----- MetricRegistry

TEST(MetricRegistry, RegistersAndReadsProbedMetrics) {
  MetricRegistry reg;
  double reads = 3;
  double depth = 7.5;
  sim::Histogram h;
  reg.probeCounter("node1.master.reads", "ops", [&] { return reads; });
  reg.probeGauge("node1.master.dispatch.queue_depth", "items",
                 [&] { return depth; });
  reg.probeHistogram("node1.master.read_service", "us", [&] { return &h; });
  h.add(usec(100));

  EXPECT_TRUE(reg.has("node1.master.reads"));
  EXPECT_FALSE(reg.has("node1.master.writes"));
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_DOUBLE_EQ(reg.value("node1.master.reads"), 3.0);
  EXPECT_DOUBLE_EQ(reg.value("node1.master.dispatch.queue_depth"), 7.5);
  ASSERT_NE(reg.histogramAt("node1.master.read_service"), nullptr);
  EXPECT_EQ(reg.histogramAt("node1.master.read_service")->count(), 1u);
  // value() on a histogram or an unknown name is 0, not a crash.
  EXPECT_DOUBLE_EQ(reg.value("node1.master.read_service"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("no.such.metric"), 0.0);
  EXPECT_EQ(reg.histogramAt("node1.master.reads"), nullptr);

  const MetricInfo* info = reg.info("node1.master.reads");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->kind, MetricKind::kCounter);
  EXPECT_EQ(info->unit, "ops");
}

TEST(MetricRegistry, ReRegisteringANameKeepsOneEntry) {
  MetricRegistry reg;
  double first = 1;
  double second = 2;
  reg.probeCounter("x.ops", "ops", [&] { return first; });
  reg.probeCounter("x.ops", "ops", [&] { return second; });
  EXPECT_EQ(reg.size(), 1u);
  // The later probe is the one read.
  EXPECT_DOUBLE_EQ(reg.value("x.ops"), 2.0);
  second = 5;
  EXPECT_DOUBLE_EQ(reg.value("x.ops"), 5.0);
}

TEST(MetricRegistry, ProbesReadLiveComponentState) {
  MetricRegistry reg;
  std::uint64_t legacyCounter = 0;
  double legacyDepth = 0;
  sim::Histogram latency;
  reg.probeCounter("svc.ops", "ops",
                   [&] { return static_cast<double>(legacyCounter); });
  reg.probeGauge("svc.depth", "items", [&] { return legacyDepth; });
  reg.probeHistogram("svc.latency", "us", [&] { return &latency; });
  EXPECT_DOUBLE_EQ(reg.value("svc.ops"), 0.0);
  ASSERT_NE(reg.histogramAt("svc.latency"), nullptr);
  EXPECT_EQ(reg.histogramAt("svc.latency")->count(), 0u);
  legacyCounter = 42;
  legacyDepth = 3;
  latency.add(usec(100));
  EXPECT_DOUBLE_EQ(reg.value("svc.ops"), 42.0);
  EXPECT_DOUBLE_EQ(reg.value("svc.depth"), 3.0);
  EXPECT_EQ(reg.histogramAt("svc.latency")->count(), 1u);
}

TEST(MetricRegistry, EnumerationIsInsertionOrder) {
  MetricRegistry reg;
  auto constant = [](double v) { return [v] { return v; }; };
  reg.probeCounter("b.second", "ops", constant(1));
  reg.probeGauge("a.first", "items", constant(2));  // sorts first, added later
  reg.probeCounter("c.third", "ops", constant(3));
  // A name registered again keeps its first position.
  reg.probeCounter("b.second", "ops", constant(4));
  std::vector<std::string> names;
  reg.forEach([&](const MetricInfo& i) { names.push_back(i.name); });
  EXPECT_EQ(names,
            (std::vector<std::string>{"b.second", "a.first", "c.third"}));
}

// ----- TimeTrace

TEST(TimeTrace, StageAccountingIsExact) {
  sim::Simulation sim;
  TimeTrace tt(sim);
  std::uint64_t span = 0;
  sim.schedule(0, [&] { span = tt.beginSpan(); });
  sim.schedule(usec(5), [&] { tt.stamp(span, Stage::kNetworkRequest); });
  sim.schedule(usec(12), [&] { tt.stamp(span, Stage::kDispatchWait); });
  sim.schedule(usec(30), [&] { tt.stamp(span, Stage::kWorkerService); });
  sim.schedule(usec(47), [&] { tt.stamp(span, Stage::kReplicationWait); });
  sim.schedule(usec(52), [&] { tt.stamp(span, Stage::kNetworkReply); });
  sim.schedule(usec(52), [&] { tt.endSpan(span); });
  sim.run();

  EXPECT_NE(span, 0u);
  EXPECT_EQ(tt.spansStarted(), 1u);
  EXPECT_EQ(tt.spansCompleted(), 1u);
  EXPECT_EQ(tt.activeSpans(), 0u);
  // Each stage got exactly the wall time between consecutive stamps.
  EXPECT_EQ(tt.stageHistogram(Stage::kNetworkRequest).max(), usec(5));
  EXPECT_EQ(tt.stageHistogram(Stage::kDispatchWait).max(), usec(7));
  EXPECT_EQ(tt.stageHistogram(Stage::kWorkerService).max(), usec(18));
  EXPECT_EQ(tt.stageHistogram(Stage::kReplicationWait).max(), usec(17));
  EXPECT_EQ(tt.stageHistogram(Stage::kNetworkReply).max(), usec(5));
  EXPECT_EQ(tt.stageHistogram(Stage::kTotal).max(), usec(52));
  for (std::size_t i = 0; i < TimeTrace::kNumStages; ++i) {
    EXPECT_EQ(tt.stageHistogram(static_cast<Stage>(i)).count(), 1u);
  }
}

TEST(TimeTrace, UnknownOrEndedSpanIsNoOp) {
  sim::Simulation sim;
  TimeTrace tt(sim);
  tt.stamp(999, Stage::kDispatchWait);  // never started
  tt.endSpan(999);
  const std::uint64_t span = tt.beginSpan();
  tt.endSpan(span);
  tt.stamp(span, Stage::kWorkerService);  // late stamp after end (timeout)
  tt.endSpan(span);                       // double end
  EXPECT_EQ(tt.spansStarted(), 1u);
  EXPECT_EQ(tt.spansCompleted(), 1u);
  EXPECT_EQ(tt.stageHistogram(Stage::kDispatchWait).count(), 0u);
  EXPECT_EQ(tt.stageHistogram(Stage::kWorkerService).count(), 0u);
  EXPECT_EQ(tt.stageHistogram(Stage::kTotal).count(), 1u);
}

TEST(TimeTrace, RingKeepsMostRecentEventsOldestFirst) {
  sim::Simulation sim;
  TimeTrace tt(sim);
  // Every write in order: stamps, span totals and abandoned re-emissions.
  struct Written {
    std::uint64_t span;
    Stage stage;
    bool abandoned;
  };
  std::vector<Written> written;
  const std::size_t target = TimeTrace::kRingCapacity + 1000;
  for (std::size_t i = 0; written.size() < target; ++i) {
    const std::uint64_t s = tt.beginSpan();
    tt.stamp(s, Stage::kNetworkRequest);
    written.push_back({s, Stage::kNetworkRequest, false});
    tt.stamp(s, Stage::kDispatchWait);
    written.push_back({s, Stage::kDispatchWait, false});
    if (i % 3 == 0) {
      tt.abandonSpan(s);
      written.push_back({s, Stage::kNetworkRequest, true});
      written.push_back({s, Stage::kDispatchWait, true});
    } else {
      tt.endSpan(s);
      written.push_back({s, Stage::kTotal, false});
    }
  }
  EXPECT_EQ(tt.recorded(), written.size());
  const auto entries = tt.entries();
  ASSERT_EQ(entries.size(), TimeTrace::kRingCapacity);
  // The last kRingCapacity writes survive, oldest first.
  const std::size_t first = written.size() - TimeTrace::kRingCapacity;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Written& w = written[first + i];
    ASSERT_EQ(entries[i].span, w.span) << i;
    ASSERT_EQ(entries[i].stage, w.stage) << i;
    ASSERT_EQ(entries[i].abandoned, w.abandoned) << i;
  }
}

TEST(TimeTrace, SpanOutlivingThousandsOfNewerOnesStaysIntact) {
  sim::Simulation sim;
  TimeTrace tt(sim);
  const std::uint64_t old = tt.beginSpan(/*tenant=*/7);
  // Far more concurrently active spans than the direct-mapped table holds,
  // so some (the old one included) must live in the overflow map.
  std::vector<std::uint64_t> open;
  for (int i = 0; i < 5000; ++i) open.push_back(tt.beginSpan());
  EXPECT_EQ(tt.activeSpans(), 5001u);
  sim.runUntil(usec(3));
  tt.stamp(old, Stage::kDispatchWait, /*queueDepth=*/4, /*node=*/2);
  for (const std::uint64_t s : open) {
    ASSERT_TRUE(tt.spanActive(s)) << s;
    tt.stamp(s, Stage::kNetworkRequest);
  }
  sim.runUntil(usec(10));
  TimeTrace::SpanDetail d;
  tt.endSpan(old, &d);
  EXPECT_FALSE(tt.spanActive(old));
  EXPECT_EQ(d.total, usec(10));
  EXPECT_EQ(d.tenant, 7);
  ASSERT_EQ(d.numStages, 1);
  EXPECT_EQ(d.stages[0].stage, Stage::kDispatchWait);
  EXPECT_EQ(d.stages[0].elapsed, usec(3));
  EXPECT_EQ(d.stages[0].queueDepth, 4);
  EXPECT_EQ(d.stages[0].node, 2);
  for (auto it = open.rbegin(); it != open.rend(); ++it) tt.endSpan(*it);
  EXPECT_EQ(tt.activeSpans(), 0u);
  EXPECT_EQ(tt.spansCompleted(), 5001u);
  EXPECT_EQ(tt.stageHistogram(Stage::kNetworkRequest).count(), 5000u);
  EXPECT_EQ(tt.stageHistogram(Stage::kTotal).count(), 5001u);
}

TEST(TimeTrace, RegisterMetricsExposesStagesAndCounts) {
  sim::Simulation sim;
  TimeTrace tt(sim);
  MetricRegistry reg;
  tt.registerMetrics(reg, "cluster.rpc");
  const std::uint64_t span = tt.beginSpan();
  tt.stamp(span, Stage::kDispatchWait);
  EXPECT_TRUE(reg.has("cluster.rpc.stage.dispatch_wait"));
  EXPECT_TRUE(reg.has("cluster.rpc.stage.replication_wait"));
  ASSERT_NE(reg.histogramAt("cluster.rpc.stage.dispatch_wait"), nullptr);
  EXPECT_EQ(reg.histogramAt("cluster.rpc.stage.dispatch_wait")->count(), 1u);
  EXPECT_DOUBLE_EQ(reg.value("cluster.rpc.spans_started"), 1.0);
  EXPECT_DOUBLE_EQ(reg.value("cluster.rpc.spans_completed"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("cluster.rpc.active_spans"), 1.0);
}

// ----- Histogram percentile edges (regression: p0/p100 must stay inside
// the observed [min, max] even for degenerate histograms)

TEST(HistogramPercentiles, OneSampleReportsThatSampleEverywhere) {
  sim::Histogram h;
  h.add(usec(250));
  EXPECT_EQ(h.percentile(0.0), h.percentile(1.0));
  EXPECT_GE(h.percentile(0.0), h.min());
  EXPECT_LE(h.percentile(1.0), h.max());
  const HistogramSummary s = summarizeHistogram(h);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.p50Us, s.p99Us);
  EXPECT_GE(s.p50Us, sim::toMicros(h.min()));
  EXPECT_LE(s.p99Us, s.maxUs);
}

TEST(HistogramPercentiles, AllEqualSamplesCollapseToOneValue) {
  sim::Histogram h;
  for (int i = 0; i < 1000; ++i) h.add(usec(42));
  const HistogramSummary s = summarizeHistogram(h);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.p50Us, s.p90Us);
  EXPECT_DOUBLE_EQ(s.p90Us, s.p99Us);
  EXPECT_LE(s.p99Us, s.maxUs);
  EXPECT_GE(s.p50Us, sim::toMicros(h.min()));
}

TEST(HistogramPercentiles, EmptyHistogramIsAllZero) {
  sim::Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0);
  const HistogramSummary s = summarizeHistogram(h);
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50Us, 0.0);
  EXPECT_DOUBLE_EQ(s.maxUs, 0.0);
}

TEST(HistogramPercentiles, OrderedAcrossQuantiles) {
  sim::Histogram h;
  for (int i = 1; i <= 10'000; ++i) h.add(usec(i));
  double prev = 0;
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double v = sim::toMicros(h.percentile(q));
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_LE(prev, sim::toMicros(h.max()) + 1e-9);
}

// ----- TimeTrace abandonSpan (regression: a client whose RPC times out
// against a crashed node must drop the span without recording a bogus
// total-latency sample)

TEST(TimeTrace, AbandonedSpanLeavesNoSample) {
  sim::Simulation sim;
  TimeTrace tt(sim);
  MetricRegistry reg;
  tt.registerMetrics(reg, "cluster.rpc");

  const std::uint64_t span = tt.beginSpan();
  tt.stamp(span, Stage::kNetworkRequest);
  tt.abandonSpan(span);

  EXPECT_EQ(tt.spansStarted(), 1u);
  EXPECT_EQ(tt.spansCompleted(), 0u);
  EXPECT_EQ(tt.spansAbandoned(), 1u);
  EXPECT_EQ(tt.activeSpans(), 0u);
  // No total-latency sample: the span never completed.
  EXPECT_EQ(tt.stageHistogram(Stage::kTotal).count(), 0u);
  EXPECT_DOUBLE_EQ(reg.value("cluster.rpc.spans_abandoned"), 1.0);

  // Late stamps / ends / double abandon on the dead span are no-ops.
  tt.stamp(span, Stage::kWorkerService);
  tt.endSpan(span);
  tt.abandonSpan(span);
  EXPECT_EQ(tt.spansAbandoned(), 1u);
  EXPECT_EQ(tt.spansCompleted(), 0u);
  EXPECT_EQ(tt.stageHistogram(Stage::kWorkerService).count(), 0u);
}

// ----- EventJournal

TEST(EventJournal, SpanLifecycleAndAttributes) {
  sim::Simulation sim;
  EventJournal j(sim);

  EventJournal::SpanId root = 0;
  EventJournal::SpanId child = 0;
  sim.schedule(0, [&] { root = j.beginSpan("recovery", 0, 0, 7); });
  sim.schedule(msec(1), [&] {
    child = j.beginSpan("replay", 3, root, 7);
    j.addBytes(child, 1000);
    j.addBytes(child, 500);
    j.addCount(child, 25);
  });
  sim.schedule(msec(5), [&] { j.endSpan(child); });
  sim.schedule(msec(9), [&] { j.endSpan(root); });
  sim.run();

  ASSERT_NE(root, 0u);
  ASSERT_NE(child, 0u);
  const auto* c = j.span(child);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->parent, root);
  EXPECT_EQ(c->ctx, 7u);
  EXPECT_EQ(c->node, 3);
  EXPECT_EQ(c->bytes, 1500u);
  EXPECT_EQ(c->count, 25u);
  EXPECT_FALSE(c->open);
  EXPECT_FALSE(c->abandoned);
  EXPECT_EQ(c->duration(), msec(4));
  EXPECT_EQ(j.spansStarted(), 2u);
  EXPECT_EQ(j.spansCompleted(), 2u);
  EXPECT_EQ(j.openSpans(), 0u);
  EXPECT_EQ(j.spansInCtx(7).size(), 2u);
  EXPECT_EQ(j.spansNamed("replay").size(), 1u);
  // Unknown ids are no-ops, double close does not double count.
  j.endSpan(999);
  j.addBytes(999, 1);
  j.endSpan(child);
  EXPECT_EQ(j.spansCompleted(), 2u);
}

TEST(EventJournal, EventIsAClosedZeroDurationSpan) {
  sim::Simulation sim;
  EventJournal j(sim);
  const auto id = j.event("tablet_remap", 0, 0, 1);
  const auto* s = j.span(id);
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->open);
  EXPECT_EQ(s->begin, s->end);
  EXPECT_EQ(j.spansCompleted(), 1u);
}

TEST(EventJournal, LinkSpanReparentsAfterTheFact) {
  sim::Simulation sim;
  EventJournal j(sim);
  // Detection opens before the recovery root exists (real ordering).
  const auto det = j.beginSpan("failure_detection", 0);
  const auto root = j.beginSpan("recovery", 0, 0, 42);
  j.linkSpan(det, root, 42);
  j.endSpan(det);
  j.endSpan(root);
  const auto* d = j.span(det);
  EXPECT_EQ(d->parent, root);
  EXPECT_EQ(d->ctx, 42u);
  j.linkSpan(999, root, 42);  // unknown id: no-op
}

TEST(EventJournal, AbandonNodeClosesOnlyThatNodesOpenSpans) {
  sim::Simulation sim;
  EventJournal j(sim);
  const auto a1 = j.beginSpan("cleaner_pass", 2);
  const auto a2 = j.beginSpan("frame_flush", 2);
  const auto b = j.beginSpan("replay", 3);
  sim.schedule(msec(2), [&] { j.abandonNode(2); });
  sim.run();

  EXPECT_TRUE(j.span(a1)->abandoned);
  EXPECT_TRUE(j.span(a2)->abandoned);
  EXPECT_FALSE(j.span(a1)->open);
  EXPECT_EQ(j.span(a1)->end, msec(2));
  EXPECT_TRUE(j.span(b)->open);
  EXPECT_EQ(j.spansAbandoned(), 2u);
  EXPECT_EQ(j.openSpans(), 1u);
  j.abandonSpan(b);
  EXPECT_EQ(j.spansAbandoned(), 3u);
  EXPECT_EQ(j.openSpans(), 0u);
}

TEST(EventJournal, EnergyProbeAttributesJoulesToClosedSpans) {
  sim::Simulation sim;
  EventJournal j(sim);
  // Linear fake meter: node n has burned 10*n*seconds J at time t, split
  // 60/40 between CPU and DRAM.
  j.setEnergyProbe([&sim](int n) {
    EventJournal::EnergyBreakdown b;
    const double total = 10.0 * n * sim::toSeconds(sim.now());
    b.cpu = 0.6 * total;
    b.dram = 0.4 * total;
    return b;
  });
  EventJournal::SpanId s1 = 0;
  EventJournal::SpanId s2 = 0;
  sim.schedule(0, [&] {
    s1 = j.beginSpan("replay", 1);
    s2 = j.beginSpan("replay", 2);
  });
  sim.schedule(seconds(2), [&] {
    j.endSpan(s1);
    j.abandonSpan(s2);  // abandoned spans still account their energy
  });
  sim.run();
  EXPECT_NEAR(j.span(s1)->joules, 20.0, 1e-9);
  EXPECT_NEAR(j.span(s2)->joules, 40.0, 1e-9);
  EXPECT_NEAR(j.span(s1)->cpuJ, 12.0, 1e-9);
  EXPECT_NEAR(j.span(s1)->dramJ, 8.0, 1e-9);
  EXPECT_NEAR(j.span(s2)->nicJ, 0.0, 1e-9);
  EXPECT_NEAR(j.joulesForPhase("replay"), 60.0, 1e-9);
  EXPECT_NEAR(j.joulesForPhase(""), 60.0, 1e-9);
  EXPECT_DOUBLE_EQ(j.joulesForPhase("no_such_phase"), 0.0);
}

TEST(EventJournal, RegisterMetricsExposesCounters) {
  sim::Simulation sim;
  EventJournal j(sim);
  MetricRegistry reg;
  j.registerMetrics(reg, "cluster.journal");
  const auto s = j.beginSpan("recovery", 0);
  EXPECT_DOUBLE_EQ(reg.value("cluster.journal.spans_started"), 1.0);
  EXPECT_DOUBLE_EQ(reg.value("cluster.journal.open_spans"), 1.0);
  j.endSpan(s);
  EXPECT_DOUBLE_EQ(reg.value("cluster.journal.spans_completed"), 1.0);
  EXPECT_DOUBLE_EQ(reg.value("cluster.journal.open_spans"), 0.0);
}

// ----- StatsSampler

TEST(StatsSampler, CountersBecomeRatesGaugesSampledVerbatim) {
  sim::Simulation sim;
  MetricRegistry reg;
  std::uint64_t ops = 0;
  double depth = 0;
  reg.probeCounter("svc.ops", "ops", [&] { return static_cast<double>(ops); });
  reg.probeGauge("svc.depth", "items", [&] { return depth; });
  // 10 increments per simulated second.
  sim::PeriodicTask gen(sim, msec(100), [&](sim::SimTime now) {
    ++ops;
    depth = sim::toSeconds(now);
  });
  StatsSampler sampler(sim, reg);
  sim.runUntil(seconds(5) + msec(1));
  gen.cancel();

  EXPECT_EQ(sampler.ticks(), 5u);
  const sim::TimeSeries* rate = sampler.find("svc.ops.rate");
  ASSERT_NE(rate, nullptr);
  ASSERT_EQ(rate->size(), 5u);
  double total = 0;
  for (const auto& p : rate->points()) {
    EXPECT_NEAR(p.value, 10.0, 1.5);  // +-1 op on tie-broken window edges
    total += p.value;
  }
  EXPECT_NEAR(total, 50.0, 1.0);  // windows tile: nothing counted twice
  const sim::TimeSeries* d = sampler.find("svc.depth");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->size(), 5u);
  EXPECT_EQ(sampler.find("missing"), nullptr);
}

TEST(StatsSampler, TicksAlignWithOtherOneHertzTasks) {
  sim::Simulation sim;
  MetricRegistry reg;
  reg.probeGauge("g", "items", [] { return 0.0; });
  // A stand-in for the PDU sampler: a PeriodicTask started at the same sim
  // time with the same interval.
  std::vector<sim::SimTime> pduTicks;
  sim::PeriodicTask pdu(sim, seconds(1),
                        [&](sim::SimTime now) { pduTicks.push_back(now); });
  StatsSampler sampler(sim, reg);
  sim.runUntil(seconds(4) + msec(1));
  pdu.cancel();

  const sim::TimeSeries* g = sampler.find("g");
  ASSERT_NE(g, nullptr);
  ASSERT_EQ(g->size(), pduTicks.size());
  for (std::size_t i = 0; i < pduTicks.size(); ++i) {
    EXPECT_EQ(g->points()[i].time, pduTicks[i]);
  }
}

TEST(StatsSampler, PicksUpLateRegisteredMetrics) {
  sim::Simulation sim;
  MetricRegistry reg;
  reg.probeGauge("early", "items", [] { return 0.0; });
  StatsSampler sampler(sim, reg);
  sim.runUntil(seconds(2) + msec(1));
  // e.g. YCSB clients created mid-run
  reg.probeGauge("late", "items", [] { return 9.0; });
  sim.runUntil(seconds(4) + msec(1));

  ASSERT_NE(sampler.find("early"), nullptr);
  EXPECT_EQ(sampler.find("early")->size(), 4u);
  ASSERT_NE(sampler.find("late"), nullptr);
  EXPECT_EQ(sampler.find("late")->size(), 2u);
  EXPECT_DOUBLE_EQ(sampler.find("late")->points().back().value, 9.0);
}

// ----- MetricsExporter

TEST(MetricsExporter, JsonlRoundTrip) {
  sim::Simulation sim;
  MetricRegistry reg;
  sim::Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(usec(i * 10));
  reg.probeCounter("svc.ops", "ops", [] { return 123.0; });
  reg.probeGauge("svc.depth", "items", [] { return 4.5; });
  reg.probeHistogram("svc.latency", "us", [&h] { return &h; });

  StatsSampler sampler(sim, reg);
  sim.runUntil(seconds(3) + msec(1));

  MetricsExporter exp(reg);
  exp.attachSampler(&sampler);

  const std::string dir = ::testing::TempDir() + "/obs_export_roundtrip";
  ASSERT_TRUE(exp.exportRunDir(dir));
  ASSERT_TRUE(std::filesystem::exists(dir + "/metrics.jsonl"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/series.csv"));

  const auto records = MetricsExporter::readJsonl(dir + "/metrics.jsonl");
  ASSERT_FALSE(records.empty());

  auto findRec = [&](const std::string& type,
                     const std::string& name) -> const auto* {
    for (const auto& r : records) {
      if (r.type == type && r.name == name) return &r;
    }
    return static_cast<const MetricsExporter::Record*>(nullptr);
  };

  const auto* ops = findRec("counter", "svc.ops");
  ASSERT_NE(ops, nullptr);
  EXPECT_DOUBLE_EQ(ops->value, 123.0);
  EXPECT_EQ(ops->unit, "ops");

  const auto* depth = findRec("gauge", "svc.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->value, 4.5);

  const auto* lat = findRec("histogram", "svc.latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 100u);
  EXPECT_LE(lat->p50, lat->p99);
  EXPECT_LE(lat->p99, lat->max);
  EXPECT_NEAR(lat->max, 1000.0, 1.0);  // us

  // Sampler series landed as per-tick points with increasing t.
  std::vector<double> tick;
  for (const auto& r : records) {
    if (r.type == "point" && r.name == "svc.ops.rate") tick.push_back(r.t);
  }
  ASSERT_EQ(tick.size(), 3u);
  EXPECT_TRUE(std::is_sorted(tick.begin(), tick.end()));

  // The time-trace ring is dumped to flight.jsonl only, never here.
  for (const auto& r : records) EXPECT_NE(r.type, "trace");

  // series.csv: header + one row per tick, one column per series + time_s.
  std::ifstream csv(dir + "/series.csv");
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_NE(header.find("time_s"), std::string::npos);
  EXPECT_NE(header.find("svc.ops.rate"), std::string::npos);
  EXPECT_NE(header.find("svc.depth"), std::string::npos);
  int rows = 0;
  for (std::string line; std::getline(csv, line);) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 3);
}

// ----- end to end: cluster YCSB run with export

TEST(ObsEndToEnd, YcsbRunProducesAlignedSeriesAndStageHistograms) {
  core::ClusterParams cp;
  cp.servers = 3;
  cp.clients = 2;
  cp.replicationFactor = 1;  // writes must traverse replication
  core::Cluster c(cp);

  const std::uint64_t table = c.createTable("t");
  c.bulkLoad(table, 2000, 100);
  c.startPduSampling();
  c.startStatsSampling();

  ycsb::YcsbClientParams ycp;
  ycp.opsTarget = 0;
  c.configureYcsb(table, ycsb::WorkloadSpec::A(2000), ycp);
  c.startYcsb();
  c.sim().runFor(seconds(4));
  c.stopYcsb();

  // Spans were opened by clients and closed on completion.
  EXPECT_GT(c.timeTrace().spansStarted(), 100u);
  EXPECT_GT(c.timeTrace().spansCompleted(), 100u);

  // The paper-relevant stage split is populated: network, dispatch wait,
  // worker service, and (rf=1) replication wait.
  const auto& tt = c.timeTrace();
  EXPECT_GT(tt.stageHistogram(Stage::kNetworkRequest).count(), 0u);
  EXPECT_GT(tt.stageHistogram(Stage::kDispatchWait).count(), 0u);
  EXPECT_GT(tt.stageHistogram(Stage::kWorkerService).count(), 0u);
  EXPECT_GT(tt.stageHistogram(Stage::kReplicationWait).count(), 0u);
  EXPECT_GT(tt.stageHistogram(Stage::kTotal).count(), 0u);
  EXPECT_GT(tt.stageHistogram(Stage::kTotal).mean(),
            tt.stageHistogram(Stage::kWorkerService).mean());

  // Per-node metrics registered under hierarchical paths.
  auto& reg = c.metrics();
  EXPECT_TRUE(reg.has("node1.master.dispatch.queue_depth"));
  EXPECT_TRUE(reg.has("node1.master.dispatch.backlog_us"));
  EXPECT_TRUE(reg.has("node1.master.reads"));
  EXPECT_TRUE(reg.has("node1.backup.writes_serviced"));
  EXPECT_TRUE(reg.has("node1.cpu.util"));
  EXPECT_TRUE(reg.has("node1.power.watts"));
  EXPECT_TRUE(reg.has("node3.master.dispatch.queue_depth"));
  EXPECT_TRUE(reg.has("cluster.rpc.stage.replication_wait"));
  EXPECT_GT(reg.value("cluster.client.ops"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("cluster.alive_servers"), 3.0);
  // Work actually flowed through the masters and backups.
  double reads = 0, backupWrites = 0;
  for (int n = 1; n <= 3; ++n) {
    reads += reg.value("node" + std::to_string(n) + ".master.reads");
    backupWrites +=
        reg.value("node" + std::to_string(n) + ".backup.writes_serviced");
  }
  EXPECT_GT(reads, 0.0);
  EXPECT_GT(backupWrites, 0.0);

  // Sampler ticks align exactly with the PDU's 1 Hz samples.
  ASSERT_NE(c.sampler(), nullptr);
  const sim::TimeSeries* cpuSeries = c.sampler()->find("node1.cpu.util");
  ASSERT_NE(cpuSeries, nullptr);
  const auto* pdu = c.server(0).node->pdu();
  ASSERT_NE(pdu, nullptr);
  ASSERT_EQ(cpuSeries->size(), pdu->trace().size());
  for (std::size_t i = 0; i < cpuSeries->size(); ++i) {
    EXPECT_EQ(cpuSeries->points()[i].time, pdu->trace().points()[i].time);
  }

  // Export and re-read: the run directory carries the full picture.
  const std::string dir = ::testing::TempDir() + "/obs_e2e_run";
  ASSERT_TRUE(c.exportMetrics(dir));
  const auto records = MetricsExporter::readJsonl(dir + "/metrics.jsonl");
  ASSERT_FALSE(records.empty());
  bool sawReplicationHist = false;
  bool sawThroughputPoint = false;
  bool sawPduPoint = false;
  for (const auto& r : records) {
    if (r.type == "histogram" &&
        r.name == "cluster.rpc.stage.replication_wait" && r.count > 0) {
      sawReplicationHist = true;
    }
    if (r.type == "point" && r.name == "cluster.client.ops.rate" &&
        r.value > 0) {
      sawThroughputPoint = true;
    }
    if (r.type == "point" && r.name == "node1.pdu.watts" && r.value > 0) {
      sawPduPoint = true;
    }
  }
  EXPECT_TRUE(sawReplicationHist);
  EXPECT_TRUE(sawThroughputPoint);
  EXPECT_TRUE(sawPduPoint);
}

TEST(ObsEndToEnd, RpcTimeoutCountersRegisteredPerOpcode) {
  core::ClusterParams cp;
  cp.servers = 2;
  cp.clients = 1;
  core::Cluster c(cp);
  auto& reg = c.metrics();

  // The RPC fabric surfaces its timeout accounting: a total plus one
  // counter per opcode, named after the wire name.
  EXPECT_TRUE(reg.has("net.rpc.timeouts.total"));
  for (int i = 0; i < static_cast<int>(net::kOpcodeCount); ++i) {
    const auto op = static_cast<net::Opcode>(i);
    EXPECT_TRUE(reg.has(std::string("net.rpc.timeouts.") +
                        net::opcodeName(op)))
        << net::opcodeName(op);
  }
  EXPECT_TRUE(reg.has("net.messages_dropped"));
  EXPECT_TRUE(reg.has("cluster.rf_deficit"));

  // Drive one real timeout and watch it land in the right bucket.
  const auto table = c.createTable("t");
  c.coord().stopFailureDetector();
  c.crashServer(0);
  net::RpcRequest req;
  req.op = net::Opcode::kRead;
  req.a = table;
  req.b = 1;
  bool done = false;
  c.rpc().call(c.clientNodeId(0), c.serverNodeId(0), net::kMasterPort, req,
               msec(200), [&done](const net::RpcResponse& resp) {
                 EXPECT_EQ(resp.status, net::Status::kTimeout);
                 done = true;
               });
  while (!done) c.sim().runFor(msec(10));
  EXPECT_GE(reg.value("net.rpc.timeouts.read"), 1.0);
  EXPECT_GE(reg.value("net.rpc.timeouts.total"),
            reg.value("net.rpc.timeouts.read"));
}

}  // namespace
}  // namespace rc::obs
