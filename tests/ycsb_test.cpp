// Tests for the YCSB workload generator, the closed-loop client and the op
// core it shares with the open-loop TrafficSource.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/cluster.hpp"
#include "ycsb/workload.hpp"
#include "ycsb/ycsb_client.hpp"

namespace rc::ycsb {
namespace {

using sim::msec;
using sim::seconds;

TEST(WorkloadSpec, PresetsMatchPaper) {
  EXPECT_DOUBLE_EQ(WorkloadSpec::A().readProportion, 0.5);
  EXPECT_DOUBLE_EQ(WorkloadSpec::A().updateProportion, 0.5);
  EXPECT_DOUBLE_EQ(WorkloadSpec::B().readProportion, 0.95);
  EXPECT_DOUBLE_EQ(WorkloadSpec::C().readProportion, 1.0);
  EXPECT_EQ(WorkloadSpec::C().valueBytes, 1000u);  // 1 KB records
  EXPECT_EQ(WorkloadSpec::C().distribution,
            WorkloadSpec::Distribution::kUniform);
}

TEST(KeyChooser, UniformCoversKeySpace) {
  WorkloadSpec s = WorkloadSpec::C(100);
  KeyChooser kc(s, sim::Rng(1));
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto k = kc.next();
    ASSERT_LT(k, 100u);
    ++counts[k];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 250);
}

TEST(KeyChooser, ZipfianIsSkewedAndRankOrdered) {
  WorkloadSpec s = WorkloadSpec::C(10'000);
  s.distribution = WorkloadSpec::Distribution::kZipfian;
  KeyChooser kc(s, sim::Rng(2));
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 200000; ++i) ++counts[kc.next()];
  // Key 0 is the hottest; top key gets far more than uniform share (20).
  EXPECT_GT(counts[0], 10000);
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[1000]);
}

TEST(KeyChooser, ZipfianStaysInRange) {
  WorkloadSpec s = WorkloadSpec::C(50);
  s.distribution = WorkloadSpec::Distribution::kZipfian;
  KeyChooser kc(s, sim::Rng(3));
  for (int i = 0; i < 100000; ++i) ASSERT_LT(kc.next(), 50u);
}

core::ClusterParams tiny() {
  core::ClusterParams p;
  p.servers = 2;
  p.clients = 1;
  return p;
}

TEST(YcsbClient, RespectsOpsTarget) {
  core::Cluster c(tiny());
  const auto table = c.createTable("t");
  c.bulkLoad(table, 1000, 1000);
  YcsbClientParams yp;
  yp.opsTarget = 500;
  c.configureYcsb(table, WorkloadSpec::C(1000), yp);
  bool doneFired = false;
  c.clientHost(0).ycsb->onDone = [&] { doneFired = true; };
  c.startYcsb();
  c.sim().runFor(seconds(10));
  EXPECT_TRUE(doneFired);
  EXPECT_TRUE(c.clientHost(0).ycsb->done());
  EXPECT_EQ(c.clientHost(0).ycsb->stats().opsCompleted, 500u);
}

TEST(YcsbClient, MixMatchesProportions) {
  core::Cluster c(tiny());
  const auto table = c.createTable("t");
  c.bulkLoad(table, 1000, 1000);
  YcsbClientParams yp;
  yp.opsTarget = 4000;
  c.configureYcsb(table, WorkloadSpec::B(1000), yp);
  c.startYcsb();
  c.sim().runFor(seconds(30));
  const auto& st = c.clientHost(0).ycsb->stats();
  ASSERT_EQ(st.opsCompleted, 4000u);
  EXPECT_NEAR(static_cast<double>(st.updates) / 4000.0, 0.05, 0.015);
}

TEST(YcsbClient, ThrottleCapsRate) {
  core::Cluster c(tiny());
  const auto table = c.createTable("t");
  c.bulkLoad(table, 1000, 1000);
  YcsbClientParams yp;
  yp.throttleOpsPerSec = 200;
  c.configureYcsb(table, WorkloadSpec::C(1000), yp);
  c.startYcsb();
  c.sim().runFor(seconds(10));
  c.stopYcsb();
  const auto ops = c.clientHost(0).ycsb->stats().opsCompleted;
  EXPECT_NEAR(static_cast<double>(ops) / 10.0, 200.0, 20.0);
}

TEST(YcsbClient, UnthrottledRateMatchesClosedLoopModel) {
  // cycle ~= client overhead (26 us) + RTT + service: ~23-28 Kop/s.
  core::Cluster c(tiny());
  const auto table = c.createTable("t");
  c.bulkLoad(table, 1000, 1000);
  c.configureYcsb(table, WorkloadSpec::C(1000), YcsbClientParams{});
  c.startYcsb();
  c.sim().runFor(seconds(5));
  c.stopYcsb();
  const double rate =
      static_cast<double>(c.clientHost(0).ycsb->stats().opsCompleted) / 5.0;
  EXPECT_GT(rate, 18'000);
  EXPECT_LT(rate, 33'000);
}

TEST(YcsbClient, KeyPredicateRestrictsKeys) {
  core::Cluster c(tiny());
  const auto table = c.createTable("t");
  c.bulkLoad(table, 1000, 1000);
  const auto victim = c.serverNodeId(0);
  YcsbClientParams yp;
  yp.opsTarget = 300;
  yp.keyPredicate = [&c, table, victim](std::uint64_t k) {
    return c.ownerOfKey(table, k) == victim;
  };
  c.configureYcsb(table, WorkloadSpec::C(1000), yp);
  c.startYcsb();
  c.sim().runFor(seconds(10));
  EXPECT_EQ(c.server(0).master->stats().reads, 300u);
  EXPECT_EQ(c.server(1).master->stats().reads, 0u);
}

TEST(WorkloadSpec, DAndFPresets) {
  const auto d = WorkloadSpec::D();
  EXPECT_DOUBLE_EQ(d.readProportion, 0.95);
  EXPECT_DOUBLE_EQ(d.insertProportion, 0.05);
  EXPECT_EQ(d.distribution, WorkloadSpec::Distribution::kLatest);
  const auto f = WorkloadSpec::F();
  EXPECT_DOUBLE_EQ(f.readProportion, 0.5);
  EXPECT_DOUBLE_EQ(f.readModifyWriteProportion, 0.5);
}

TEST(KeyChooser, LatestPrefersNewestKeys) {
  WorkloadSpec s = WorkloadSpec::D(10'000);
  KeyChooser kc(s, sim::Rng(4));
  std::uint64_t newestHits = 0;
  const int draws = 50'000;
  for (int i = 0; i < draws; ++i) {
    if (kc.next(10'000) >= 9'900) ++newestHits;  // newest 1 %
  }
  // Zipfian-at-latest: the newest 1% draws far more than 1% of requests.
  EXPECT_GT(newestHits, draws / 20);
}

// Golden sequence: pins the zipfian generator's exact arithmetic. Any
// change to the draw path (e.g. reordering the pow() hoist, switching
// float widths) shifts these values and must be caught — seeded runs
// across the whole simulator depend on them bit-for-bit.
TEST(KeyChooser, ZipfianGoldenSequenceIsStable) {
  WorkloadSpec s = WorkloadSpec::C(10'000);
  s.distribution = WorkloadSpec::Distribution::kZipfian;
  KeyChooser kc(s, sim::Rng(7));
  const std::uint64_t golden[32] = {
      1818, 427,  1728, 36,   5927, 85, 136,  771,   //
      90,   1,    95,   4867, 1988, 2,  2030, 1005,  //
      5,    9090, 0,    839,  0,    0,  7854, 4,     //
      0,    50,   4,    7516, 0,    3,  2079, 1,
  };
  for (std::uint64_t expected : golden) {
    EXPECT_EQ(kc.next(), expected);
  }
}

// Workloads D and F run through the op core both load drivers share, so
// their accounting is checked under both pacings.
enum class Pacing { kClosedLoop, kOpenLoop };

/// Runs about `ops` ops of `spec` on client host 0 and returns once every
/// one of them has settled. The closed loop stops at an ops target; the
/// open loop offers ops/2 per second for 2 s, then its diurnal curve drops
/// to zero, so nothing is left in flight (and nothing abandoned) after 4 s.
const YcsbStats& runSettled(core::Cluster& c, std::uint64_t table,
                            const WorkloadSpec& spec, Pacing pacing,
                            std::uint64_t ops) {
  if (pacing == Pacing::kClosedLoop) {
    YcsbClientParams yp;
    yp.opsTarget = ops;
    c.configureYcsb(table, spec, yp);
    c.startYcsb();
    c.sim().runFor(seconds(30));
    return c.clientHost(0).ycsb->stats();
  }
  load::TrafficSourceParams tp;
  tp.shape.users = static_cast<double>(ops) / 2;
  tp.shape.diurnal.period = seconds(100);
  tp.shape.diurnal.points = {{0, 1}, {0.02, 1}, {0.0201, 0}, {0.99, 0}};
  c.configureOpenLoop(table, spec, {tp});
  c.startTraffic();
  c.sim().runFor(seconds(4));
  EXPECT_EQ(c.clientHost(0).traffic->inFlight(), 0u);
  return c.clientHost(0).traffic->stats();
}

/// Identities every driver's accounting keeps: each completed op is counted
/// once by kind, with one latency sample, and matches the servers' reads
/// and writes (an RMW is a read followed by a write).
void expectAccounted(core::Cluster& c, const YcsbStats& st) {
  EXPECT_EQ(st.opsCompleted,
            st.reads + st.updates + st.inserts + st.readModifyWrites);
  EXPECT_EQ(st.readLatency.count(), st.reads);
  EXPECT_EQ(st.updateLatency.count(),
            st.updates + st.inserts + st.readModifyWrites);
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  for (int i = 0; i < c.serverCount(); ++i) {
    reads += c.server(i).master->stats().reads;
    writes += c.server(i).master->stats().writes;
  }
  EXPECT_EQ(reads, st.reads + st.readModifyWrites);
  EXPECT_EQ(writes, st.updates + st.inserts + st.readModifyWrites);
}

const char* pacingName(Pacing p) {
  return p == Pacing::kClosedLoop ? "closed loop" : "open loop";
}

TEST(YcsbClient, WorkloadDInsertsGrowKeyspace) {
  for (Pacing pacing : {Pacing::kClosedLoop, Pacing::kOpenLoop}) {
    SCOPED_TRACE(pacingName(pacing));
    core::Cluster c(tiny());
    const auto table = c.createTable("t");
    c.bulkLoad(table, 2'000, 1000);
    const YcsbStats& st =
        runSettled(c, table, WorkloadSpec::D(2'000), pacing, 3'000);
    if (pacing == Pacing::kClosedLoop) {
      ASSERT_EQ(st.opsCompleted, 3'000u);
    } else {
      EXPECT_NEAR(static_cast<double>(st.opsCompleted), 3'000.0, 300.0);
    }
    EXPECT_NEAR(static_cast<double>(st.inserts) /
                    static_cast<double>(st.opsCompleted),
                0.05, 0.02);
    EXPECT_EQ(st.failures, 0u);
    expectAccounted(c, st);
    // Inserted keys are really stored (beyond the preloaded id range), one
    // distinct key per insert, in the driver's insert sequence.
    std::set<std::uint64_t> inserted;
    for (int i = 0; i < c.serverCount(); ++i) {
      c.server(i).master->objectMap().forEach(
          [&](const hash::Key& k, const hash::ObjectLocation&) {
            if (k.keyId >= 2'000) inserted.insert(k.keyId);
          });
    }
    ASSERT_EQ(inserted.size(), st.inserts);
    const std::uint64_t base = 2'000 + (1ULL << 32);  // host 0's insert base
    std::uint64_t next = base;
    for (std::uint64_t k : inserted) EXPECT_EQ(k, next++);
    // And readable afterwards.
    std::uint64_t readable = 0;
    for (std::uint64_t k : inserted) {
      c.clientHost(0).rc->read(table, k, [&](net::Status s, sim::Duration) {
        if (s == net::Status::kOk) ++readable;
      });
    }
    c.sim().runFor(seconds(1));
    EXPECT_EQ(readable, st.inserts);
  }
}

TEST(YcsbClient, WorkloadFReadModifyWrites) {
  for (Pacing pacing : {Pacing::kClosedLoop, Pacing::kOpenLoop}) {
    SCOPED_TRACE(pacingName(pacing));
    core::Cluster c(tiny());
    const auto table = c.createTable("t");
    c.bulkLoad(table, 1'000, 1000);
    const YcsbStats& st =
        runSettled(c, table, WorkloadSpec::F(1'000), pacing, 2'000);
    if (pacing == Pacing::kClosedLoop) {
      ASSERT_EQ(st.opsCompleted, 2'000u);
    } else {
      EXPECT_NEAR(static_cast<double>(st.opsCompleted), 2'000.0, 200.0);
    }
    EXPECT_NEAR(static_cast<double>(st.readModifyWrites) /
                    static_cast<double>(st.opsCompleted),
                0.5, 0.05);
    EXPECT_EQ(st.failures, 0u);
    expectAccounted(c, st);
  }
}

TEST(YcsbClient, StopHaltsIssuing) {
  core::Cluster c(tiny());
  const auto table = c.createTable("t");
  c.bulkLoad(table, 1000, 1000);
  c.configureYcsb(table, WorkloadSpec::C(1000), YcsbClientParams{});
  c.startYcsb();
  c.sim().runFor(seconds(1));
  c.stopYcsb();
  const auto ops = c.clientHost(0).ycsb->stats().opsCompleted;
  c.sim().runFor(seconds(1));
  EXPECT_EQ(c.clientHost(0).ycsb->stats().opsCompleted, ops);
}

}  // namespace
}  // namespace rc::ycsb
