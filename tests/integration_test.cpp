// Cross-module integration and property tests: durability through crashes,
// determinism, end-to-end experiment sanity.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "core/cluster.hpp"
#include "core/experiment.hpp"

namespace rc {
namespace {

using sim::msec;
using sim::seconds;

// ---- Property: every write acknowledged to a client before the crash is
// readable after recovery, across replication factors and seeds.
// gtest names each case after the raw bytes of its parameter, so the struct
// must have no padding: uninitialised padding made the names differ per run.
struct DurabilityParam {
  std::int64_t rf;
  std::uint64_t seed;
};
static_assert(sizeof(DurabilityParam) == 16, "no padding in test names");

class CrashDurability : public ::testing::TestWithParam<DurabilityParam> {};

TEST_P(CrashDurability, AckedWritesSurviveCrash) {
  const auto [rf, seed] = GetParam();
  core::ClusterParams p;
  p.servers = 5;
  p.clients = 2;
  p.seed = seed;
  p.replicationFactor = static_cast<int>(rf);
  core::Cluster c(p);
  const auto table = c.createTable("t");
  c.bulkLoad(table, 2'000, 1000);

  // Live traffic: clients overwrite random keys; we remember every key
  // whose write was ACKED (and its last acked version).
  std::map<std::uint64_t, std::uint64_t> acked;
  std::uint64_t stamp = 0;
  auto& rc0 = *c.clientHost(0).rc;
  sim::Rng keys(seed ^ 0xabc);
  bool stopWrites = false;
  std::function<void()> writeLoop = [&] {
    if (stopWrites) return;
    const std::uint64_t k = keys.uniformInt(2'000);
    const std::uint64_t v = ++stamp;
    rc0.write(table, k, 1000, [&, k, v](net::Status s, sim::Duration) {
      if (s == net::Status::kOk && !stopWrites) acked[k] = v;
      c.sim().schedule(sim::usec(200), writeLoop);
    });
  };
  writeLoop();

  c.sim().runFor(seconds(2));
  const int victim = 2;
  stopWrites = true;  // determinism of the acked set at crash time
  c.crashServer(victim);

  for (int i = 0; i < 1200 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_FALSE(c.coord().recoveryLog().empty());
  EXPECT_TRUE(c.coord().recoveryLog().front().succeeded);

  // Every acked key is present at its current owner.
  for (const auto& [k, v] : acked) {
    const auto owner = c.ownerOfKey(table, k);
    ASSERT_NE(owner, node::kInvalidNode);
    auto* m = c.directory().masterOn(owner);
    ASSERT_NE(m, nullptr);
    const auto loc = m->objectMap().get(hash::Key{table, k});
    ASSERT_TRUE(loc.has_value()) << "key " << k << " lost (rf=" << rf << ")";
  }
  // And the bulk-loaded baseline survived too.
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 2'000));
}

INSTANTIATE_TEST_SUITE_P(
    RfSeedSweep, CrashDurability,
    ::testing::Values(DurabilityParam{1, 11}, DurabilityParam{1, 12},
                      DurabilityParam{2, 21}, DurabilityParam{2, 22},
                      DurabilityParam{3, 31}, DurabilityParam{3, 32},
                      DurabilityParam{4, 41}));

// ---- Property: deleted keys stay deleted through recovery (tombstones).
TEST(CrashDurabilityTombstones, RemovedKeysStayRemoved) {
  core::ClusterParams p;
  p.servers = 4;
  p.clients = 1;
  p.replicationFactor = 2;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  c.bulkLoad(table, 1'000, 1000);

  auto& rc0 = *c.clientHost(0).rc;
  std::vector<std::uint64_t> removed;
  int pending = 0;
  for (std::uint64_t k = 0; k < 1000; k += 7) {
    ++pending;
    rc0.remove(table, k, [&removed, &pending, k](net::Status s, sim::Duration) {
      if (s == net::Status::kOk) removed.push_back(k);
      --pending;
    });
  }
  while (pending > 0) c.sim().runFor(msec(50));
  ASSERT_FALSE(removed.empty());

  c.crashServer(1);
  for (int i = 0; i < 1200 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_FALSE(c.coord().recoveryLog().empty());
  ASSERT_TRUE(c.coord().recoveryLog().front().succeeded);

  for (std::uint64_t k : removed) {
    const auto owner = c.ownerOfKey(table, k);
    auto* m = c.directory().masterOn(owner);
    ASSERT_NE(m, nullptr);
    EXPECT_FALSE(m->objectMap().get(hash::Key{table, k}).has_value())
        << "deleted key " << k << " resurrected by recovery";
  }
}

// ---- Determinism: the entire stack is reproducible from the seed.
TEST(Determinism, SameSeedSameExperimentResult) {
  auto once = [] {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = 3;
    cfg.cluster.clients = 3;
    cfg.cluster.replicationFactor = 2;
    cfg.workload = ycsb::WorkloadSpec::A(5'000);
    cfg.warmup = msec(300);
    cfg.measure = seconds(1);
    cfg.cluster.seed = 777;
    return core::runExperiment(cfg);
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.opsMeasured, b.opsMeasured);
  EXPECT_DOUBLE_EQ(a.throughputOpsPerSec, b.throughputOpsPerSec);
  EXPECT_DOUBLE_EQ(a.meanPowerPerServerW, b.meanPowerPerServerW);
}

// The hot-path engine (inline tasks, indexed event heap, pooled RPC
// requests) must keep seeded runs reproducible down to the exported bytes:
// run the same steady-state config twice and byte-compare the JSONL.
TEST(Determinism, SameSeedYcsbExportIsByteIdentical) {
  auto runOnce = [](const std::string& dir) {
    core::ClusterParams p;
    p.servers = 4;
    p.clients = 3;
    p.seed = 4242;
    p.replicationFactor = 2;
    core::Cluster c(p);
    const auto table = c.createTable("det");
    c.bulkLoad(table, 5'000, 512);
    c.configureYcsb(table, ycsb::WorkloadSpec::B(5'000),
                    ycsb::YcsbClientParams{});
    c.startYcsb();
    c.sim().runFor(seconds(2));
    c.stopYcsb();
    ASSERT_TRUE(c.exportMetrics(dir));
  };
  const std::string dirA = ::testing::TempDir() + "det_ycsb_a";
  const std::string dirB = ::testing::TempDir() + "det_ycsb_b";
  runOnce(dirA);
  runOnce(dirB);
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string metricsA = slurp(dirA + "/metrics.jsonl");
  ASSERT_FALSE(metricsA.empty());
  EXPECT_EQ(metricsA, slurp(dirB + "/metrics.jsonl"));
  EXPECT_EQ(slurp(dirA + "/events.jsonl"), slurp(dirB + "/events.jsonl"));
}

TEST(Determinism, DifferentSeedsDiffer) {
  auto once = [](std::uint64_t seed) {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = 2;
    cfg.cluster.clients = 2;
    cfg.workload = ycsb::WorkloadSpec::A(2'000);
    cfg.warmup = msec(200);
    cfg.measure = seconds(1);
    cfg.cluster.seed = seed;
    return core::runExperiment(cfg).opsMeasured;
  };
  EXPECT_NE(once(1), once(2));
}

// ---- End-to-end recovery experiment (miniature Fig. 9/11).
TEST(RecoveryExperiment, SmallScaleEndToEnd) {
  core::ExperimentConfig cfg;
  cfg.cluster.servers = 5;
  cfg.cluster.replicationFactor = 2;
  cfg.workload = ycsb::WorkloadSpec::C(200'000);  // ~200 MB
  cfg.crash.emplace();
  cfg.crash->killAt = seconds(5);
  cfg.crash->settleAfter = seconds(3);
  const auto r = core::runExperiment(cfg);
  EXPECT_TRUE(r.recovered);
  EXPECT_TRUE(r.allKeysRecovered);
  EXPECT_GT(sim::toSeconds(r.recoveryDuration), 0.3);
  EXPECT_LT(sim::toSeconds(r.detectionDelay), 1.0);
  EXPECT_GT(r.peakCpuPct, 50.0);          // recovery burns CPU (Fig. 9a)
  EXPECT_GT(r.meanPowerDuringRecoveryW, 95.0);  // and watts (Fig. 9b)
  EXPECT_GT(r.diskWriteMBps.maxValue(), 1.0);   // re-replication I/O
  EXPECT_GT(r.diskReadMBps.maxValue(), 1.0);    // backup reads
  EXPECT_FALSE(r.cpuMeanPct.empty());
}

TEST(RecoveryExperiment, RecoveryTimeGrowsWithRf) {
  double last = 0;
  for (int rf : {1, 3}) {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = 5;
    cfg.cluster.replicationFactor = rf;
    cfg.workload = ycsb::WorkloadSpec::C(150'000);
    cfg.crash.emplace();
    cfg.crash->killAt = seconds(3);
    cfg.crash->settleAfter = seconds(1);
    const auto r = core::runExperiment(cfg);
    ASSERT_TRUE(r.recovered);
    if (rf > 1) {
      EXPECT_GT(sim::toSeconds(r.recoveryDuration), last * 1.3)
          << "Finding 6: higher rf must slow recovery";
    }
    last = sim::toSeconds(r.recoveryDuration);
  }
}

// ---- Steady-state experiment shape checks (miniature paper findings).
TEST(ExperimentShape, ReadOnlyScalesWithClients) {
  auto run = [](int clients) {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = 5;
    cfg.cluster.clients = clients;
    cfg.workload = ycsb::WorkloadSpec::C(20'000);
    cfg.warmup = msec(300);
    cfg.measure = seconds(1);
    return core::runExperiment(cfg);
  };
  const auto two = run(2);
  const auto eight = run(8);
  EXPECT_GT(eight.throughputOpsPerSec, 3.2 * two.throughputOpsPerSec);
  EXPECT_EQ(eight.opFailures, 0u);
}

TEST(ExperimentShape, ReplicationDegradesUpdateThroughput) {
  auto run = [](int rf) {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = 5;
    cfg.cluster.clients = 5;
    cfg.cluster.replicationFactor = rf;
    cfg.workload = ycsb::WorkloadSpec::A(20'000);
    cfg.warmup = msec(300);
    cfg.measure = seconds(2);
    return core::runExperiment(cfg).throughputOpsPerSec;
  };
  const double rf1 = run(1);
  const double rf4 = run(4);
  EXPECT_LT(rf4, 0.75 * rf1) << "Finding 3: rf=4 must cost >25% throughput";
}

TEST(ExperimentShape, UpdateHeavyBurnsMorePowerPerOp) {
  auto run = [](ycsb::WorkloadSpec w) {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = 4;
    cfg.cluster.clients = 8;
    cfg.workload = std::move(w);
    cfg.warmup = msec(300);
    cfg.measure = seconds(2);
    return core::runExperiment(cfg);
  };
  const auto a = run(ycsb::WorkloadSpec::A(20'000));
  const auto c = run(ycsb::WorkloadSpec::C(20'000));
  // Finding 2: far fewer ops per joule for update-heavy.
  EXPECT_LT(a.opsPerJoule * 3, c.opsPerJoule);
}

}  // namespace
}  // namespace rc
