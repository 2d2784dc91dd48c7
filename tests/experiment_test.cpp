// core::runExperiment: every load shape through the one entry point, with
// the bookkeeping identities each result must satisfy.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/experiment.hpp"

namespace rc {
namespace {

using sim::msec;
using sim::seconds;

core::ExperimentConfig small(ycsb::WorkloadSpec workload) {
  core::ExperimentConfig cfg;
  cfg.cluster.servers = 3;
  cfg.cluster.clients = 2;
  cfg.workload = std::move(workload);
  cfg.warmup = msec(200);
  cfg.measure = seconds(1);
  return cfg;
}

TEST(Experiment, ClosedLoopEnergyAddsUp) {
  core::ExperimentConfig cfg = small(ycsb::WorkloadSpec::A(5'000));
  cfg.cluster.replicationFactor = 2;
  const core::ExperimentResult r = core::runExperiment(cfg);
  ASSERT_GT(r.opsMeasured, 0u);
  EXPECT_EQ(r.opFailures, 0u);
  double sum = 0;
  for (double j : r.componentEnergyJ) sum += j;
  EXPECT_NEAR(sum, r.clusterEnergyJ, 1e-9 * r.clusterEnergyJ);
  EXPECT_NEAR(r.clusterPowerW * r.measuredSeconds, r.clusterEnergyJ,
              1e-9 * r.clusterEnergyJ);
  EXPECT_GT(r.eventsPerOp, 0.0);
  EXPECT_GT(r.curvePowerW, 0.0);
}

TEST(Experiment, OpenLoopTenantsAccountForEveryRequest) {
  core::ExperimentConfig cfg = small(ycsb::WorkloadSpec::B(5'000));
  core::OpenLoopTenant a;
  a.name = "a";
  a.sources = 2;
  a.shape.users = 500;
  a.qosRatePerSec = 200;  // tight enough to throttle some of a's requests
  core::OpenLoopTenant b;
  b.name = "b";
  b.sources = 1;
  b.shape.users = 300;
  b.qosRatePerSec = 0;  // no bucket
  cfg.openLoop = {a, b};
  const core::ExperimentResult r = core::runExperiment(cfg);
  ASSERT_EQ(r.tenants.size(), 2u);
  std::uint64_t users = 0;
  for (const core::TenantResult& t : r.tenants) {
    EXPECT_EQ(t.qosOffered, t.qosAdmitted + t.qosThrottled) << t.name;
    users += t.modeledUsers;
  }
  EXPECT_EQ(users, r.modeledUsers);
  EXPECT_EQ(r.modeledUsers, 2u * 500 + 300);
  EXPECT_GT(r.tenants[0].qosThrottled, 0u);
  EXPECT_EQ(r.tenants[1].qosOffered, 0u);
  EXPECT_GT(r.throughputOpsPerSec, 0.0);
}

TEST(Experiment, CrashRunRecoversEveryKey) {
  core::ExperimentConfig cfg;
  cfg.cluster.servers = 4;
  cfg.cluster.replicationFactor = 2;
  cfg.workload = ycsb::WorkloadSpec::C(50'000);
  cfg.crash.emplace();
  cfg.crash->killAt = seconds(2);
  cfg.crash->settleAfter = seconds(1);
  cfg.crash->probeClients = true;
  const core::ExperimentResult r = core::runExperiment(cfg);
  EXPECT_TRUE(r.recovered);
  EXPECT_TRUE(r.allKeysRecovered);
  EXPECT_GT(r.detectionDelay, 0);
  EXPECT_GT(r.recoveryDuration, 0);
  EXPECT_EQ(r.killTime, seconds(2));
  EXPECT_GE(r.recoveryEndTime, r.killTime + r.detectionDelay);
  EXPECT_GT(r.client1LatencyUs.points().size(), 0u);
  EXPECT_FALSE(r.spans.empty());
}

TEST(Experiment, ClusterOverrideReachesTheCluster) {
  // Relaxed replication (SS IX-B) set through the config's ClusterParams:
  // masters see it, and acks are no longer awaited.
  const auto run = [](bool waitForAcks) {
    core::ExperimentConfig cfg = small(ycsb::WorkloadSpec::A(5'000));
    cfg.cluster.replicationFactor = 2;
    cfg.cluster.master.replication.waitForAcks = waitForAcks;
    bool seen = !waitForAcks;
    cfg.clusterHook = [&seen](core::Cluster& c) {
      seen = c.server(0).master->replicaManager().params().waitForAcks;
    };
    const core::ExperimentResult r = core::runExperiment(cfg);
    EXPECT_EQ(seen, waitForAcks);
    return r;
  };
  const core::ExperimentResult strong = run(true);
  const core::ExperimentResult relaxed = run(false);
  EXPECT_LT(relaxed.replicationWaitMeanUs, 0.5 * strong.replicationWaitMeanUs);
  EXPECT_GT(relaxed.throughputOpsPerSec, strong.throughputOpsPerSec);
}

}  // namespace
}  // namespace rc
