// End-to-end smoke: a small cluster serves reads and writes.

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "core/experiment.hpp"

namespace rc {
namespace {

TEST(Smoke, ClusterServesReadOnlyWorkload) {
  core::ExperimentConfig cfg;
  cfg.cluster.servers = 2;
  cfg.cluster.clients = 2;
  cfg.workload = ycsb::WorkloadSpec::C(10'000);
  cfg.warmup = sim::msec(200);
  cfg.measure = sim::seconds(1);
  const auto r = core::runExperiment(cfg);
  EXPECT_GT(r.throughputOpsPerSec, 1000.0);
  EXPECT_EQ(r.opFailures, 0u);
  EXPECT_FALSE(r.crashed);
  EXPECT_GT(r.meanPowerPerServerW, 60.0);
  EXPECT_LT(r.meanPowerPerServerW, 130.0);
}

TEST(Smoke, ClusterServesUpdateHeavyWithReplication) {
  core::ExperimentConfig cfg;
  cfg.cluster.servers = 3;
  cfg.cluster.clients = 2;
  cfg.cluster.replicationFactor = 2;
  cfg.workload = ycsb::WorkloadSpec::A(5'000);
  cfg.warmup = sim::msec(200);
  cfg.measure = sim::seconds(1);
  const auto r = core::runExperiment(cfg);
  EXPECT_GT(r.throughputOpsPerSec, 500.0);
  EXPECT_EQ(r.opFailures, 0u);
}

}  // namespace
}  // namespace rc
