// Tests for tablet migration, graceful decommission and the autoscaler
// (the SS IX cluster-resizing machinery).

#include <gtest/gtest.h>

#include "core/autoscaler.hpp"
#include "core/cluster.hpp"

namespace rc {
namespace {

using sim::msec;
using sim::seconds;

core::ClusterParams params(int servers, int clients, int rf) {
  core::ClusterParams p;
  p.servers = servers;
  p.clients = clients;
  p.replicationFactor = rf;
  return p;
}

TEST(Migration, MovesAllObjectsAndFlipsOwnership) {
  core::Cluster c(params(3, 1, 0));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 9'000, 1000);

  const auto srcId = c.serverNodeId(0);
  const auto tablets = c.coord().tabletMap().tabletsOwnedBy(srcId);
  ASSERT_EQ(tablets.size(), 1u);
  const auto before = c.server(0).master->objectMap().size();
  ASSERT_GT(before, 1000u);
  const auto destBefore = c.server(1).master->objectMap().size();

  bool ok = false;
  c.migrateTablet(tablets[0], 1, [&ok](bool r) { ok = r; });
  c.sim().runFor(seconds(20));
  ASSERT_TRUE(ok);

  // Ownership flipped; objects moved; source empty of that range.
  EXPECT_TRUE(c.coord().tabletMap().tabletsOwnedBy(srcId).empty());
  EXPECT_EQ(c.server(0).master->objectMap().size(), 0u);
  EXPECT_EQ(c.server(1).master->objectMap().size(), destBefore + before);
  // Every key still readable via the map.
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 9'000));
}

TEST(Migration, ClientOpsSurviveMigration) {
  core::Cluster c(params(3, 1, 0));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 6'000, 1000);
  auto& rc0 = *c.clientHost(0).rc;

  // Continuous mixed traffic against all keys during the migration.
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  bool running = true;
  sim::Rng keys(5);
  std::function<void()> loop = [&] {
    if (!running) return;
    const std::uint64_t k = keys.uniformInt(6'000);
    auto cb = [&](net::Status s, sim::Duration) {
      (s == net::Status::kOk) ? ++completed : ++failed;
      c.sim().schedule(sim::usec(200), loop);
    };
    if (keys.bernoulli(0.3)) {
      rc0.write(table, k, 1000, cb);
    } else {
      rc0.read(table, k, cb);
    }
  };
  loop();
  c.sim().runFor(seconds(1));

  const auto tablets =
      c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(0));
  bool ok = false;
  c.migrateTablet(tablets[0], 2, [&ok](bool r) { ok = r; });
  c.sim().runFor(seconds(20));
  running = false;
  ASSERT_TRUE(ok);
  EXPECT_GT(completed, 1000u);
  EXPECT_EQ(failed, 0u);  // writes were bounced+retried, never failed
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 6'000));
}

TEST(Migration, MigratedDataIsDurable) {
  // rf=2 destination replication: after the move, crash the NEW owner and
  // verify everything still recovers.
  core::Cluster c(params(4, 1, 2));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 8'000, 1000);
  const auto tablets =
      c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(0));
  bool ok = false;
  c.migrateTablet(tablets[0], 1, [&ok](bool r) { ok = r; });
  c.sim().runFor(seconds(30));
  ASSERT_TRUE(ok);

  c.crashServer(1);  // the destination
  for (int i = 0; i < 900 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_FALSE(c.coord().recoveryLog().empty());
  EXPECT_TRUE(c.coord().recoveryLog().front().succeeded);
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 8'000));
}

TEST(Migration, DrainEmptiesAServer) {
  core::Cluster c(params(4, 0, 1));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 4'000, 1000);
  bool ok = false;
  c.drainServer(2, [&ok](bool r) { ok = r; });
  c.sim().runFor(seconds(30));
  ASSERT_TRUE(ok);
  EXPECT_TRUE(
      c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(2)).empty());
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 4'000));
}

TEST(Migration, SuspendRefusedWhileOwningTablets) {
  core::Cluster c(params(3, 0, 0));
  c.createTable("t");
  EXPECT_FALSE(c.suspendServer(0));
}

TEST(Migration, SuspendedServerDrawsStandbyPower) {
  core::Cluster c(params(3, 0, 0));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 1'000, 1000);
  bool ok = false;
  c.drainServer(2, [&ok](bool r) { ok = r; });
  c.sim().runFor(seconds(10));
  ASSERT_TRUE(ok);
  ASSERT_TRUE(c.suspendServer(2));

  auto snap = c.server(2).node->snapshotPower();
  c.sim().runFor(seconds(10));
  EXPECT_NEAR(c.server(2).node->meanWattsSince(snap, c.sim().now()), 9.0,
              0.5);
  // An active idle peer draws the RAMCloud idle ~76 W.
  auto snap0 = c.server(0).node->snapshotPower();
  c.sim().runFor(seconds(10));
  EXPECT_GT(c.server(0).node->meanWattsSince(snap0, c.sim().now()), 70.0);
}

TEST(Migration, ResumeRejoinsCluster) {
  core::Cluster c(params(3, 1, 0));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 3'000, 1000);
  bool ok = false;
  c.drainServer(1, [&ok](bool r) { ok = r; });
  c.sim().runFor(seconds(20));
  ASSERT_TRUE(ok);
  ASSERT_TRUE(c.suspendServer(1));
  EXPECT_EQ(c.aliveServerCount(), 2);

  c.resumeServer(1);
  EXPECT_EQ(c.aliveServerCount(), 3);
  // Migrate something back onto it and read through it.
  const auto tablets =
      c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(0));
  ASSERT_FALSE(tablets.empty());
  bool ok2 = false;
  c.migrateTablet(tablets[0], 1, [&ok2](bool r) { ok2 = r; });
  c.sim().runFor(seconds(20));
  ASSERT_TRUE(ok2);
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 3'000));
}

TEST(Migration, RefusedForUnknownTabletOrDeadDestination) {
  core::Cluster c(params(3, 0, 0));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 1'000, 1000);

  // Bogus tablet boundaries -> refused.
  server::Tablet bogus;
  bogus.tableId = table;
  bogus.startHash = 1;
  bogus.endHash = 2;
  bool called = false;
  bool ok = true;
  c.migrateTablet(bogus, 1, [&](bool r) {
    called = true;
    ok = r;
  });
  c.sim().runFor(seconds(1));
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);

  // Dead destination -> refused.
  c.coord().stopFailureDetector();
  c.crashServer(2);
  const auto tablets =
      c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(0));
  ASSERT_FALSE(tablets.empty());
  called = false;
  ok = true;
  c.migrateTablet(tablets[0], 2, [&](bool r) {
    called = true;
    ok = r;
  });
  c.sim().runFor(seconds(2));
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  // The tablet stayed where it was.
  EXPECT_EQ(c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(0)).size(),
            tablets.size());
}

TEST(Migration, SourceCrashDuringMigrationRecovers) {
  core::Cluster c(params(4, 0, 2));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 20'000, 1000);
  c.sim().runFor(seconds(1));

  const auto tablets =
      c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(0));
  bool called = false;
  c.migrateTablet(tablets[0], 1, [&](bool) { called = true; });
  // Kill the source while batches are still in flight (the full move
  // takes ~15 ms): the migration dies with it and recovery must bring
  // the data back.
  c.sim().runFor(msec(2));
  ASSERT_FALSE(called);  // still migrating
  c.crashServer(0);
  for (int i = 0; i < 900 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_FALSE(c.coord().recoveryLog().empty());
  EXPECT_TRUE(c.coord().recoveryLog().front().succeeded);
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 20'000));
  (void)called;
}

TEST(Autoscaler, ScalesDownWhenIdleAndBackUpUnderLoad) {
  core::ClusterParams p = params(6, 12, 1);
  core::Cluster c(p);
  const auto table = c.createTable("t");
  constexpr std::uint64_t kKeys = 10'000;
  c.bulkLoad(table, kKeys, 1000);

  core::AutoscalerParams ap;
  ap.interval = seconds(1);
  ap.minActive = 3;
  // 12 read-only clients on 3 servers settle around ~72% CPU; trigger
  // above the comfortable band.
  ap.highWaterCpu = 0.65;
  core::Autoscaler scaler(c, ap);
  scaler.start();

  // Each phase runs until the scaler has acted and its migrations are
  // done, capped at the time the phase may take.
  auto runUntil = [&](int capSeconds, const std::function<bool()>& done) {
    for (int s = 0; s < capSeconds && !(done() && !scaler.actionInProgress());
         ++s) {
      c.sim().runFor(seconds(1));
    }
  };

  // Idle phase: no clients running -> CPU 25% -> scale down to minActive.
  runUntil(40, [&] { return c.aliveServerCount() == ap.minActive; });
  EXPECT_GE(scaler.scaleDowns(), 1);
  EXPECT_EQ(c.aliveServerCount(), 3);
  EXPECT_TRUE(c.verifyAllKeysPresent(table, kKeys));

  // Load phase: hammer the (smaller) cluster -> scale back up.
  ycsb::YcsbClientParams ycp;
  c.configureYcsb(table, ycsb::WorkloadSpec::C(kKeys), ycp);
  c.startYcsb();
  runUntil(60, [&] { return scaler.scaleUps() >= 1; });
  EXPECT_GE(scaler.scaleUps(), 1);
  EXPECT_GT(c.aliveServerCount(), 3);
  c.stopYcsb();
  scaler.stop();
  EXPECT_TRUE(c.verifyAllKeysPresent(table, kKeys));
  EXPECT_EQ(c.totalOpFailures(), 0u);
}

}  // namespace
}  // namespace rc
