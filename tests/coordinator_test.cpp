// Tests for the coordinator: tablet map, table creation, failure detection
// and recovery orchestration.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "coordinator/coordinator.hpp"
#include "coordinator/tablet_map.hpp"
#include "core/cluster.hpp"
#include "server/master_service.hpp"

namespace rc::coordinator {
namespace {

using sim::msec;
using sim::seconds;

TEST(TabletMap, LookupFindsOwningTablet) {
  TabletMap m;
  server::Tablet t;
  t.tableId = 1;
  t.startHash = 100;
  t.endHash = 200;
  t.owner = 3;
  m.addTablet(t);
  EXPECT_EQ(m.lookup(1, 150)->tablet.owner, 3);
  EXPECT_EQ(m.lookup(1, 50), nullptr);
  EXPECT_EQ(m.lookup(2, 150), nullptr);
}

TEST(TabletMap, MarkRecoveringBumpsVersion) {
  TabletMap m;
  server::Tablet t;
  t.tableId = 1;
  t.owner = 3;
  m.addTablet(t);
  const auto v = m.version();
  m.markRecovering(3);
  EXPECT_GT(m.version(), v);
  EXPECT_EQ(m.lookup(1, 0)->state, TabletMap::TabletState::kRecovering);
  EXPECT_TRUE(m.anyRecovering());
}

TEST(TabletMap, ReassignSplitsRange) {
  TabletMap m;
  server::Tablet t;
  t.tableId = 1;
  t.startHash = 0;
  t.endHash = 999;
  t.owner = 3;
  m.addTablet(t);
  m.markRecovering(3);
  m.reassign(1, 200, 499, 3, 7);
  EXPECT_EQ(m.lookup(1, 100)->tablet.owner, 3);
  EXPECT_EQ(m.lookup(1, 300)->tablet.owner, 7);
  EXPECT_EQ(m.lookup(1, 300)->state, TabletMap::TabletState::kUp);
  EXPECT_EQ(m.lookup(1, 600)->tablet.owner, 3);
  // Boundaries exact.
  EXPECT_EQ(m.lookup(1, 199)->tablet.owner, 3);
  EXPECT_EQ(m.lookup(1, 200)->tablet.owner, 7);
  EXPECT_EQ(m.lookup(1, 499)->tablet.owner, 7);
  EXPECT_EQ(m.lookup(1, 500)->tablet.owner, 3);
}

TEST(TabletMap, FullHashSpaceAlwaysCovered) {
  core::Cluster c([] {
    core::ClusterParams p;
    p.servers = 7;
    p.clients = 0;
    return p;
  }());
  const auto table = c.createTable("t");
  const auto& m = c.coord().tabletMap();
  // Probe boundaries of the 7-way split plus random points.
  for (std::uint64_t h :
       {0ULL, 1ULL, ~0ULL, ~0ULL - 1, 0x2492492492492492ULL,
        0x9999999999999999ULL, 0xfedcba9876543210ULL}) {
    EXPECT_NE(m.lookup(table, h), nullptr) << std::hex << h;
  }
}

TEST(Coordinator, CreateTableSpansServers) {
  core::Cluster c([] {
    core::ClusterParams p;
    p.servers = 4;
    p.clients = 0;
    return p;
  }());
  const auto table = c.createTable("t");  // ServerSpan = 4
  std::set<server::ServerId> owners;
  for (const auto& e : c.coord().tabletMap().entries()) {
    if (e.tablet.tableId == table) owners.insert(e.tablet.owner);
  }
  EXPECT_EQ(owners.size(), 4u);
  // Masters were told about their tablets.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.server(i).master->tablets().size(), 1u);
  }
}

TEST(Coordinator, CreateTableIsIdempotentByName) {
  core::Cluster c([] {
    core::ClusterParams p;
    p.servers = 2;
    p.clients = 0;
    return p;
  }());
  EXPECT_EQ(c.createTable("same"), c.createTable("same"));
}

TEST(Coordinator, RefusesATableIdBeyondWhatALogEntryStores) {
  core::Cluster c([] {
    core::ClusterParams p;
    p.servers = 1;
    p.clients = 0;
    p.replicationFactor = 0;
    return p;
  }());
  std::uint64_t last = 0;
  for (std::uint64_t i = 1; i <= log::kMaxTableId; ++i) {
    last = c.createTable(std::to_string(i), 1);
  }
  EXPECT_EQ(last, log::kMaxTableId);
  const std::size_t tablets = c.coord().tabletMap().entries().size();
  EXPECT_THROW(c.createTable("one-too-many", 1), std::length_error);
  EXPECT_EQ(c.coord().tabletMap().entries().size(), tablets);
  // A name that already has a table still resolves, without a new id.
  EXPECT_EQ(c.createTable("7", 1), 7u);
  EXPECT_THROW(c.createTable("one-too-many", 1), std::length_error);

  // The largest id reaches a log entry whole.
  c.bulkLoad(last, 10, 100);
  const auto& segs = c.server(0).master->log().segments();
  bool seen = false;
  for (const auto& [id, seg] : segs) {
    const auto& hot = seg->hotEntries();
    for (std::size_t i = 0; i < hot.size(); ++i) {
      if (hot[i].tableId == log::kMaxTableId) seen = true;
    }
  }
  EXPECT_TRUE(seen);
}

TEST(Coordinator, DetectorNoticesCrashWithinASecond) {
  core::Cluster c([] {
    core::ClusterParams p;
    p.servers = 3;
    p.clients = 0;
    return p;
  }());
  c.createTable("t");
  c.bulkLoad(1, 1000, 1000);
  bool detected = false;
  sim::SimTime at = 0;
  server::ServerId crashed = 0;
  c.coord().onCrashDetected = [&](server::ServerId id) {
    detected = true;
    at = c.sim().now();
    crashed = id;
  };
  c.sim().runFor(seconds(2));
  const sim::SimTime killTime = c.sim().now();
  c.crashServer(1);
  c.sim().runFor(seconds(2));
  ASSERT_TRUE(detected);
  EXPECT_LT(at - killTime, seconds(1));
  EXPECT_EQ(crashed, c.serverNodeId(1));
  // The crashed server left the up list: a new table spans the other two.
  const auto later = c.createTable("later");
  int tablets = 0;
  for (const auto& e : c.coord().tabletMap().entries()) {
    if (e.tablet.tableId != later) continue;
    ++tablets;
    EXPECT_NE(e.tablet.owner, crashed);
  }
  EXPECT_EQ(tablets, 2);
}

TEST(Coordinator, NoFalsePositivesWhenHealthy) {
  core::Cluster c([] {
    core::ClusterParams p;
    p.servers = 3;
    p.clients = 0;
    return p;
  }());
  bool detected = false;
  c.coord().onCrashDetected = [&](server::ServerId) { detected = true; };
  c.sim().runFor(seconds(30));
  EXPECT_FALSE(detected);
}

TEST(Coordinator, RecoveryRestoresTabletOwnership) {
  core::Cluster c([] {
    core::ClusterParams p;
    p.servers = 4;
    p.clients = 0;
    p.replicationFactor = 2;
    return p;
  }());
  const auto table = c.createTable("t");
  c.bulkLoad(table, 20'000, 1000);

  c.sim().runFor(seconds(1));
  c.crashServer(2);
  const auto dead = c.serverNodeId(2);

  // Wait for recovery to finish.
  for (int i = 0; i < 600 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_FALSE(c.coord().recoveryLog().empty());
  const auto& rec = c.coord().recoveryLog().front();
  EXPECT_TRUE(rec.succeeded);
  EXPECT_EQ(rec.crashed, dead);
  EXPECT_EQ(rec.partitions, 3);

  // No tablet owned by the dead server, nothing left recovering.
  EXPECT_TRUE(c.coord().tabletMap().tabletsOwnedBy(dead).empty());
  EXPECT_FALSE(c.coord().tabletMap().anyRecovering());
  // All data readable from the new owners.
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 20'000));
}

TEST(Coordinator, RecoveryWithoutReplicationFailsSafely) {
  core::Cluster c([] {
    core::ClusterParams p;
    p.servers = 3;
    p.clients = 0;
    p.replicationFactor = 0;  // no replicas anywhere
    return p;
  }());
  const auto table = c.createTable("t");
  c.bulkLoad(table, 5'000, 1000);
  c.sim().runFor(seconds(1));
  c.crashServer(0);
  for (int i = 0; i < 300 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_FALSE(c.coord().recoveryLog().empty());
  EXPECT_FALSE(c.coord().recoveryLog().front().succeeded);  // data loss
}

TEST(Coordinator, SecondCrashDuringRecoveryIsHandled) {
  core::Cluster c([] {
    core::ClusterParams p;
    p.servers = 5;
    p.clients = 0;
    p.replicationFactor = 3;
    return p;
  }());
  const auto table = c.createTable("t");
  c.bulkLoad(table, 30'000, 1000);
  c.sim().runFor(seconds(1));
  c.crashServer(0);
  // Kill a second server (a recovery master) shortly after.
  c.sim().runFor(msec(600));
  c.crashServer(1);

  for (int i = 0;
       i < 1200 && c.coord().recoveryLog().size() < 2 && i < 1200; ++i) {
    c.sim().runFor(msec(100));
  }
  // Both recoveries eventually finish and all data survives (rf=3 tolerates
  // two failures).
  ASSERT_GE(c.coord().recoveryLog().size(), 2u);
  for (const auto& rec : c.coord().recoveryLog()) {
    EXPECT_TRUE(rec.succeeded);
  }
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 30'000));
}

TEST(Coordinator, RecoveryMasterDeathReassignsItsPartitions) {
  // Kill a recovery master 80 ms after the coordinator admits the first
  // recovery — while its partition replay is in flight (the plan's setup
  // delay is ~50 ms and partitions run well past 100 ms at this data
  // volume). The partition must
  // be reassigned (retryPartition), the recovery must still succeed, and
  // the journal must show each partition completed exactly once by a
  // surviving master (the dead master's attempt closes as abandoned).
  core::Cluster c([] {
    core::ClusterParams p;
    p.servers = 5;
    p.clients = 0;
    p.replicationFactor = 3;
    return p;
  }());
  const auto table = c.createTable("t");
  c.bulkLoad(table, 60'000, 1000);

  std::uint64_t firstRecoveryId = 0;
  c.coord().onRecoveryStarted = [&](std::uint64_t recoveryId,
                                    server::ServerId) {
    if (firstRecoveryId != 0) return;
    firstRecoveryId = recoveryId;
    c.sim().schedule(msec(80), [&c] { c.crashServer(1); });
  };

  c.sim().runFor(seconds(1));
  c.crashServer(0);

  // Both recoveries (the original crash, then the recovery master's own)
  // must complete.
  for (int i = 0; i < 1800 && (c.coord().recoveryLog().size() < 2 ||
                               c.coord().recoveryInProgress());
       ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_EQ(firstRecoveryId, 1u);
  ASSERT_GE(c.coord().recoveryLog().size(), 2u);
  for (const auto& rec : c.coord().recoveryLog()) {
    EXPECT_TRUE(rec.succeeded);
  }
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 60'000));

  // The log is completion-ordered and the delayed recovery finishes last —
  // find the original crash's record by victim.
  const RecoveryRecord* rec0 = nullptr;
  for (const auto& rec : c.coord().recoveryLog()) {
    if (rec.crashed == c.serverNodeId(0)) rec0 = &rec;
  }
  ASSERT_NE(rec0, nullptr);
  EXPECT_GE(rec0->partitionRetries, 1);

  // Span accounting for recovery 1: exactly one completed
  // partition_recovery span per partition, all owned by masters that are
  // still alive; the dead recovery master's attempt was abandoned.
  int completed = 0;
  int abandoned = 0;
  for (const auto* s : c.journal().spansNamed("partition_recovery")) {
    if (s->ctx != firstRecoveryId) continue;
    EXPECT_FALSE(s->open);
    if (s->abandoned) {
      ++abandoned;
      continue;
    }
    ++completed;
    bool ownerAlive = false;
    for (int i = 0; i < c.serverCount(); ++i) {
      ownerAlive |= c.serverAlive(i) && c.serverNodeId(i) == s->node;
    }
    EXPECT_TRUE(ownerAlive) << "completed partition span on dead node "
                            << s->node;
  }
  EXPECT_EQ(completed, rec0->partitions);
  EXPECT_GE(abandoned, 1);
}

}  // namespace
}  // namespace rc::coordinator
