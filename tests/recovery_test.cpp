// Focused tests of crash-recovery semantics: replica watermarks, backup
// partition filtering, version-ordered replay, and the disk/backpressure
// path that shapes the paper's Findings 5 and 6.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "server/backup_service.hpp"
#include "server/master_service.hpp"

namespace rc::server {
namespace {

using sim::msec;
using sim::seconds;

core::ClusterParams params(int servers, int rf,
                           std::uint64_t segBytes = 8 * 1024 * 1024) {
  core::ClusterParams p;
  p.servers = servers;
  p.clients = 1;
  p.replicationFactor = rf;
  p.master.log.segmentBytes = segBytes;
  return p;
}

TEST(BackupFilter, PartitionsAreDisjointAndComplete) {
  core::Cluster c(params(4, 2));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 5'000, 1000);

  // Build a 3-partition spec over server 1's tablets by hand.
  const auto victim = c.serverNodeId(0);
  const auto tablets = c.coord().tabletMap().tabletsOwnedBy(victim);
  ASSERT_FALSE(tablets.empty());
  std::vector<PartitionSpec> parts(3);
  for (const auto& t : tablets) {
    const std::uint64_t step = (t.endHash - t.startHash) / 3;
    for (int i = 0; i < 3; ++i) {
      Tablet sub = t;
      sub.startHash = t.startHash + static_cast<std::uint64_t>(i) * step;
      sub.endHash = i == 2 ? t.endHash : sub.startHash + step - 1;
      parts[static_cast<std::size_t>(i)].ranges.push_back(sub);
    }
  }

  // Pick any backup frame of the victim and check the filter.
  std::size_t total = 0;
  std::size_t inSegment = 0;
  bool found = false;
  for (int i = 1; i < c.serverCount() && !found; ++i) {
    auto* bs = c.server(i).backup.get();
    for (const auto& fi : bs->framesForMaster(victim)) {
      std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
      for (int pi = 0; pi < 3; ++pi) {
        for (const auto& e : bs->filteredEntries(
                 victim, fi.segment, parts[static_cast<std::size_t>(pi)])) {
          // Disjoint: no entry may appear in two partitions.
          EXPECT_TRUE(seen.insert({e.keyId, e.version}).second);
          ++total;
        }
      }
      // Complete: the union must equal the unfiltered watermark count.
      PartitionSpec all;
      all.ranges = tablets;
      inSegment += bs->filteredEntries(victim, fi.segment, all).size();
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(total, inSegment);
  EXPECT_GT(total, 0u);
}

TEST(BackupFilter, WatermarkExcludesUnreplicatedTail) {
  // Install a frame whose acked watermark covers only part of a segment:
  // filtering must stop at the watermark.
  core::Cluster c(params(2, 0));
  const auto table = c.createTable("t", 1);
  auto& master = *c.server(0).master;
  for (std::uint64_t k = 0; k < 10; ++k) {
    master.bulkInsert(table, k, 1000);
  }
  auto seg = master.log().sharedSegment(
      master.log().segments().begin()->first);
  ASSERT_NE(seg, nullptr);
  ASSERT_EQ(seg->entryCount(), 10u);

  auto* bs = c.server(1).backup.get();
  // Watermark = 5 entries' worth of bytes.
  bs->bulkInstallFrame(c.serverNodeId(0), seg, 5 * 1100, true, false);
  PartitionSpec all;
  Tablet t;
  t.tableId = table;
  all.ranges.push_back(t);
  const auto entries =
      bs->filteredEntries(c.serverNodeId(0), seg->id(), all);
  EXPECT_EQ(entries.size(), 5u);
}

TEST(Recovery, OnlyAckedBytesAreRestored) {
  // A write whose replication never completed (master died mid-sync) must
  // not resurrect: the acked prefix defines the durable state.
  core::Cluster c(params(3, 1));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 3'000, 1000);
  c.sim().runFor(seconds(1));
  c.crashServer(0);
  for (int i = 0; i < 600 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_FALSE(c.coord().recoveryLog().empty());
  EXPECT_TRUE(c.coord().recoveryLog().front().succeeded);
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 3'000));
}

/// Builds a fresh 3-server cluster, crashes one master and returns the
/// lowest recovery side-log segment id the survivors adopted
/// (kInvalidSegment if none).
log::SegmentId firstSideLogSegmentAfterRecovery() {
  core::Cluster c(params(3, 1));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 2'000, 1000);
  c.sim().runFor(seconds(1));
  c.crashServer(0);
  for (int i = 0; i < 600 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  EXPECT_FALSE(c.coord().recoveryLog().empty());
  log::SegmentId lowest = log::kInvalidSegment;
  for (int i = 1; i < c.serverCount(); ++i) {
    for (const auto& [id, seg] : c.server(i).master->log().segments()) {
      if (id >= log::kSideLogIdBase) lowest = std::min(lowest, id);
    }
  }
  return lowest;
}

TEST(Recovery, SideLogIdsArePerClusterNotPerProcess) {
  // The second cluster in this process recovers after the first one did;
  // its side logs must still start at the first block.
  EXPECT_EQ(firstSideLogSegmentAfterRecovery(), log::sideLogIdBase(0));
  EXPECT_EQ(firstSideLogSegmentAfterRecovery(), log::sideLogIdBase(0));
}

TEST(Recovery, SideLogIdBlocksStayAboveMainLogIds) {
  EXPECT_EQ(log::sideLogIdBase(0), log::kSideLogIdBase);
  EXPECT_EQ(log::sideLogIdBase(1), log::kSideLogIdBase + (1u << 16));
  EXPECT_LT(log::sideLogIdBase(32'766), log::kInvalidSegment - 0xffffu);
  EXPECT_THROW(log::sideLogIdBase(32'767), std::length_error);
}

TEST(Recovery, ReplayPrefersNewestVersion) {
  // Overwrites produce multiple entries for one key across segments; the
  // recovered object must carry the highest acked version.
  core::Cluster c(params(4, 2, /*segBytes=*/64 * 1024));
  const auto table = c.createTable("t");
  auto& rc0 = *c.clientHost(0).rc;

  // Write the same keys repeatedly so old versions span many segments.
  int pending = 0;
  std::map<std::uint64_t, std::uint64_t> lastVersion;
  for (int round = 0; round < 8; ++round) {
    for (std::uint64_t k = 0; k < 50; ++k) {
      ++pending;
      rc0.write(table, k, 1000, [&pending](net::Status s, sim::Duration) {
        ASSERT_EQ(s, net::Status::kOk);
        --pending;
      });
    }
    while (pending > 0) c.sim().runFor(msec(20));
  }
  // Record authoritative versions per key before the crash.
  for (std::uint64_t k = 0; k < 50; ++k) {
    const auto owner = c.ownerOfKey(table, k);
    const auto loc =
        c.directory().masterOn(owner)->objectMap().get(hash::Key{table, k});
    ASSERT_TRUE(loc.has_value());
    lastVersion[k] = loc->version;
  }

  // Crash each owner of some keys one at a time? One crash suffices.
  c.crashServer(1);
  for (int i = 0; i < 600 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_TRUE(c.coord().recoveryLog().front().succeeded);

  for (std::uint64_t k = 0; k < 50; ++k) {
    const auto owner = c.ownerOfKey(table, k);
    const auto loc =
        c.directory().masterOn(owner)->objectMap().get(hash::Key{table, k});
    ASSERT_TRUE(loc.has_value()) << "key " << k;
    EXPECT_EQ(loc->version, lastVersion[k]) << "key " << k;
  }
}

TEST(Recovery, SpreadsDataAcrossAllSurvivors) {
  core::Cluster c(params(5, 2));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 20'000, 1000);
  c.sim().runFor(seconds(1));
  const auto before0 = c.server(0).master->objectMap().size();
  c.crashServer(3);
  for (int i = 0; i < 900 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_TRUE(c.coord().recoveryLog().front().succeeded);
  // Every survivor picked up a share (4 partitions over 4 masters).
  for (int i = 0; i < 5; ++i) {
    if (i == 3) continue;
    EXPECT_GT(c.server(i).master->objectMap().size(),
              before0 + 500);  // baseline plus a recovered share
  }
}

TEST(Recovery, ReRereplicationMakesRecoveredDataDurableAgain) {
  // After recovery, a SECOND crash (of a recovery master) must still lose
  // nothing: the replayed data was re-replicated.
  core::Cluster c(params(5, 2));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 10'000, 1000);
  c.sim().runFor(seconds(1));
  c.crashServer(0);
  for (int i = 0; i < 900 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_TRUE(c.coord().recoveryLog().front().succeeded);
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 10'000));

  // Now kill one of the recovery masters.
  c.crashServer(2);
  for (int i = 0; i < 900 && c.coord().recoveryLog().size() < 2; ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_GE(c.coord().recoveryLog().size(), 2u);
  EXPECT_TRUE(c.coord().recoveryLog()[1].succeeded);
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 10'000));
}

TEST(Recovery, CrashedRecoveryMasterDropsItsPendingBackupWrites) {
  // Crashing a recovery master mid-replay destroys its RecoveryTask, and
  // with it the side log's ReplicaManager, while a whole-segment backup
  // write is still in flight. That write's send timer, RPC reply and
  // ack/backoff continuations must become no-ops instead of reading the
  // freed manager (a sanitizer build reports the use-after-free).
  core::Cluster c(params(5, 2, 1 * 1024 * 1024));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 40'000, 1000);
  c.sim().runFor(seconds(1));
  c.crashServer(0);
  // An open side-log "rereplication" span (parented to its recovery task)
  // marks a write whose continuations are still pending.
  int busyNode = -1;
  for (int i = 0; i < 200'000 && busyNode < 0; ++i) {
    c.sim().runFor(sim::usec(50));
    for (const auto& s : c.journal().spans()) {
      if (s.name == "rereplication" && s.open && s.parent != 0) {
        busyNode = s.node;
      }
    }
  }
  ASSERT_GT(busyNode, 1);
  const int busy = busyNode - 1;  // serverNodeId(idx) == 1 + idx
  ASSERT_GT(c.server(busy).master->activeRecoveries(), 0u);
  c.crashServer(busy);
  EXPECT_EQ(c.server(busy).master->activeRecoveries(), 0u);
  // Past the replication timeout: every orphaned continuation has fired.
  c.sim().runFor(seconds(2));
  EXPECT_EQ(c.aliveServerCount(), 3);
}

TEST(Recovery, DiskReadsHappenWhenFramesWereFlushed) {
  // Bulk-loaded sealed segments sit on disk; recovery must read them back
  // (the paper Fig. 12's read activity).
  core::ExperimentConfig cfg;
  cfg.cluster.servers = 4;
  cfg.cluster.replicationFactor = 2;
  cfg.workload = ycsb::WorkloadSpec::C(100'000);
  cfg.crash.emplace();
  cfg.crash->killAt = seconds(3);
  cfg.crash->settleAfter = seconds(1);
  const auto r = core::runExperiment(cfg);
  ASSERT_TRUE(r.recovered);
  EXPECT_GT(r.diskReadMBps.maxValue(), 0.5);
}

TEST(Recovery, HigherRfWritesProportionallyMoreToDisk) {
  double written[2];
  int i = 0;
  for (int rf : {1, 3}) {
    core::ExperimentConfig cfg;
    cfg.cluster.servers = 5;
    cfg.cluster.replicationFactor = rf;
    cfg.workload = ycsb::WorkloadSpec::C(100'000);
    cfg.crash.emplace();
    cfg.crash->killAt = seconds(3);
    cfg.crash->settleAfter = seconds(2);
    const auto r = core::runExperiment(cfg);
    ASSERT_TRUE(r.recovered);
    double total = 0;
    for (const auto& p : r.diskWriteMBps.points()) {
      if (p.time > r.killTime) total += p.value;
    }
    written[i++] = total;
  }
  EXPECT_GT(written[1], 2.0 * written[0]);
}

}  // namespace
}  // namespace rc::server
