// Tests for the paper's SS IX-B / SS X extension features implemented here:
// one-sided RDMA replication, table scans, and Ethernet transport.

#include <gtest/gtest.h>

#include "core/cluster.hpp"

namespace rc {
namespace {

using sim::msec;
using sim::seconds;

TEST(RdmaReplication, AckedWritesAreStillDurable) {
  core::ClusterParams p;
  p.servers = 5;
  p.clients = 1;
  p.replicationFactor = 3;
  p.master.replication.oneSidedRdma = true;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  auto& rc0 = *c.clientHost(0).rc;
  int pending = 100;
  for (std::uint64_t k = 0; k < 100; ++k) {
    rc0.write(table, k, 1000, [&pending](net::Status s, sim::Duration) {
      ASSERT_EQ(s, net::Status::kOk);
      --pending;
    });
  }
  while (pending > 0) c.sim().runFor(msec(20));

  // Crash the owner: data must come back from the RDMA'd frames.
  c.crashServer(c.ownerOfKey(table, 0) - 1);
  for (int i = 0; i < 600 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_FALSE(c.coord().recoveryLog().empty());
  EXPECT_TRUE(c.coord().recoveryLog().front().succeeded);
  for (std::uint64_t k = 0; k < 100; ++k) {
    auto* m = c.directory().masterOn(c.ownerOfKey(table, k));
    ASSERT_NE(m, nullptr);
    EXPECT_TRUE(m->objectMap().get(hash::Key{table, k}).has_value()) << k;
  }
}

TEST(RdmaReplication, FasterThanCpuReplication) {
  auto writeLatency = [](bool rdma) {
    core::ClusterParams p;
    p.servers = 5;
    p.clients = 1;
    p.replicationFactor = 3;
    p.master.replication.oneSidedRdma = rdma;
    core::Cluster c(p);
    const auto table = c.createTable("t");
    auto& rc0 = *c.clientHost(0).rc;
    sim::Histogram h;
    int pending = 50;
    for (std::uint64_t k = 0; k < 50; ++k) {
      rc0.write(table, k, 1000, [&](net::Status s, sim::Duration d) {
        ASSERT_EQ(s, net::Status::kOk);
        h.add(d);
        --pending;
      });
    }
    while (pending > 0) c.sim().runFor(msec(20));
    return h.mean();
  };
  EXPECT_LT(writeLatency(true), 0.75 * writeLatency(false));
}

TEST(Scan, CountsEveryObjectExactlyOnce) {
  core::ClusterParams p;
  p.servers = 4;
  p.clients = 1;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  c.bulkLoad(table, 12'345, 1000);

  net::Status st = net::Status::kError;
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  c.clientHost(0).rc->scanTable(table,
                                [&](net::Status s, std::uint64_t n,
                                    std::uint64_t b) {
                                  st = s;
                                  count = n;
                                  bytes = b;
                                });
  c.sim().runFor(seconds(30));
  EXPECT_EQ(st, net::Status::kOk);
  EXPECT_EQ(count, 12'345u);
  EXPECT_EQ(bytes, 12'345u * 1100);  // value + log metadata
}

TEST(Scan, UnknownTableReported) {
  core::ClusterParams p;
  p.servers = 2;
  p.clients = 1;
  core::Cluster c(p);
  c.createTable("t");
  net::Status st = net::Status::kOk;
  c.clientHost(0).rc->scanTable(999, [&](net::Status s, std::uint64_t,
                                          std::uint64_t) { st = s; });
  c.sim().runFor(seconds(5));
  EXPECT_EQ(st, net::Status::kUnknownTablet);
}

TEST(Scan, SeesUpdatesAndRemoves) {
  core::ClusterParams p;
  p.servers = 2;
  p.clients = 1;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  c.bulkLoad(table, 100, 1000);
  auto& rc0 = *c.clientHost(0).rc;
  int pending = 10;
  for (std::uint64_t k = 0; k < 10; ++k) {
    rc0.remove(table, k, [&pending](net::Status, sim::Duration) { --pending; });
  }
  while (pending > 0) c.sim().runFor(msec(20));

  std::uint64_t count = 0;
  rc0.scanTable(table, [&](net::Status, std::uint64_t n, std::uint64_t) {
    count = n;
  });
  c.sim().runFor(seconds(5));
  EXPECT_EQ(count, 90u);
}

TEST(MultiOps, MultiReadFindsEverythingAcrossServers) {
  core::ClusterParams p;
  p.servers = 4;
  p.clients = 1;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  c.bulkLoad(table, 5'000, 1000);

  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 1'000; ++k) keys.push_back(k);
  net::Status st = net::Status::kError;
  std::uint64_t served = 0, missing = 0;
  c.clientHost(0).rc->multiRead(table, keys,
                                [&](net::Status s, std::uint64_t a,
                                    std::uint64_t b) {
                                  st = s;
                                  served = a;
                                  missing = b;
                                });
  c.sim().runFor(seconds(5));
  EXPECT_EQ(st, net::Status::kOk);
  EXPECT_EQ(served, 1'000u);
  EXPECT_EQ(missing, 0u);
}

TEST(MultiOps, MultiReadReportsMissingKeys) {
  core::ClusterParams p;
  p.servers = 2;
  p.clients = 1;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  c.bulkLoad(table, 100, 1000);
  std::vector<std::uint64_t> keys{1, 2, 3, 5'000, 6'000};  // 2 absent
  std::uint64_t served = 0, missing = 0;
  c.clientHost(0).rc->multiRead(table, keys,
                                [&](net::Status, std::uint64_t a,
                                    std::uint64_t b) {
                                  served = a;
                                  missing = b;
                                });
  c.sim().runFor(seconds(5));
  EXPECT_EQ(served, 3u);
  EXPECT_EQ(missing, 2u);
}

TEST(MultiOps, MultiWritePersistsAndReplicates) {
  core::ClusterParams p;
  p.servers = 4;
  p.clients = 1;
  p.replicationFactor = 2;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 500; ++k) keys.push_back(k);
  net::Status st = net::Status::kError;
  c.clientHost(0).rc->multiWrite(table, keys, 1000,
                                 [&](net::Status s, std::uint64_t,
                                     std::uint64_t) { st = s; });
  c.sim().runFor(seconds(5));
  ASSERT_EQ(st, net::Status::kOk);
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 500));

  // Durability: crash an owner, recover, everything still there.
  c.crashServer(0);
  for (int i = 0; i < 600 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_FALSE(c.coord().recoveryLog().empty());
  EXPECT_TRUE(c.coord().recoveryLog().front().succeeded);
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 500));
}

TEST(MultiOps, MultiWriteLeavesTxLockedKeyAlone) {
  // A prepared transaction's version lock blocks a batched write exactly as
  // it blocks a single write: the key keeps its version and is reported not
  // served; the rest of the batch applies.
  core::ClusterParams p;
  p.servers = 2;
  p.clients = 1;
  p.replicationFactor = 1;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  c.bulkLoad(table, 20, 1000);
  const std::uint64_t locked = 7;
  server::MasterService& owner =
      *c.directory().masterOn(c.ownerOfKey(table, locked));
  const std::uint64_t before =
      owner.objectMap().get(hash::Key{table, locked})->version;
  server::TxLockTable::Lock lock;
  lock.txId = 99;
  lock.tableId = table;
  lock.keyId = locked;
  lock.pendingValueBytes = 1000;
  lock.expectedVersion = before;
  ASSERT_TRUE(owner.txLockTable().acquire(lock));

  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 20; ++k) keys.push_back(k);
  net::Status st = net::Status::kError;
  std::uint64_t served = 0, missing = 0;
  c.clientHost(0).rc->multiWrite(table, keys, 500,
                                 [&](net::Status s, std::uint64_t a,
                                     std::uint64_t b) {
                                   st = s;
                                   served = a;
                                   missing = b;
                                 });
  c.sim().runFor(seconds(5));
  EXPECT_EQ(st, net::Status::kOk);
  EXPECT_EQ(served, 19u);
  EXPECT_EQ(missing, 1u);
  EXPECT_EQ(owner.objectMap().get(hash::Key{table, locked})->version, before);
  EXPECT_EQ(owner.objectMap().get(hash::Key{table, locked})->sizeBytes,
            1000u + server::kObjectOverheadBytes);
  EXPECT_EQ(owner.txLockTable().conflicts(), 1u);
}

TEST(MultiOps, MultiWriteIntoMigratingRangeIsFenced) {
  // While a tablet is being shipped away, a batched write into it is fenced
  // on the source (nothing applied, every key reported not served), like a
  // single write bounced with kRecovering.
  core::ClusterParams p;
  p.servers = 3;
  p.clients = 1;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  c.bulkLoad(table, 9'000, 1000);
  server::MasterService& src = *c.server(0).master;
  const auto tablets = c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(0));
  ASSERT_EQ(tablets.size(), 1u);
  c.migrateTablet(tablets[0], 1, [](bool) {});
  for (int i = 0; i < 1000 && src.activeMigrations() == 0; ++i) {
    c.sim().runFor(sim::usec(10));
  }
  ASSERT_EQ(src.activeMigrations(), 1u);

  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> versions;
  for (std::uint64_t k = 0; keys.size() < 50; ++k) {
    if (c.ownerOfKey(table, k) != c.serverNodeId(0)) continue;
    keys.push_back(k);
    versions.push_back(src.objectMap().get(hash::Key{table, k})->version);
  }
  bool done = false;
  std::uint64_t served = 0, missing = 0;
  c.clientHost(0).rc->multiWrite(table, keys, 500,
                                 [&](net::Status, std::uint64_t a,
                                     std::uint64_t b) {
                                   served = a;
                                   missing = b;
                                   done = true;
                                 });
  while (!done) c.sim().runFor(sim::usec(50));
  ASSERT_EQ(src.activeMigrations(), 1u);  // still shipping when it landed
  EXPECT_EQ(served, 0u);
  EXPECT_EQ(missing, keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(src.objectMap().get(hash::Key{table, keys[i]})->version,
              versions[i])
        << keys[i];
  }
}

TEST(MultiOps, MultiWriteSpanningSegmentRollsSurvivesOwnerCrash) {
  // Small segments make each master's share of the batch roll the log head
  // several times. The ack must mean every segment the batch landed in is
  // replicated: crash the owner the moment the ack arrives, recover, and
  // every key is back.
  core::ClusterParams p;
  p.servers = 4;
  p.clients = 1;
  p.replicationFactor = 2;
  p.master.log.segmentBytes = 32 * 1024;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 400; ++k) keys.push_back(k);
  net::Status st = net::Status::kError;
  bool done = false;
  c.clientHost(0).rc->multiWrite(table, keys, 1000,
                                 [&](net::Status s, std::uint64_t,
                                     std::uint64_t) {
                                   st = s;
                                   done = true;
                                 });
  while (!done) c.sim().runFor(sim::usec(1));
  ASSERT_EQ(st, net::Status::kOk);
  ASSERT_GT(c.server(0).master->log().segments().size(), 2u);
  c.crashServer(0);
  for (int i = 0; i < 600 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_FALSE(c.coord().recoveryLog().empty());
  EXPECT_TRUE(c.coord().recoveryLog().front().succeeded);
  std::uint64_t firstMissing = 0;
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 400, &firstMissing))
      << firstMissing;
}

TEST(MultiOps, BatchingAmortisesPerOpCost) {
  // 1000 keys via multiRead must take far less simulated time than 1000
  // sequential single reads (the point of RAMCloud's batched API).
  core::ClusterParams p;
  p.servers = 2;
  p.clients = 1;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  c.bulkLoad(table, 2'000, 1000);
  auto& rc0 = *c.clientHost(0).rc;

  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 1'000; ++k) keys.push_back(k);

  const sim::SimTime t0 = c.sim().now();
  bool done = false;
  rc0.multiRead(table, keys, [&](net::Status, std::uint64_t,
                                 std::uint64_t) { done = true; });
  while (!done) c.sim().runFor(sim::usec(50));
  const sim::Duration batched = c.sim().now() - t0;

  const sim::SimTime t1 = c.sim().now();
  std::uint64_t remaining = 1'000;
  std::function<void(std::uint64_t)> one = [&](std::uint64_t k) {
    rc0.read(table, k, [&, k](net::Status, sim::Duration) {
      if (--remaining > 0) one(k + 1);
    });
  };
  one(0);
  while (remaining > 0) c.sim().runFor(sim::usec(50));
  const sim::Duration sequential = c.sim().now() - t1;

  EXPECT_LT(batched * 5, sequential);
}

TEST(EthernetTransport, SlowerReadsThanInfiniband) {
  auto meanReadLatency = [](net::TransportParams t) {
    core::ClusterParams p;
    p.servers = 2;
    p.clients = 1;
    p.transport = t;
    core::Cluster c(p);
    const auto table = c.createTable("t");
    c.bulkLoad(table, 100, 1000);
    sim::Histogram h;
    int pending = 50;
    for (std::uint64_t k = 0; k < 50; ++k) {
      c.clientHost(0).rc->read(table, k % 100,
                               [&](net::Status s, sim::Duration d) {
                                 if (s == net::Status::kOk) h.add(d);
                                 --pending;
                               });
    }
    while (pending > 0) c.sim().runFor(msec(20));
    return h.mean();
  };
  const double ib = meanReadLatency(net::TransportParams::infiniband());
  const double eth =
      meanReadLatency(net::TransportParams::gigabitEthernet());
  // ~60 us of extra round trip on kernel TCP + GigE.
  EXPECT_GT(eth, ib + 40e3);
}

}  // namespace
}  // namespace rc
