// Exactly-once RPC semantics (RIFL, docs/LINEARIZABILITY.md): unit tests
// for the UnackedRpcResults table plus cluster-level tests that drive the
// whole lease / completion-record / duplicate-suppression path — lost
// replies, a master crash between apply and reply, lease expiry, and
// tablet migration carrying the suppression state along.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "server/master_service.hpp"
#include "server/unacked_rpc_results.hpp"

namespace rc {
namespace {

using server::UnackedRpcResults;
using sim::msec;
using sim::seconds;

using Check = UnackedRpcResults::Check;

UnackedRpcResults::Result result(std::uint64_t version, std::uint64_t tableId,
                                 std::uint64_t keyId,
                                 log::SegmentId segment) {
  UnackedRpcResults::Result r;
  r.status = 0;
  r.version = version;
  r.tableId = tableId;
  r.keyId = keyId;
  r.record = log::LogRef{segment, 0};
  return r;
}

// ----- UnackedRpcResults unit tests

TEST(UnackedRpcResults, NewThenDuplicateReplaysRecordedResult) {
  UnackedRpcResults u;
  std::vector<log::LogRef> freed;
  EXPECT_EQ(u.begin(7, 1, 1, &freed).check, Check::kNew);
  u.recordCompletion(7, 1, result(42, 1, 9, 3));

  const auto dup = u.begin(7, 1, 1, &freed);
  EXPECT_EQ(dup.check, Check::kCompleted);
  EXPECT_EQ(dup.result.version, 42u);
  EXPECT_EQ(dup.result.record.segment, 3u);
  EXPECT_EQ(u.duplicatesSuppressed(), 1u);
  EXPECT_EQ(u.completionsRecorded(), 1u);
  EXPECT_TRUE(freed.empty());
}

TEST(UnackedRpcResults, InProgressUntilRecorded) {
  UnackedRpcResults u;
  std::vector<log::LogRef> freed;
  EXPECT_EQ(u.begin(7, 1, 1, &freed).check, Check::kNew);
  // The retry of an op whose first attempt is still executing backs off
  // instead of double-executing.
  EXPECT_EQ(u.begin(7, 1, 1, &freed).check, Check::kInProgress);
  u.recordCompletion(7, 1, result(5, 1, 1, 1));
  EXPECT_EQ(u.begin(7, 1, 1, &freed).check, Check::kCompleted);
}

TEST(UnackedRpcResults, AbortInProgressAllowsReexecution) {
  UnackedRpcResults u;
  std::vector<log::LogRef> freed;
  EXPECT_EQ(u.begin(7, 1, 1, &freed).check, Check::kNew);
  u.abortInProgress(7, 1);  // replication failed; nothing durable
  EXPECT_EQ(u.begin(7, 1, 1, &freed).check, Check::kNew);
}

TEST(UnackedRpcResults, WatermarkGcFreesRecordsAndRejectsStale) {
  UnackedRpcResults u;
  std::vector<log::LogRef> freed;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    ASSERT_EQ(u.begin(7, s, 1, &freed).check, Check::kNew);
    u.recordCompletion(7, s, result(s, 1, s, s));
  }
  ASSERT_TRUE(freed.empty());

  // firstUnacked = 4 means the client saw acks for 1..3: their records are
  // garbage now.
  EXPECT_EQ(u.begin(7, 4, 4, &freed).check, Check::kNew);
  EXPECT_EQ(freed.size(), 3u);
  EXPECT_EQ(u.recordsGced(), 3u);

  // Anything below the watermark is a protocol violation, not a duplicate.
  EXPECT_EQ(u.begin(7, 2, 4, &freed).check, Check::kStale);
  EXPECT_EQ(u.staleRejected(), 1u);
}

TEST(UnackedRpcResults, RecoverIgnoresDuplicateCopies) {
  UnackedRpcResults u;
  // The same completion seen from two replicas of the dead master's log.
  EXPECT_TRUE(u.recover(7, 1, result(10, 1, 5, 2)));
  EXPECT_FALSE(u.recover(7, 1, result(10, 1, 5, 4)));
  EXPECT_EQ(u.recordsRecovered(), 1u);

  std::vector<log::LogRef> freed;
  const auto dup = u.begin(7, 1, 1, &freed);
  EXPECT_EQ(dup.check, Check::kCompleted);
  EXPECT_EQ(dup.result.version, 10u);
}

TEST(UnackedRpcResults, ReclaimExpiredDropsDeadClients) {
  UnackedRpcResults u;
  std::vector<log::LogRef> freed;
  ASSERT_EQ(u.begin(1, 1, 1, &freed).check, Check::kNew);
  u.recordCompletion(1, 1, result(1, 1, 1, 1));
  ASSERT_EQ(u.begin(2, 1, 1, &freed).check, Check::kNew);
  u.recordCompletion(2, 1, result(2, 1, 2, 2));
  ASSERT_EQ(u.trackedClients(), 2u);

  const auto reclaimed = u.reclaimExpired(
      [](std::uint64_t clientId) { return clientId == 1; }, &freed);
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_EQ(u.trackedClients(), 1u);
  EXPECT_EQ(u.clientsExpired(), 1u);
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0].segment, 2u);
}

TEST(UnackedRpcResults, CollectAndEraseForRange) {
  UnackedRpcResults u;
  std::vector<log::LogRef> freed;
  ASSERT_EQ(u.begin(7, 1, 1, &freed).check, Check::kNew);
  u.recordCompletion(7, 1, result(1, 1, 5, 1));
  ASSERT_EQ(u.begin(7, 2, 1, &freed).check, Check::kNew);
  u.recordCompletion(7, 2, result(2, 1, 500, 2));

  const auto inRange = [](std::uint64_t tableId, std::uint64_t keyId) {
    return tableId == 1 && keyId < 100;
  };
  const auto collected = u.collectForRange(inRange);
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].clientId, 7u);
  EXPECT_EQ(collected[0].seq, 1u);
  EXPECT_EQ(collected[0].result.keyId, 5u);

  u.eraseForRange(inRange, &freed);
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0].segment, 1u);
  EXPECT_TRUE(u.collectForRange(inRange).empty());
  // The out-of-range completion is untouched.
  std::vector<log::LogRef> freed2;
  EXPECT_EQ(u.begin(7, 2, 1, &freed2).check, Check::kCompleted);
}

// ----- cluster-level tests

core::ClusterParams params(int servers, int clients, int rf) {
  core::ClusterParams p;
  p.servers = servers;
  p.clients = clients;
  p.replicationFactor = rf;
  return p;
}

int ownerIndexOf(const core::Cluster& c, std::uint64_t table,
                 std::uint64_t keyId) {
  return static_cast<int>(c.ownerOfKey(table, keyId)) - 1;
}

TEST(Linearize, ConditionalWriteChecksVersionOnMaster) {
  core::Cluster c(params(1, 1, 0));
  const auto table = c.createTable("t");
  auto& rc = *c.clientHost(0).rc;

  std::uint64_t v1 = 0;
  std::uint64_t v2 = 0;
  net::Status mismatch = net::Status::kOk;
  std::uint64_t mismatchVersion = 0;
  rc.writeV(table, 9, 100, 0,
            [&](net::Status s, std::uint64_t v, sim::Duration) {
              ASSERT_EQ(s, net::Status::kOk);
              v1 = v;
              rc.writeV(table, 9, 100, v1,
                        [&](net::Status s2, std::uint64_t w, sim::Duration) {
                          ASSERT_EQ(s2, net::Status::kOk);
                          v2 = w;
                          // Same precondition again: must lose to v2.
                          rc.writeV(table, 9, 100, v1,
                                    [&](net::Status s3, std::uint64_t cur,
                                        sim::Duration) {
                                      mismatch = s3;
                                      mismatchVersion = cur;
                                    });
                        });
            });
  c.sim().runFor(seconds(2));
  EXPECT_GT(v1, 0u);
  EXPECT_GT(v2, v1);
  EXPECT_EQ(mismatch, net::Status::kVersionMismatch);
  EXPECT_EQ(mismatchVersion, v2);

  std::uint64_t readVersion = 0;
  rc.readV(table, 9, [&](net::Status s, std::uint64_t v, sim::Duration) {
    ASSERT_EQ(s, net::Status::kOk);
    readVersion = v;
  });
  c.sim().runFor(seconds(1));
  EXPECT_EQ(readVersion, v2);  // the rejected duplicate never applied
}

TEST(Linearize, LostRepliesForceRetriesButApplyOnce) {
  core::Cluster c(params(2, 1, 0));
  const auto table = c.createTable("t", 1);
  auto& rc = *c.clientHost(0).rc;

  // Warm the map and the lease so the fault window hits a steady client.
  rc.writeV(table, 1, 100, 0,
            [](net::Status s, std::uint64_t, sim::Duration) {
              ASSERT_EQ(s, net::Status::kOk);
            });
  c.sim().runFor(msec(300));
  const int owner = ownerIndexOf(c, table, 2);

  fault::FaultPlan plan;
  plan.replyDrop(msec(400), owner, /*probability=*/1.0, msec(1500));
  fault::FaultInjector injector(c, plan, c.sim().rng().fork(0x11F1));
  injector.arm();
  c.sim().runFor(msec(200));  // into the drop window

  net::Status st = net::Status::kError;
  std::uint64_t writeVersion = 0;
  rc.writeV(table, 2, 100, 0,
            [&](net::Status s, std::uint64_t v, sim::Duration) {
              st = s;
              writeVersion = v;
            });
  c.sim().runFor(seconds(6));

  EXPECT_EQ(st, net::Status::kOk);
  EXPECT_GE(rc.retriesForOpcode(net::Opcode::kWrite), 1u);
  const auto& unacked = c.server(owner).master->unackedRpcResults();
  EXPECT_GE(unacked.duplicatesSuppressed(), 1u);
  EXPECT_GT(c.metrics().value("cluster.linearize.duplicates_suppressed"), 0.0);
  EXPECT_GT(c.metrics().value("net.rpc.retries.write"), 0.0);

  // Exactly once: the retried write produced one version, and that is what
  // a read observes.
  std::uint64_t readVersion = 0;
  rc.readV(table, 2, [&](net::Status s, std::uint64_t v, sim::Duration) {
    ASSERT_EQ(s, net::Status::kOk);
    readVersion = v;
  });
  c.sim().runFor(seconds(1));
  EXPECT_EQ(readVersion, writeVersion);
}

TEST(Linearize, LostRemoveReplyIsRetriedButAppliedOnce) {
  core::Cluster c(params(2, 1, 0));
  const auto table = c.createTable("t", 1);
  auto& rc = *c.clientHost(0).rc;

  rc.write(table, 2, 100, [](net::Status s, sim::Duration) {
    ASSERT_EQ(s, net::Status::kOk);
  });
  c.sim().runFor(msec(300));
  const int owner = ownerIndexOf(c, table, 2);

  fault::FaultPlan plan;
  plan.replyDrop(msec(400), owner, /*probability=*/1.0, msec(1500));
  fault::FaultInjector injector(c, plan, c.sim().rng().fork(0x11F1));
  injector.arm();
  c.sim().runFor(msec(200));  // into the drop window

  net::Status st = net::Status::kError;
  rc.remove(table, 2, [&](net::Status s, sim::Duration) { st = s; });
  c.sim().runFor(seconds(6));

  EXPECT_EQ(st, net::Status::kOk);
  EXPECT_GE(rc.retriesForOpcode(net::Opcode::kRemove), 1u);
  const auto& master = *c.server(owner).master;
  const auto& unacked = master.unackedRpcResults();
  EXPECT_GE(unacked.duplicatesSuppressed(), 1u);
  EXPECT_GT(c.metrics().value("cluster.linearize.duplicates_suppressed"), 0.0);

  // The completion record says the remove found the object, and replaying
  // it (one more duplicate of the same seq) answers found again rather
  // than re-executing against the now-absent key.
  const auto records = unacked.collectForRange(
      [&](std::uint64_t t, std::uint64_t k) { return t == table && k == 2; });
  ASSERT_FALSE(records.empty());
  const auto& rec = *std::max_element(
      records.begin(), records.end(),
      [](const auto& x, const auto& y) { return x.seq < y.seq; });
  EXPECT_TRUE(rec.result.found);
  net::RpcRequest dup;
  dup.op = net::Opcode::kRemove;
  dup.a = table;
  dup.b = 2;
  dup.clientId = rc.clientId();
  dup.rpcSeq = rec.seq;
  dup.firstUnacked = rec.seq;
  net::RpcResponse replay;
  bool replied = false;
  c.rpc().call(c.clientNodeId(0), c.serverNodeId(owner), net::kMasterPort,
               dup, seconds(1), [&](const net::RpcResponse& r) {
                 replay = r;
                 replied = true;
               });
  c.sim().runFor(msec(100));
  ASSERT_TRUE(replied);
  EXPECT_EQ(replay.status, net::Status::kOk);
  EXPECT_EQ(replay.a, 1u);  // found

  EXPECT_FALSE(master.objectMap().get(hash::Key{table, 2}).has_value());
}

TEST(Linearize, CrashBetweenApplyAndReplyIsSuppressedByRecovery) {
  core::Cluster c(params(4, 1, 2));
  const auto table = c.createTable("t", 1);
  c.bulkLoad(table, 300, 200);
  auto& rc = *c.clientHost(0).rc;

  rc.writeV(table, 3, 100, 0,
            [](net::Status s, std::uint64_t, sim::Duration) {
              ASSERT_EQ(s, net::Status::kOk);
            });
  c.sim().runFor(msec(300));
  const int owner = ownerIndexOf(c, table, 7);

  fault::FaultPlan plan;
  plan.crashBeforeReply(msec(400), owner);
  fault::FaultInjector injector(c, plan, c.sim().rng().fork(0x11F2));
  injector.arm();
  c.sim().runFor(msec(200));  // hook armed; next write triggers it

  net::Status st = net::Status::kError;
  std::uint64_t writeVersion = 0;
  rc.writeV(table, 7, 100, 0,
            [&](net::Status s, std::uint64_t v, sim::Duration) {
              st = s;
              writeVersion = v;
            });
  const sim::SimTime deadline = c.sim().now() + seconds(120);
  while (c.sim().now() < deadline &&
         (st == net::Status::kError || c.coord().recoveryInProgress())) {
    c.sim().runFor(msec(100));
  }

  // The write applied durably before the crash; the retry must have been
  // answered from the completion record replayed on the new owner, not
  // re-executed.
  EXPECT_EQ(st, net::Status::kOk);
  EXPECT_GT(writeVersion, 0u);
  EXPECT_EQ(injector.crashesInjected(), 1);
  EXPECT_EQ(c.journal().spansNamed("fault_crash_before_reply").size(), 1u);
  std::uint64_t recovered = 0;
  std::uint64_t suppressed = 0;
  for (int i = 0; i < c.serverCount(); ++i) {
    if (!c.serverAlive(i)) continue;
    recovered += c.server(i).master->unackedRpcResults().recordsRecovered();
    suppressed +=
        c.server(i).master->unackedRpcResults().duplicatesSuppressed();
  }
  EXPECT_GE(recovered, 1u);
  EXPECT_GE(suppressed, 1u);

  std::uint64_t readVersion = 0;
  rc.readV(table, 7, [&](net::Status s, std::uint64_t v, sim::Duration) {
    ASSERT_EQ(s, net::Status::kOk);
    readVersion = v;
  });
  c.sim().runFor(seconds(2));
  EXPECT_EQ(readVersion, writeVersion);
}

TEST(Linearize, StalledClientLosesLeaseAndReopens) {
  core::ClusterParams p = params(1, 1, 0);
  p.coordinator.leaseTerm = msec(600);
  p.coordinator.leaseSweepInterval = msec(100);
  core::Cluster c(p);
  const auto table = c.createTable("t");
  auto& rc = *c.clientHost(0).rc;

  rc.writeV(table, 1, 100, 0,
            [](net::Status s, std::uint64_t, sim::Duration) {
              ASSERT_EQ(s, net::Status::kOk);
            });
  c.sim().runFor(msec(300));
  const std::uint64_t firstLease = rc.clientId();
  ASSERT_NE(firstLease, 0u);
  ASSERT_EQ(c.coord().activeLeases(), 1u);

  // Freeze the client well past its lease term: no renewals.
  rc.stallFor(seconds(2));
  c.sim().runFor(msec(2700));
  EXPECT_GE(c.coord().leasesExpired(), 1u);
  const auto& unacked = c.server(0).master->unackedRpcResults();
  EXPECT_GE(unacked.clientsExpired(), 1u);
  EXPECT_EQ(unacked.trackedClients(), 0u);

  // The next tracked op observes kExpiredLease, reopens, and succeeds.
  net::Status st = net::Status::kError;
  rc.writeV(table, 1, 100, 0,
            [&](net::Status s, std::uint64_t, sim::Duration) { st = s; });
  c.sim().runFor(seconds(2));
  EXPECT_EQ(st, net::Status::kOk);
  EXPECT_GE(rc.stats().leaseExpiries, 1u);
  EXPECT_NE(rc.clientId(), 0u);
  EXPECT_NE(rc.clientId(), firstLease);
  EXPECT_GE(c.coord().leasesIssued(), 2u);
}

TEST(Linearize, MigrationCarriesSuppressionState) {
  core::Cluster c(params(2, 1, 0));
  const auto table = c.createTable("t", 1);
  auto& rc = *c.clientHost(0).rc;

  std::uint64_t v1 = 0;
  rc.writeV(table, 5, 100, 0,
            [&](net::Status s, std::uint64_t v, sim::Duration) {
              ASSERT_EQ(s, net::Status::kOk);
              v1 = v;
            });
  c.sim().runFor(msec(300));
  const auto tablets = c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(0));
  ASSERT_EQ(tablets.size(), 1u);
  ASSERT_GE(c.server(0).master->unackedRpcResults().completionsRecorded(), 1u);

  bool ok = false;
  c.migrateTablet(tablets[0], 1, [&ok](bool r) { ok = r; });
  c.sim().runFor(seconds(20));
  ASSERT_TRUE(ok);

  // The destination installed the shipped completion records.
  EXPECT_GE(c.server(1).master->unackedRpcResults().recordsRecovered(), 1u);

  // Life goes on at the new owner: a conditional write against the version
  // produced before the move.
  net::Status st = net::Status::kError;
  std::uint64_t v2 = 0;
  rc.writeV(table, 5, 100, v1,
            [&](net::Status s, std::uint64_t v, sim::Duration) {
              st = s;
              v2 = v;
            });
  c.sim().runFor(seconds(2));
  EXPECT_EQ(st, net::Status::kOk);
  EXPECT_GT(v2, v1);
}

}  // namespace
}  // namespace rc
