// Tests for the master/backup services, dispatch and replication manager,
// exercised through a small simulated cluster.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/cluster.hpp"
#include "server/backup_service.hpp"
#include "server/dispatch.hpp"
#include "server/master_service.hpp"

namespace rc::server {
namespace {

using sim::msec;
using sim::seconds;
using sim::usec;

core::ClusterParams smallCluster(int servers, int rf) {
  core::ClusterParams p;
  p.servers = servers;
  p.clients = 1;
  p.replicationFactor = rf;
  return p;
}

net::RpcResponse callSync(core::Cluster& c, node::NodeId to,
                          net::RpcRequest req,
                          sim::Duration timeout = seconds(2)) {
  net::RpcResponse out;
  bool done = false;
  c.rpc().call(c.clientNodeId(0), to, net::kMasterPort, req, timeout,
               [&](const net::RpcResponse& r) {
                 out = r;
                 done = true;
               });
  while (!done) c.sim().runFor(msec(10));
  return out;
}

net::RpcRequest writeReq(std::uint64_t table, std::uint64_t key,
                         std::uint64_t bytes = 1000) {
  net::RpcRequest r;
  r.op = net::Opcode::kWrite;
  r.a = table;
  r.b = key;
  r.payloadBytes = bytes;
  return r;
}

net::RpcRequest readReq(std::uint64_t table, std::uint64_t key) {
  net::RpcRequest r;
  r.op = net::Opcode::kRead;
  r.a = table;
  r.b = key;
  return r;
}

TEST(Dispatch, SerialisesItems) {
  sim::Simulation sim;
  DispatchParams p;
  p.perItem = usec(1);
  Dispatch d(sim, p);
  std::vector<sim::SimTime> at;
  for (int i = 0; i < 5; ++i) {
    d.enqueue([&] { at.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(at.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(at[static_cast<size_t>(i)], usec(i + 1));
}

TEST(Dispatch, ExtraCostDelaysFollowers) {
  sim::Simulation sim;
  DispatchParams p;
  p.perItem = usec(1);
  Dispatch d(sim, p);
  sim::SimTime second = 0;
  d.enqueue([] {}, usec(99));  // a backup write hogging the dispatch core
  d.enqueue([&] { second = sim.now(); });
  sim.run();
  EXPECT_EQ(second, usec(101));
}

TEST(Dispatch, CrashDropsQueued) {
  sim::Simulation sim;
  Dispatch d(sim, DispatchParams{});
  bool ran = false;
  d.enqueue([&] { ran = true; });
  d.crash();
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Dispatch, BacklogGrowsMonotonicallyUnderOverload) {
  sim::Simulation sim;
  DispatchParams p;
  p.perItem = usec(10);
  Dispatch d(sim, p);
  // Offer items faster than the dispatch core can hand them off (one per
  // 10 us service time, arriving instantaneously): the backlog and queue
  // depth must grow monotonically, never reset or wrap.
  sim::Duration prevBacklog = 0;
  std::uint64_t prevDepth = 0;
  for (int i = 0; i < 50; ++i) {
    d.enqueue([] {});
    EXPECT_GE(d.backlogDelay(), prevBacklog);
    EXPECT_GE(d.queueDepth(), prevDepth);
    prevBacklog = d.backlogDelay();
    prevDepth = d.queueDepth();
  }
  EXPECT_EQ(d.queueDepth(), 50u);
  EXPECT_EQ(d.maxQueueDepth(), 50u);
  EXPECT_EQ(d.backlogDelay(), usec(500));
  sim.run();
  // Everything drained: depth returns to zero, high-water mark sticks.
  EXPECT_EQ(d.queueDepth(), 0u);
  EXPECT_EQ(d.maxQueueDepth(), 50u);
  EXPECT_EQ(d.itemsDispatched(), 50u);
}

TEST(Dispatch, QueueMetricsExposed) {
  sim::Simulation sim;
  DispatchParams p;
  p.perItem = usec(10);
  Dispatch d(sim, p);
  obs::MetricRegistry reg;
  d.registerMetrics(reg, "node1.master.dispatch");
  for (int i = 0; i < 8; ++i) d.enqueue([] {});
  EXPECT_DOUBLE_EQ(reg.value("node1.master.dispatch.queue_depth"), 8.0);
  EXPECT_DOUBLE_EQ(reg.value("node1.master.dispatch.backlog_us"), 80.0);
  sim.run();
  EXPECT_DOUBLE_EQ(reg.value("node1.master.dispatch.queue_depth"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("node1.master.dispatch.items"), 8.0);
}

TEST(MasterService, WriteThenReadRoundTrip) {
  core::Cluster c(smallCluster(2, 0));
  const auto table = c.createTable("t");
  auto w = callSync(c, c.ownerOfKey(table, 5), writeReq(table, 5));
  EXPECT_EQ(w.status, net::Status::kOk);
  auto r = callSync(c, c.ownerOfKey(table, 5), readReq(table, 5));
  EXPECT_EQ(r.status, net::Status::kOk);
  EXPECT_EQ(r.a, 1u);  // found
  EXPECT_EQ(r.payloadBytes, 1100u);  // 1000 B value + 100 B log metadata
}

TEST(MasterService, ReadMissingKeyReportsAbsent) {
  core::Cluster c(smallCluster(1, 0));
  const auto table = c.createTable("t");
  auto r = callSync(c, c.serverNodeId(0), readReq(table, 12345));
  EXPECT_EQ(r.status, net::Status::kOk);
  EXPECT_EQ(r.a, 0u);
}

TEST(MasterService, WrongOwnerReturnsUnknownTablet) {
  core::Cluster c(smallCluster(2, 0));
  const auto table = c.createTable("t");
  const auto owner = c.ownerOfKey(table, 5);
  const auto other = owner == c.serverNodeId(0) ? c.serverNodeId(1)
                                                : c.serverNodeId(0);
  auto r = callSync(c, other, readReq(table, 5));
  EXPECT_EQ(r.status, net::Status::kUnknownTablet);
}

/// Read-only transaction validation: a tx prepare without a payload.
net::RpcRequest validateReq(std::uint64_t table, std::uint64_t key,
                            std::uint64_t version) {
  net::RpcRequest r;
  r.op = net::Opcode::kTxPrepare;
  r.a = table;
  r.b = key;
  r.c = version;
  r.d = 77;  // txId
  return r;
}

// Read and tx validation pass one admission step and one worker hand-off:
// each is tagged as a read, books tablet heat, and counts reads and
// missing keys by the same rules; each is refused by a non-owner the same
// way.
TEST(MasterService, ReadPathOpcodesShareAdmissionAndWorkerHandOff) {
  core::Cluster c(smallCluster(2, 0));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 100, 1000);
  const node::NodeId owner = c.ownerOfKey(table, 3);
  const node::NodeId other =
      owner == c.serverNodeId(0) ? c.serverNodeId(1) : c.serverNodeId(0);
  std::uint64_t absent = 1'000;
  while (c.ownerOfKey(table, absent) != owner) ++absent;
  const std::uint64_t version =
      c.directory().masterOn(owner)->objectMap().get(hash::Key{table, 3})
          ->version;

  struct Case {
    const char* name;
    net::RpcRequest req;
    std::uint64_t reads;
    std::uint64_t missing;
    double heat;
  };
  const Case cases[] = {
      {"read", readReq(table, 3), 1, 0, 1},
      {"read absent", readReq(table, absent), 1, 1, 1},
      {"validation", validateReq(table, 3, version), 0, 0, 1},
  };
  const MasterService& m = *c.directory().masterOn(owner);
  const power::EnergyMeter& meter = c.server(owner - 1).node->energyMeter();
  auto cpuJoules = [&meter](power::OpClass cls) {
    double j = 0;
    meter.forEachCell([&](power::Component comp, power::OpClass o,
                          std::uint16_t, double joules) {
      if (comp == power::Component::kCpu && o == cls) j += joules;
    });
    return j;
  };
  auto heatReads = [&c] {
    double sum = 0;
    c.metrics().forEach([&](const obs::MetricInfo& info) {
      if (info.name.find(".tablet.heat.") != std::string::npos &&
          info.name.ends_with(".reads")) {
        sum += c.metrics().value(info.name);
      }
    });
    return sum;
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    const MasterStats before = m.stats();
    const double heat = heatReads();
    const double readCpu = cpuJoules(power::OpClass::kRead);
    const double updateCpu = cpuJoules(power::OpClass::kUpdate);

    const auto r = callSync(c, owner, k.req);
    EXPECT_EQ(r.status, net::Status::kOk);
    EXPECT_EQ(m.stats().reads - before.reads, k.reads);
    EXPECT_EQ(m.stats().missingKeys - before.missingKeys, k.missing);
    EXPECT_EQ(m.stats().unknownTablet, before.unknownTablet);
    EXPECT_EQ(m.stats().readServiceLatency.count() -
                  before.readServiceLatency.count(),
              k.reads > 0 ? 1u : 0u);
    EXPECT_EQ(heatReads() - heat, k.heat);
    EXPECT_GT(cpuJoules(power::OpClass::kRead), readCpu);
    EXPECT_EQ(cpuJoules(power::OpClass::kUpdate), updateCpu);

    const auto& otherStats = c.directory().masterOn(other)->stats();
    const std::uint64_t refused = otherStats.unknownTablet;
    EXPECT_EQ(callSync(c, other, k.req).status, net::Status::kUnknownTablet);
    EXPECT_EQ(otherStats.unknownTablet, refused + 1);
  }
  EXPECT_EQ(m.stats().unknownTablet, 0u);
}

TEST(MasterService, VersionsIncreaseAcrossOverwrites) {
  core::Cluster c(smallCluster(1, 0));
  const auto table = c.createTable("t");
  callSync(c, c.serverNodeId(0), writeReq(table, 1));
  callSync(c, c.serverNodeId(0), writeReq(table, 1));
  auto r = callSync(c, c.serverNodeId(0), readReq(table, 1));
  EXPECT_GE(r.b, 2u);
  // The overwritten entry is dead in the log.
  const auto& master = *c.server(0).master;
  EXPECT_LT(master.log().liveBytes(), master.log().appendedBytes());
}

TEST(MasterService, RemoveDeletesAndWritesTombstone) {
  core::Cluster c(smallCluster(1, 0));
  const auto table = c.createTable("t");
  callSync(c, c.serverNodeId(0), writeReq(table, 9));
  net::RpcRequest rm;
  rm.op = net::Opcode::kRemove;
  rm.a = table;
  rm.b = 9;
  auto resp = callSync(c, c.serverNodeId(0), rm);
  EXPECT_EQ(resp.status, net::Status::kOk);
  EXPECT_EQ(resp.a, 1u);
  auto r = callSync(c, c.serverNodeId(0), readReq(table, 9));
  EXPECT_EQ(r.a, 0u);  // gone
  EXPECT_FALSE(
      c.server(0).master->objectMap().get(hash::Key{table, 9}).has_value());
}

// Every mutating opcode passes the same admission and commit steps, so each
// leaves the same footprint: a span decomposed into dispatch-wait,
// worker-service and replication-wait stages that sum to its total, a
// sojourn sample for the CoDel gate, and one tablet-heat write.
TEST(MasterService, MutationsStampStagesFeedSojournAndHeat) {
  using Stage = obs::TimeTrace::Stage;
  for (const net::Opcode op : {net::Opcode::kWrite, net::Opcode::kRemove}) {
    SCOPED_TRACE(net::opcodeName(op));
    core::Cluster c(smallCluster(2, 1));
    const auto table = c.createTable("t");
    c.bulkLoad(table, 10, 1000);
    const node::NodeId owner = c.ownerOfKey(table, 3);
    Dispatch& dispatch = *c.server(owner - 1).dispatch;
    ASSERT_EQ(dispatch.loadEstimate(c.sim().now()), 0);

    auto& rc0 = *c.clientHost(0).rc;
    bool done = false;
    client::RamCloudClient::LastOp last;
    sim::Duration sojourn = 0;
    auto cb = [&](net::Status s, sim::Duration) {
      EXPECT_EQ(s, net::Status::kOk);
      last = rc0.lastOp();
      sojourn = dispatch.loadEstimate(c.sim().now());
      done = true;
    };
    if (op == net::Opcode::kWrite) {
      rc0.write(table, 3, 1000, cb);
    } else {
      rc0.remove(table, 3, cb);
    }
    while (!done) c.sim().runFor(msec(10));

    ASSERT_TRUE(last.valid);
    std::set<Stage> stages;
    sim::Duration sum = 0;
    for (std::uint8_t i = 0; i < last.detail.numStages; ++i) {
      stages.insert(last.detail.stages[i].stage);
      sum += last.detail.stages[i].elapsed;
    }
    EXPECT_TRUE(stages.count(Stage::kDispatchWait));
    EXPECT_TRUE(stages.count(Stage::kWorkerService));
    EXPECT_TRUE(stages.count(Stage::kReplicationWait));
    EXPECT_EQ(sum, last.detail.total);
    EXPECT_GT(sojourn, 0);

    double heatWrites = 0;
    c.metrics().forEach([&](const obs::MetricInfo& info) {
      const std::string& n = info.name;
      if (n.find(".tablet.heat.") != std::string::npos &&
          n.ends_with(".writes")) {
        heatWrites += c.metrics().value(n);
      }
    });
    EXPECT_EQ(heatWrites, 1.0);
  }
}

TEST(MasterService, UnreplicatedWriteSlowerThanRead) {
  // The paper's Finding 2: updates cost far more than reads even at RF=0.
  core::Cluster c(smallCluster(1, 0));
  const auto table = c.createTable("t");
  callSync(c, c.serverNodeId(0), writeReq(table, 1));
  const auto& st = c.server(0).master->stats();
  ASSERT_EQ(st.writes, 1u);
  EXPECT_GT(st.writeServiceLatency.mean(), 4 * st.readServiceLatency.mean() +
                                               static_cast<double>(usec(50)));
}

TEST(Replication, AckedWriteIsDurableOnRfBackups) {
  for (int rf : {1, 2, 3}) {
    core::Cluster c(smallCluster(5, rf));
    const auto table = c.createTable("t");
    const auto owner = c.ownerOfKey(table, 77);
    auto w = callSync(c, owner, writeReq(table, 77));
    ASSERT_EQ(w.status, net::Status::kOk);

    auto& master = *c.server(owner - 1).master;
    const auto loc = master.objectMap().get(hash::Key{table, 77});
    ASSERT_TRUE(loc.has_value());
    const auto* placement =
        master.replicaManager().placementOf(loc->ref.segment);
    ASSERT_NE(placement, nullptr);
    ASSERT_EQ(placement->size(), static_cast<std::size_t>(rf));
    for (node::NodeId b : *placement) {
      EXPECT_NE(b, owner);  // never self
      auto frames = c.directory().backupOn(b)->framesForMaster(owner);
      ASSERT_EQ(frames.size(), 1u);
      EXPECT_GE(frames[0].bytes, 1100u);  // the write is within watermark
    }
  }
}

TEST(Replication, DistinctBackupsPerSegment) {
  core::Cluster c(smallCluster(6, 3));
  const auto table = c.createTable("t");
  const auto owner = c.ownerOfKey(table, 1);
  callSync(c, owner, writeReq(table, 1));
  auto& master = *c.server(owner - 1).master;
  const auto loc = master.objectMap().get(hash::Key{table, 1});
  const auto* placement = master.replicaManager().placementOf(loc->ref.segment);
  ASSERT_NE(placement, nullptr);
  std::set<node::NodeId> uniq(placement->begin(), placement->end());
  EXPECT_EQ(uniq.size(), placement->size());
}

TEST(Replication, WriteLatencyGrowsWithRf) {
  double lastLatency = 0;
  for (int rf : {0, 1, 2, 4}) {
    core::Cluster c(smallCluster(6, rf));
    const auto table = c.createTable("t");
    const auto owner = c.ownerOfKey(table, 3);
    callSync(c, owner, writeReq(table, 3));
    const double lat =
        c.server(owner - 1).master->stats().writeServiceLatency.mean();
    if (rf >= 2) {
      EXPECT_GT(lat, lastLatency);
    }
    lastLatency = lat;
  }
}

TEST(Replication, BackupCrashTriggersReplacement) {
  core::Cluster c(smallCluster(5, 2));
  const auto table = c.createTable("t");
  const auto owner = c.ownerOfKey(table, 42);
  callSync(c, owner, writeReq(table, 42));

  auto& master = *c.server(owner - 1).master;
  const auto loc = master.objectMap().get(hash::Key{table, 42});
  const auto* placement = master.replicaManager().placementOf(loc->ref.segment);
  ASSERT_NE(placement, nullptr);
  const node::NodeId victim = placement->front();
  c.coord().stopFailureDetector();  // isolate: no recovery, just replication
  c.crashServer(victim - 1);

  // A second write to the same master (any key it owns) must still be
  // acknowledged: the manager replaces the dead backup.
  std::uint64_t key2 = 43;
  while (c.ownerOfKey(table, key2) != owner) ++key2;
  auto w = callSync(c, owner, writeReq(table, key2), seconds(5));
  EXPECT_EQ(w.status, net::Status::kOk);
  EXPECT_GE(master.replicaManager().replacementsMade(), 1u);
  const auto* now = master.replicaManager().placementOf(loc->ref.segment);
  ASSERT_NE(now, nullptr);
  for (node::NodeId b : *now) EXPECT_NE(b, victim);
}

TEST(Replication, ConsistencyAblationSkipsAckWait) {
  // SS IX-B: fire-and-forget replication must be much faster than synced.
  double synced = 0, relaxed = 0;
  for (bool wait : {true, false}) {
    core::ClusterParams p = smallCluster(5, 3);
    p.master.replication.waitForAcks = wait;
    core::Cluster c(p);
    const auto table = c.createTable("t");
    const auto owner = c.ownerOfKey(table, 5);
    callSync(c, owner, writeReq(table, 5));
    const double lat =
        c.server(owner - 1).master->stats().writeServiceLatency.mean();
    (wait ? synced : relaxed) = lat;
  }
  EXPECT_LT(relaxed * 2, synced);
}

TEST(BackupService, SealedSegmentFlushesToDisk) {
  core::ClusterParams p = smallCluster(3, 1);
  p.master.log.segmentBytes = 64 * 1024;  // seal quickly
  core::Cluster c(p);
  const auto table = c.createTable("t", 1);
  const auto owner = c.ownerOfKey(table, 0);
  // ~60 writes of 1.1 KB fill a 64 KB segment.
  for (int i = 0; i < 120; ++i) {
    callSync(c, owner, writeReq(table, static_cast<std::uint64_t>(i)));
  }
  c.sim().runFor(seconds(2));  // let flushes drain
  std::uint64_t flushed = 0;
  for (int i = 0; i < c.serverCount(); ++i) {
    for (const auto& f :
         c.server(i).backup->framesForMaster(owner)) {
      if (f.onDisk) ++flushed;
    }
  }
  EXPECT_GE(flushed, 1u);
}

TEST(BackupService, FreesFramesOnRequest) {
  core::Cluster c(smallCluster(3, 2));
  const auto table = c.createTable("t");
  const auto owner = c.ownerOfKey(table, 8);
  callSync(c, owner, writeReq(table, 8));
  auto& master = *c.server(owner - 1).master;
  const auto loc = master.objectMap().get(hash::Key{table, 8});
  master.replicaManager().freeSegment(loc->ref.segment);
  c.sim().runFor(msec(100));
  for (int i = 0; i < c.serverCount(); ++i) {
    EXPECT_TRUE(c.server(i).backup->framesForMaster(owner).empty());
  }
}

TEST(MasterService, CleanerReclaimsUnderChurn) {
  core::ClusterParams p = smallCluster(1, 0);
  p.master.log.segmentBytes = 32 * 1024;
  p.master.log.capacityBytes = 256 * 1024;  // 8 segments
  p.master.log.cleanerThreshold = 0.5;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  // Overwrite 20 keys repeatedly: appended >> live, cleaner must run.
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t k = 0; k < 20; ++k) {
      auto w = callSync(c, c.serverNodeId(0), writeReq(table, k));
      ASSERT_EQ(w.status, net::Status::kOk);
    }
  }
  c.sim().runFor(seconds(2));
  const auto& master = *c.server(0).master;
  EXPECT_GT(master.stats().cleanerRuns, 0u);
  EXPECT_LE(master.log().memoryInUse(), p.master.log.capacityBytes);
  // All 20 keys still readable with latest data.
  for (std::uint64_t k = 0; k < 20; ++k) {
    auto r = callSync(c, c.serverNodeId(0), readReq(table, k));
    EXPECT_EQ(r.a, 1u) << "key " << k;
  }
}

TEST(Backoff, GrowsExponentiallyWithJitterInsideTarget) {
  Backoff b{msec(1), msec(100)};
  for (int attempt = 0; attempt < 20; ++attempt) {
    sim::Duration target = msec(1) << std::min(attempt, 30);
    if (target > msec(100) || target <= 0) target = msec(100);
    const sim::Duration d = b.delay(attempt, /*salt=*/42);
    EXPECT_GE(d, target / 2) << "attempt " << attempt;
    EXPECT_LT(d, target) << "attempt " << attempt;
  }
  // Capped: far-out attempts never exceed the cap.
  EXPECT_LT(b.delay(1000, 7), msec(100));
}

TEST(Backoff, JitterIsDeterministicPerSaltAndSpreadsAcrossSalts) {
  Backoff b{msec(2), msec(200)};
  // Same (attempt, salt) -> bit-identical delay (replayable schedules).
  EXPECT_EQ(b.delay(3, 1234), b.delay(3, 1234));
  // Different salts decorrelate retry loops (no synchronized hammering).
  std::set<sim::Duration> seen;
  for (std::uint64_t salt = 0; salt < 16; ++salt) {
    seen.insert(b.delay(3, salt));
  }
  EXPECT_GT(seen.size(), 8u);
}

TEST(MasterService, CrashedMasterStopsResponding) {
  core::Cluster c(smallCluster(2, 0));
  const auto table = c.createTable("t");
  c.coord().stopFailureDetector();
  c.crashServer(0);
  auto r = callSync(c, c.serverNodeId(0), readReq(table, 1), msec(300));
  EXPECT_EQ(r.status, net::Status::kTimeout);
}

}  // namespace
}  // namespace rc::server
