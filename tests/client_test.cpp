// Tests for the client library: routing, retries, recovery back-off,
// token-bucket throttling.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "sim/token_bucket.hpp"
#include "core/cluster.hpp"

namespace rc::client {
namespace {

using sim::msec;
using sim::seconds;
using sim::toSeconds;
using sim::usec;

core::ClusterParams clusterOf(int servers, int clients, int rf = 0) {
  core::ClusterParams p;
  p.servers = servers;
  p.clients = clients;
  p.replicationFactor = rf;
  return p;
}

TEST(TokenBucket, DisabledNeverWaits) {
  sim::TokenBucket tb(0);
  EXPECT_FALSE(tb.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(tb.reserve(seconds(i)), 0);
}

TEST(TokenBucket, SustainedRateMatchesConfig) {
  sim::TokenBucket tb(100);  // 100 ops/s
  sim::SimTime now = 0;
  int issued = 0;
  while (now < seconds(10)) {
    now += tb.reserve(now);
    ++issued;
  }
  EXPECT_NEAR(issued / 10.0, 100.0, 5.0);
}

TEST(TokenBucket, BurstAllowsInitialSpike) {
  sim::TokenBucket tb(10, 5);
  int immediate = 0;
  while (tb.reserve(0) == 0) ++immediate;
  EXPECT_EQ(immediate, 5);
}

TEST(TokenBucket, NegativeRateDisables) {
  sim::TokenBucket tb(-3.0);
  EXPECT_FALSE(tb.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(tb.reserve(seconds(i)), 0);
}

TEST(TokenBucket, BurstBelowOneClampsToOne) {
  // A depth under a single token would make even the first reserve wait;
  // the constructor clamps to 1 so an idle bucket always admits one op.
  sim::TokenBucket tb(10, 0.25);
  EXPECT_EQ(tb.reserve(0), 0);
  EXPECT_GT(tb.reserve(0), 0);
}

TEST(TokenBucket, RefillIsCappedAtBurst) {
  // A long idle gap must not bank more than `burst` tokens: after an hour
  // quiet, exactly `burst` ops go out immediately, the next one waits.
  sim::TokenBucket tb(100, 4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(tb.reserve(0), 0);
  EXPECT_GT(tb.reserve(0), 0);
  const sim::SimTime later = seconds(3600);
  sim::TokenBucket tb2(100, 4);
  (void)tb2.reserve(0);  // start the clock with one token spent
  int immediate = 0;
  while (tb2.reserve(later) == 0) ++immediate;
  EXPECT_EQ(immediate, 4);
}

TEST(TokenBucket, FractionalRefillAccumulates) {
  // 2 tokens/s, probed every 100 ms: each refill adds 0.2 of a token.
  // The fractions must accumulate (no integer truncation) so the long-run
  // admitted rate matches the configured rate.
  sim::TokenBucket tb(2.0, 1.0);
  int admitted = 0;
  for (int tick = 0; tick < 100; ++tick) {
    sim::TokenBucket probe = tb;  // peek without committing debt
    if (probe.reserve(msec(100) * tick) == 0) {
      tb.reserve(msec(100) * tick);
      ++admitted;
    }
  }
  // 10 s at 2 tokens/s from a 1-token start: ~21 admitted, and certainly
  // far more than the 10 an integer-truncating refill would allow.
  EXPECT_GE(admitted, 19);
  EXPECT_LE(admitted, 22);
}

TEST(TokenBucket, CommittedDebtDelaysNextReserve) {
  // reserve() always commits the token: a burst of B+2 calls at t=0 leaves
  // the balance at -2, and the waits it returned are monotone increasing —
  // each extra caller queues one token-time behind the previous.
  sim::TokenBucket tb(10, 2);
  EXPECT_EQ(tb.reserve(0), 0);
  EXPECT_EQ(tb.reserve(0), 0);
  const sim::Duration w1 = tb.reserve(0);
  const sim::Duration w2 = tb.reserve(0);
  EXPECT_GT(w1, 0);
  EXPECT_NEAR(toSeconds(w2 - w1), 0.1, 1e-9);  // one token at 10/s
}

TEST(RamCloudClient, ReadAfterWriteSucceeds) {
  core::Cluster c(clusterOf(3, 1));
  const auto table = c.createTable("t");
  auto& rc = *c.clientHost(0).rc;
  bool ok = false;
  rc.write(table, 5, 1000, [&](net::Status s, sim::Duration) {
    ASSERT_EQ(s, net::Status::kOk);
    rc.read(table, 5, [&](net::Status s2, sim::Duration) {
      ok = s2 == net::Status::kOk;
    });
  });
  c.sim().runFor(seconds(1));
  EXPECT_TRUE(ok);
  EXPECT_EQ(rc.stats().opsSucceeded, 2u);
  EXPECT_GE(rc.stats().mapRefreshes, 1u);  // bootstrap fetch
}

TEST(RamCloudClient, RoutesToAllOwners) {
  core::Cluster c(clusterOf(4, 1));
  const auto table = c.createTable("t");
  auto& rc = *c.clientHost(0).rc;
  std::set<server::ServerId> owners;
  for (std::uint64_t k = 0; k < 64; ++k) {
    owners.insert(c.ownerOfKey(table, k));
    rc.write(table, k, 100, [](net::Status s, sim::Duration) {
      ASSERT_EQ(s, net::Status::kOk);
    });
  }
  c.sim().runFor(seconds(1));
  EXPECT_EQ(owners.size(), 4u);  // uniform distribution reached everyone
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(c.server(i).master->stats().writes, 0u);
  }
}

TEST(RamCloudClient, LatencyIsMicroseconds) {
  core::Cluster c(clusterOf(1, 1));
  const auto table = c.createTable("t");
  auto& rc = *c.clientHost(0).rc;
  c.bulkLoad(table, 100, 1000);
  sim::Duration lat = 0;
  rc.read(table, 1, [&](net::Status s, sim::Duration l) {
    ASSERT_EQ(s, net::Status::kOk);
    lat = l;
  });
  c.sim().runFor(seconds(1));
  EXPECT_GT(lat, usec(5));
  EXPECT_LT(lat, usec(100));
}

TEST(RamCloudClient, OpToDeadServerTimesOutThenFails) {
  core::Cluster c(clusterOf(2, 1));
  const auto table = c.createTable("t");
  auto& rc = *c.clientHost(0).rc;
  // Warm the map first.
  rc.read(table, 1, [](net::Status, sim::Duration) {});
  c.sim().runFor(msec(100));
  c.coord().stopFailureDetector();  // nothing will ever fix the crash
  const auto victim = c.ownerOfKey(table, 7);
  c.crashServer(victim - 1);

  net::Status final = net::Status::kOk;
  rc.read(table, 7, [&](net::Status s, sim::Duration) { final = s; });
  c.sim().runFor(seconds(30));
  EXPECT_NE(final, net::Status::kOk);
  EXPECT_GE(rc.stats().rpcTimeouts, 1u);
}

TEST(RamCloudClient, BlockedOpCompletesAfterRecovery) {
  // Fig. 10 semantics: an op on lost data blocks for the whole recovery
  // and then succeeds; its latency ~= detection + recovery time.
  core::Cluster c(clusterOf(4, 1, /*rf=*/2));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 10'000, 1000);
  auto& rc = *c.clientHost(0).rc;
  rc.read(table, 3, [](net::Status, sim::Duration) {});
  c.sim().runFor(seconds(1));

  const auto victim = c.ownerOfKey(table, 3);
  c.crashServer(victim - 1);
  net::Status final = net::Status::kError;
  sim::Duration lat = 0;
  rc.read(table, 3, [&](net::Status s, sim::Duration l) {
    final = s;
    lat = l;
  });
  for (int i = 0; i < 600 && final == net::Status::kError; ++i) {
    c.sim().runFor(msec(100));
  }
  EXPECT_EQ(final, net::Status::kOk);
  EXPECT_GT(lat, msec(300));  // blocked at least through detection
  ASSERT_FALSE(c.coord().recoveryLog().empty());
  const auto& rec = c.coord().recoveryLog().front();
  // End-to-end op latency is within ~2.5 s of (detection + recovery).
  const auto expect = rec.finishedAt - (rec.detectedAt - msec(450));
  EXPECT_LT(std::abs(lat - expect), seconds(3));
}

TEST(RamCloudClient, StaleMapRefreshedAfterRecovery) {
  core::Cluster c(clusterOf(4, 1, 2));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 5'000, 1000);
  auto& rc = *c.clientHost(0).rc;
  rc.read(table, 1, [](net::Status, sim::Duration) {});
  c.sim().runFor(seconds(1));

  c.crashServer(c.ownerOfKey(table, 1) - 1);
  for (int i = 0; i < 600 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_FALSE(c.coord().recoveryLog().empty());

  // A later read must land on the new owner and succeed quickly.
  net::Status s = net::Status::kError;
  sim::Duration lat = 0;
  rc.read(table, 1, [&](net::Status st, sim::Duration l) {
    s = st;
    lat = l;
  });
  c.sim().runFor(seconds(5));
  EXPECT_EQ(s, net::Status::kOk);
  EXPECT_LT(lat, seconds(2));
}

// ----- scans and multi-ops take the single-key attempt path per part

std::size_t tabletsOf(core::Cluster& c, std::uint64_t table) {
  std::size_t n = 0;
  for (const auto& e : c.coord().tabletMap().entries()) {
    n += e.tablet.tableId == table;
  }
  return n;
}

TEST(RamCloudClient, ScanAndMultiReadOpenOneSpanPerPart) {
  core::Cluster c(clusterOf(4, 1));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 2'000, 1000);
  auto& rc = *c.clientHost(0).rc;
  rc.read(table, 1, [](net::Status, sim::Duration) {});  // warm the map
  c.sim().runFor(msec(100));
  const obs::TimeTrace& trace = c.timeTrace();

  std::uint64_t spans = trace.spansStarted();
  std::uint64_t count = 0;
  rc.scanTable(table, [&](net::Status s, std::uint64_t n, std::uint64_t) {
    EXPECT_EQ(s, net::Status::kOk);
    count = n;
  });
  c.sim().runFor(seconds(1));
  EXPECT_EQ(count, 2'000u);
  ASSERT_GT(tabletsOf(c, table), 1u);
  EXPECT_EQ(trace.spansStarted() - spans, tabletsOf(c, table));

  std::vector<std::uint64_t> keys;
  std::set<server::ServerId> owners;
  for (std::uint64_t k = 0; k < 100; ++k) {
    keys.push_back(k);
    owners.insert(c.ownerOfKey(table, k));
  }
  spans = trace.spansStarted();
  std::uint64_t served = 0;
  rc.multiRead(table, keys,
               [&](net::Status s, std::uint64_t a, std::uint64_t) {
                 EXPECT_EQ(s, net::Status::kOk);
                 served = a;
               });
  c.sim().runFor(seconds(1));
  EXPECT_EQ(served, 100u);
  ASSERT_GT(owners.size(), 1u);
  EXPECT_EQ(trace.spansStarted() - spans, owners.size());

  // Each part's stages decompose its span's total exactly.
  std::map<std::uint64_t, sim::Duration> stageSum;
  std::map<std::uint64_t, sim::Duration> total;
  for (const auto& e : trace.entries()) {
    if (e.abandoned) continue;
    if (e.stage == obs::TimeTrace::Stage::kTotal) {
      total[e.span] = e.elapsed;
    } else {
      stageSum[e.span] += e.elapsed;
    }
  }
  EXPECT_EQ(total.size(), 1 + tabletsOf(c, table) + owners.size());
  for (const auto& [span, t] : total) EXPECT_EQ(stageSum[span], t) << span;
  EXPECT_EQ(trace.spansStarted(), trace.spansCompleted() +
                                      trace.spansAbandoned() +
                                      trace.activeSpans());
}

TEST(RamCloudClient, StalledClientSendsNoScanOrMultiReadPart) {
  core::Cluster c(clusterOf(3, 1));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 300, 1000);
  auto& rc = *c.clientHost(0).rc;
  rc.read(table, 1, [](net::Status, sim::Duration) {});  // warm the map
  c.sim().runFor(msec(100));
  auto reads = [&c] {
    std::uint64_t n = 0;
    for (int i = 0; i < c.serverCount(); ++i) {
      n += c.server(i).master->stats().reads;
    }
    return n;
  };
  const std::uint64_t readsBefore = reads();
  const std::uint64_t spansBefore = c.timeTrace().spansStarted();

  rc.stallFor(msec(50));
  const sim::SimTime lifts = c.sim().now() + msec(50);
  sim::SimTime scanDone = 0;
  sim::SimTime multiDone = 0;
  std::uint64_t scanned = 0;
  std::uint64_t served = 0;
  rc.scanTable(table, [&](net::Status s, std::uint64_t n, std::uint64_t) {
    EXPECT_EQ(s, net::Status::kOk);
    scanned = n;
    scanDone = c.sim().now();
  });
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 30; ++k) keys.push_back(k);
  rc.multiRead(table, keys,
               [&](net::Status s, std::uint64_t a, std::uint64_t) {
                 EXPECT_EQ(s, net::Status::kOk);
                 served = a;
                 multiDone = c.sim().now();
               });
  c.sim().runFor(msec(45));
  EXPECT_EQ(reads(), readsBefore);
  EXPECT_EQ(c.timeTrace().spansStarted(), spansBefore);

  c.sim().runFor(seconds(1));
  EXPECT_EQ(scanned, 300u);
  EXPECT_EQ(served, 30u);
  EXPECT_GE(scanDone, lifts);
  EXPECT_GE(multiDone, lifts);
}

TEST(RamCloudClient, OverloadedMultiWritePartIsRetried) {
  // A tenant bucket of one token per node: the first batch takes each
  // node's token, the second batch's parts are bounced with kOverloaded
  // and must be retried, not failed.
  core::Cluster c(clusterOf(2, 1, /*rf=*/1));
  const auto table = c.createTable("t");
  server::QosParams qos;
  qos.enabled = true;
  server::QosTenantPolicy tiny;
  tiny.name = "tiny";
  tiny.tags = {7};
  tiny.ratePerSec = 20;
  tiny.burst = 1;
  qos.tenants.push_back(tiny);
  c.configureQos(qos);
  auto& rc = *c.clientHost(0).rc;
  rc.setTenant(7);

  std::vector<std::uint64_t> first;
  std::vector<std::uint64_t> second;
  for (std::uint64_t k = 0; k < 100; ++k) {
    (k < 50 ? first : second).push_back(k);
  }
  int done = 0;
  std::uint64_t served = 0;
  auto cb = [&](net::Status s, std::uint64_t a, std::uint64_t) {
    EXPECT_EQ(s, net::Status::kOk);
    served += a;
    ++done;
  };
  rc.multiWrite(table, first, 500, cb);
  rc.multiWrite(table, second, 500, cb);
  c.sim().runFor(seconds(2));

  EXPECT_EQ(done, 2);
  EXPECT_EQ(served, 100u);
  EXPECT_GE(rc.overloadedForOpcode(net::Opcode::kMultiWrite), 1u);
  EXPECT_GE(rc.retriesForOpcode(net::Opcode::kMultiWrite), 1u);
  EXPECT_EQ(rc.stats().overloadedGiveUps, 0u);
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 100));
}

// Moves the first tablet `from` owns to `to` and waits for it to finish.
void moveTablet(core::Cluster& c, int from, int to) {
  const auto tablets =
      c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(from));
  ASSERT_FALSE(tablets.empty());
  bool ok = false;
  c.migrateTablet(tablets[0], to, [&ok](bool r) { ok = r; });
  c.sim().runFor(seconds(5));
  ASSERT_TRUE(ok);
}

// A 3-server cluster whose client has cached a map in which server 0 owns
// two tablets; one of them has since moved to server 2.
void staleTwoTabletMap(core::Cluster& c, std::uint64_t table,
                       const std::vector<std::uint64_t>& keys) {
  c.bulkLoad(table, 3'000, 1000);
  moveTablet(c, 1, 0);
  std::uint64_t served = 0;
  c.clientHost(0).rc->multiRead(
      table, keys, [&](net::Status s, std::uint64_t a, std::uint64_t) {
        EXPECT_EQ(s, net::Status::kOk);
        served = a;
      });
  c.sim().runFor(seconds(1));
  ASSERT_EQ(served, keys.size());
  moveTablet(c, 0, 2);
}

TEST(RamCloudClient, MultiReadResplitsAfterMigration) {
  // The batch part sent to server 0 is refused as a whole, and after the
  // map refresh its keys split across two owners.
  core::Cluster c(clusterOf(3, 1));
  const auto table = c.createTable("t");
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 300; ++k) keys.push_back(k);
  staleTwoTabletMap(c, table, keys);

  auto& rc = *c.clientHost(0).rc;
  const std::uint64_t issued = rc.stats().opsIssued;
  net::Status st = net::Status::kError;
  std::uint64_t served = 0;
  std::uint64_t missing = 1;
  rc.multiRead(table, keys, [&](net::Status s, std::uint64_t a,
                                std::uint64_t b) {
    st = s;
    served = a;
    missing = b;
  });
  c.sim().runFor(seconds(1));
  EXPECT_EQ(st, net::Status::kOk);
  EXPECT_EQ(served, 300u);
  EXPECT_EQ(missing, 0u);
  EXPECT_GE(rc.stats().staleRoutes, 1u);
  // Two parts from the stale map, plus one more when the refused part
  // re-split into two.
  EXPECT_EQ(rc.stats().opsIssued - issued, 3u);
}

TEST(RamCloudClient, MultiWriteResplitsAfterMigration) {
  // The write counterpart: the old owner must refuse the part rather than
  // skip the keys it no longer owns, so every key lands on its new owner.
  core::Cluster c(clusterOf(3, 1));
  const auto table = c.createTable("t");
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 300; ++k) keys.push_back(k);
  staleTwoTabletMap(c, table, keys);

  auto& rc = *c.clientHost(0).rc;
  const std::uint64_t issued = rc.stats().opsIssued;
  net::Status st = net::Status::kError;
  std::uint64_t served = 0;
  std::uint64_t missing = 1;
  rc.multiWrite(table, keys, 500,
                [&](net::Status s, std::uint64_t a, std::uint64_t b) {
                  st = s;
                  served = a;
                  missing = b;
                });
  c.sim().runFor(seconds(1));
  EXPECT_EQ(st, net::Status::kOk);
  EXPECT_EQ(served, 300u);
  EXPECT_EQ(missing, 0u);
  EXPECT_GE(rc.stats().staleRoutes, 1u);
  EXPECT_EQ(rc.stats().opsIssued - issued, 3u);
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 3'000));
  std::map<server::ServerId, server::MasterService*> masters;
  for (int i = 0; i < 3; ++i) {
    masters[c.serverNodeId(i)] = c.server(i).master.get();
  }
  for (const std::uint64_t k : keys) {
    const auto loc = masters.at(c.ownerOfKey(table, k))
                         ->objectMap()
                         .get(hash::Key{table, k});
    ASSERT_TRUE(loc) << k;
    EXPECT_EQ(loc->sizeBytes, 500u + server::kObjectOverheadBytes) << k;
  }
}

}  // namespace
}  // namespace rc::client
