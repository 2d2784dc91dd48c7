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

// ----- the one attempt path: spans, stalls, overload bounces, re-routing

TEST(RamCloudClient, ReadsOpenOneSpanPerAttempt) {
  core::Cluster c(clusterOf(4, 1));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 2'000, 1000);
  auto& rc = *c.clientHost(0).rc;
  rc.read(table, 1, [](net::Status, sim::Duration) {});  // warm the map
  c.sim().runFor(msec(100));
  const obs::TimeTrace& trace = c.timeTrace();

  const std::uint64_t spans = trace.spansStarted();
  std::set<server::ServerId> owners;
  int ok = 0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    owners.insert(c.ownerOfKey(table, k));
    rc.read(table, k, [&](net::Status s, sim::Duration) {
      ok += s == net::Status::kOk;
    });
  }
  c.sim().runFor(seconds(1));
  EXPECT_EQ(ok, 100);
  ASSERT_GT(owners.size(), 1u);
  EXPECT_EQ(trace.spansStarted() - spans, 100u);

  // Each attempt's stages decompose its span's total exactly.
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
  EXPECT_EQ(total.size(), 1u + 100u);
  for (const auto& [span, t] : total) EXPECT_EQ(stageSum[span], t) << span;
  EXPECT_EQ(trace.spansStarted(), trace.spansCompleted() +
                                      trace.spansAbandoned() +
                                      trace.activeSpans());
}

TEST(RamCloudClient, StalledClientSendsNothingUntilStallLifts) {
  core::Cluster c(clusterOf(3, 1));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 300, 1000);
  auto& rc = *c.clientHost(0).rc;
  rc.read(table, 1, [](net::Status, sim::Duration) {});  // warm the map
  c.sim().runFor(msec(100));
  auto served = [&c] {
    std::uint64_t n = 0;
    for (int i = 0; i < c.serverCount(); ++i) {
      n += c.server(i).master->stats().reads +
           c.server(i).master->stats().writes;
    }
    return n;
  };
  const std::uint64_t servedBefore = served();
  const std::uint64_t spansBefore = c.timeTrace().spansStarted();

  rc.stallFor(msec(50));
  const sim::SimTime lifts = c.sim().now() + msec(50);
  int ok = 0;
  sim::SimTime firstDone = 0;
  auto cb = [&](net::Status s, sim::Duration) {
    EXPECT_EQ(s, net::Status::kOk);
    ++ok;
    if (firstDone == 0) firstDone = c.sim().now();
  };
  for (std::uint64_t k = 0; k < 30; ++k) rc.read(table, k, cb);
  rc.write(table, 7, 1000, cb);
  c.sim().runFor(msec(45));
  EXPECT_EQ(served(), servedBefore);
  EXPECT_EQ(c.timeTrace().spansStarted(), spansBefore);

  c.sim().runFor(seconds(1));
  EXPECT_EQ(ok, 31);
  EXPECT_GE(firstDone, lifts);
}

TEST(RamCloudClient, OverloadedWriteIsRetried) {
  // A tenant bucket of one token per node: of two writes to a node, the
  // first takes the token and the second is bounced with kOverloaded and
  // must be retried, not failed.
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

  std::map<server::ServerId, std::vector<std::uint64_t>> byOwner;
  for (std::uint64_t k = 0; k < 64; ++k) {
    auto& keys = byOwner[c.ownerOfKey(table, k)];
    if (keys.size() < 2) keys.push_back(k);
  }
  ASSERT_EQ(byOwner.size(), 2u);
  int ok = 0;
  for (const auto& [owner, keys] : byOwner) {
    for (const std::uint64_t k : keys) {
      rc.write(table, k, 500, [&](net::Status s, sim::Duration) {
        EXPECT_EQ(s, net::Status::kOk);
        ok += s == net::Status::kOk;
      });
    }
  }
  c.sim().runFor(seconds(2));

  EXPECT_EQ(ok, 4);
  EXPECT_GE(rc.overloadedForOpcode(net::Opcode::kWrite), 1u);
  EXPECT_GE(rc.retriesForOpcode(net::Opcode::kWrite), 1u);
  EXPECT_EQ(rc.stats().overloadedGiveUps, 0u);
  for (const auto& [owner, keys] : byOwner) {
    for (const std::uint64_t k : keys) {
      EXPECT_EQ(c.ownerOfKey(table, k), owner);
      EXPECT_TRUE(c.server(static_cast<int>(owner) - 1)
                      .master->objectMap()
                      .get(hash::Key{table, k}))
          << k;
    }
  }
}

// Caches the client's map, then moves one of server 0's tablets to server
// 2. Returns keys of `table` whose owner changed, so an op on any of them
// is first sent to the old owner.
std::vector<std::uint64_t> moveTabletUnderCachedMap(core::Cluster& c,
                                                    std::uint64_t table) {
  auto& rc = *c.clientHost(0).rc;
  // Warm the map and open the lease, so the op under test is sent at once.
  rc.write(table, 1, 1000, [](net::Status, sim::Duration) {});
  c.sim().runFor(msec(100));

  std::vector<server::ServerId> before;
  for (std::uint64_t k = 0; k < 300; ++k) {
    before.push_back(c.ownerOfKey(table, k));
  }
  const auto tablets =
      c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(0));
  EXPECT_FALSE(tablets.empty());
  if (tablets.empty()) return {};
  bool moved = false;
  c.migrateTablet(tablets[0], 2, [&moved](bool r) { moved = r; });
  c.sim().runFor(seconds(5));
  EXPECT_TRUE(moved);
  std::vector<std::uint64_t> movedKeys;
  for (std::uint64_t k = 0; k < 300; ++k) {
    if (c.ownerOfKey(table, k) != before[k]) movedKeys.push_back(k);
  }
  return movedKeys;
}

TEST(RamCloudClient, StaleMapReadReroutesAfterMigration) {
  // A read on a moved tablet is refused by the old owner and re-routed to
  // the new one; each of the two attempts opens its own span.
  core::Cluster c(clusterOf(3, 1));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 3'000, 1000);
  auto& rc = *c.clientHost(0).rc;
  const auto movedKeys = moveTabletUnderCachedMap(c, table);
  ASSERT_FALSE(movedKeys.empty());

  const std::uint64_t spans = c.timeTrace().spansStarted();
  net::Status status = net::Status::kError;
  rc.read(table, movedKeys[0],
          [&](net::Status s, sim::Duration) { status = s; });
  c.sim().runFor(seconds(1));
  EXPECT_EQ(status, net::Status::kOk);
  EXPECT_EQ(rc.stats().staleRoutes, 1u);
  EXPECT_EQ(c.timeTrace().spansStarted() - spans, 2u);
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 3'000));
}

TEST(RamCloudClient, StaleMapWriteReroutesAfterMigration) {
  // A write on a moved tablet is refused by the old owner, re-routed, and
  // lands on the new owner with its new size.
  core::Cluster c(clusterOf(3, 1));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 3'000, 1000);
  auto& rc = *c.clientHost(0).rc;
  const auto movedKeys = moveTabletUnderCachedMap(c, table);
  ASSERT_FALSE(movedKeys.empty());

  const std::uint64_t spans = c.timeTrace().spansStarted();
  net::Status status = net::Status::kError;
  rc.write(table, movedKeys[0], 500,
           [&](net::Status s, sim::Duration) { status = s; });
  c.sim().runFor(seconds(1));
  EXPECT_EQ(status, net::Status::kOk);
  EXPECT_EQ(rc.stats().staleRoutes, 1u);
  EXPECT_EQ(c.timeTrace().spansStarted() - spans, 2u);
  const auto loc = c.server(2).master->objectMap().get(
      hash::Key{table, movedKeys[0]});
  ASSERT_TRUE(loc);
  EXPECT_EQ(loc->sizeBytes, 500u + server::kObjectOverheadBytes);
  EXPECT_TRUE(c.verifyAllKeysPresent(table, 3'000));
}

}  // namespace
}  // namespace rc::client
