// Randomized stress / invariant tests: the whole stack under mixed load
// with failures injected, checking structural invariants afterwards.

#include <gtest/gtest.h>

#include "core/cluster.hpp"

namespace rc {
namespace {

using sim::msec;
using sim::seconds;

// gtest names each case after the raw bytes of its parameter, so the struct
// must have no padding: uninitialised padding made the names differ per run.
struct StressParam {
  std::uint64_t seed;
  int servers;
  int rf;
  std::uint64_t crash;  ///< nonzero: crash a master mid-run
};
static_assert(sizeof(StressParam) == 24, "no padding in test names");

class ClusterStress : public ::testing::TestWithParam<StressParam> {};

TEST_P(ClusterStress, InvariantsHoldUnderRandomLoad) {
  const auto [seed, servers, rf, crash] = GetParam();
  core::ClusterParams p;
  p.servers = servers;
  p.clients = 4;
  p.seed = seed;
  p.replicationFactor = rf;
  p.master.log.segmentBytes = 256 * 1024;  // lots of seal/replicate churn
  core::Cluster c(p);
  const auto table = c.createTable("t");
  c.bulkLoad(table, 3'000, 1000);

  // Four clients do a random op soup: reads, writes, removes. The loop
  // objects are owned by this scope and consulted through weak handles so
  // nothing dangles when the test tears down.
  sim::Rng rng(seed ^ 0x5717e55);
  bool running = true;
  std::uint64_t completed = 0;
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (int ci = 0; ci < 4; ++ci) {
    client::RamCloudClient* rcp = c.clientHost(ci).rc.get();
    auto loop = std::make_shared<std::function<void()>>();
    loops.push_back(loop);
    std::weak_ptr<std::function<void()>> weak = loop;
    auto again = [&c, weak](sim::Duration d) {
      c.sim().schedule(d, [weak] {
        if (auto l = weak.lock()) (*l)();
      });
    };
    *loop = [&running, &rng, &completed, rcp, table, again] {
      if (!running) return;
      const std::uint64_t k = rng.uniformInt(3'000);
      const auto dice = rng.uniformInt(100);
      if (dice < 50) {
        rcp->read(table, k,
                  [&completed, again](net::Status, sim::Duration) {
                    ++completed;
                    again(sim::usec(100));
                  });
      } else if (dice < 80) {
        rcp->write(table, k,
                   static_cast<std::uint32_t>(500 + rng.uniformInt(1'000)),
                   [&completed, again](net::Status, sim::Duration) {
                     ++completed;
                     again(sim::usec(100));
                   });
      } else {
        rcp->remove(table, k,
                    [&completed, again](net::Status, sim::Duration) {
                      ++completed;
                      again(sim::usec(200));
                    });
      }
    };
    (*loop)();
  }

  c.sim().runFor(seconds(2));
  if (crash && rf > 0) {
    c.crashServer(static_cast<int>(rng.uniformInt(
        static_cast<std::uint64_t>(servers))));
    for (int i = 0; i < 900 && c.coord().recoveryLog().empty(); ++i) {
      c.sim().runFor(msec(100));
    }
    ASSERT_FALSE(c.coord().recoveryLog().empty());
    EXPECT_TRUE(c.coord().recoveryLog().front().succeeded);
  }
  c.sim().runFor(seconds(2));
  running = false;
  c.sim().runFor(seconds(3));  // drain every in-flight op

  EXPECT_GT(completed, 10'000u);

  // ---- structural invariants after the dust settles
  for (int i = 0; i < c.serverCount(); ++i) {
    if (!c.serverAlive(i)) continue;
    auto& master = *c.server(i).master;
    // No leaked workers, no stuck lock, no half-done recoveries.
    EXPECT_EQ(c.server(i).node->cpu().busyWorkers(), 0) << "server " << i;
    EXPECT_EQ(c.server(i).node->cpu().queuedRequests(), 0u);
    EXPECT_EQ(master.logLockWaiters(), 0u);
    EXPECT_EQ(master.activeRecoveries(), 0u);
    EXPECT_EQ(master.activeMigrations(), 0u);
    // Log accounting consistent: live <= appended, hash entries resolve.
    EXPECT_LE(master.log().liveBytes(), master.log().appendedBytes());
    master.objectMap().forEach([&](const hash::Key& k,
                                   const hash::ObjectLocation& loc) {
      const auto seg = master.findSegment(loc.ref.segment);
      ASSERT_NE(seg, nullptr) << "dangling ref for key " << k.keyId;
      const auto& e = seg->entry(loc.ref.index);
      EXPECT_EQ(e.keyId, k.keyId);
      EXPECT_EQ(e.version, loc.version);
      EXPECT_TRUE(e.live);
    });
  }
  // Coordinator: tablet map covers the full hash space exactly once.
  for (std::uint64_t h :
       {0ULL, 1ULL << 20, 1ULL << 40, ~0ULL - 5, ~0ULL}) {
    const auto* e = c.coord().tabletMap().lookup(table, h);
    ASSERT_NE(e, nullptr) << std::hex << h;
    EXPECT_NE(e->tablet.owner, node::kInvalidNode);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterStress,
    ::testing::Values(StressParam{101, 3, 0, false},
                      StressParam{202, 4, 2, false},
                      StressParam{303, 5, 2, true},
                      StressParam{404, 5, 3, true},
                      StressParam{505, 3, 1, true}));

}  // namespace
}  // namespace rc
