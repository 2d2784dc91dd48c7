// End-to-end tests of the event journal's recovery/migration span trees:
// crash a master under client load and assert the coordinator, masters and
// backups together emit one complete, well-formed cross-node trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "obs/event_journal.hpp"

namespace rc {
namespace {

using obs::EventJournal;
using sim::msec;
using sim::seconds;

core::ClusterParams params(int servers, int clients, int rf) {
  core::ClusterParams p;
  p.servers = servers;
  p.clients = clients;
  p.replicationFactor = rf;
  return p;
}

/// Crash server `victim` and run until the coordinator logs the recovery.
void crashAndRecover(core::Cluster& c, int victim) {
  c.crashServer(victim);
  for (int i = 0; i < 900 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(msec(100));
  }
  ASSERT_FALSE(c.coord().recoveryLog().empty());
  ASSERT_TRUE(c.coord().recoveryLog().front().succeeded);
  c.sim().runFor(seconds(2));  // drain re-replication / late closes
}

std::vector<const EventJournal::Span*> inCtx(const EventJournal& j,
                                             std::uint64_t ctx) {
  return j.spansInCtx(ctx);
}

TEST(RecoveryTrace, CrashYieldsOneCompleteSpanTree) {
  core::Cluster c(params(5, 1, 2));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 20'000, 1000);
  auto& rc0 = *c.clientHost(0).rc;

  // Continuous writes so the crash happens under load (some ops will time
  // out against the dead master; that is the point).
  bool running = true;
  sim::Rng keys(7);
  std::function<void()> loop = [&] {
    if (!running) return;
    rc0.write(table, keys.uniformInt(20'000), 1000,
              [&](net::Status, sim::Duration) {
                c.sim().schedule(sim::usec(500), loop);
              });
  };
  loop();
  c.sim().runFor(seconds(1));

  crashAndRecover(c, 2);
  running = false;

  const auto& j = c.journal();

  // Exactly one recovery root: closed, successful, with a nonzero context.
  const auto roots = j.spansNamed("recovery");
  ASSERT_EQ(roots.size(), 1u);
  const auto* root = roots[0];
  EXPECT_FALSE(root->open);
  EXPECT_FALSE(root->abandoned);
  ASSERT_NE(root->ctx, 0u);

  const auto tree = inCtx(j, root->ctx);
  ASSERT_GT(tree.size(), 4u);

  // Every phase the coordinator and the recovery masters own must appear.
  std::set<std::string> names;
  for (const auto* s : tree) names.insert(s->name);
  for (const char* phase :
       {"failure_detection", "recovery", "will_lookup",
        "partition_assignment", "partition_recovery", "segment_fetch",
        "replay", "tablet_remap"}) {
    EXPECT_TRUE(names.count(phase)) << "missing phase " << phase;
  }
  // rf=2 seals side segments during replay -> re-replication spans.
  EXPECT_TRUE(names.count("rereplication"));

  // Causality: every span in the context reaches the root via parents.
  for (const auto* s : tree) {
    const EventJournal::Span* cur = s;
    int hops = 0;
    while (cur->id != root->id && cur->parent != 0 && hops < 16) {
      cur = j.span(cur->parent);
      ASSERT_NE(cur, nullptr);
      ++hops;
    }
    EXPECT_EQ(cur->id, root->id) << "span " << s->name << " is orphaned";
  }

  // Well-formed intervals, all closed, master phases nested in the root.
  for (const auto* s : tree) {
    EXPECT_FALSE(s->open) << s->name;
    EXPECT_GE(s->end, s->begin) << s->name;
    if (s->name == "partition_recovery") {
      EXPECT_GE(s->begin, root->begin);
      EXPECT_LE(s->end, root->end);
    }
  }

  // One partition_recovery per surviving master, each on its own node.
  const auto tasks = j.spansNamed("partition_recovery");
  EXPECT_EQ(tasks.size(), 4u);
  std::set<int> taskNodes;
  for (const auto* s : tasks) taskNodes.insert(s->node);
  EXPECT_EQ(taskNodes.size(), tasks.size());

  // Serial-by-construction phases must not overlap per actor (replay is
  // serialised by the replay pump, cleaner passes by the cleaner flag).
  for (const char* phase : {"partition_recovery", "replay", "cleaner_pass"}) {
    std::map<int, std::vector<std::pair<sim::SimTime, sim::SimTime>>> byNode;
    for (const auto* s : j.spansNamed(phase)) {
      if (!s->open) byNode[s->node].push_back({s->begin, s->end});
    }
    for (auto& [nodeId, iv] : byNode) {
      std::sort(iv.begin(), iv.end());
      for (std::size_t i = 1; i < iv.size(); ++i) {
        EXPECT_LE(iv[i - 1].second, iv[i].first)
            << phase << " overlaps on node " << nodeId;
      }
    }
  }

  // No span of the crashed node survives open, and the crash-time closes
  // are flagged abandoned (at minimum the victim's in-flight work, if any).
  const auto victimNode = c.serverNodeId(2);
  for (const auto& s : j.spans()) {
    if (s.node == victimNode) {
      EXPECT_FALSE(s.open) << s.name;
    }
  }

  // Journal accounting is consistent.
  EXPECT_EQ(j.spansStarted(), j.spans().size());
  EXPECT_EQ(j.spansStarted(), j.spansCompleted() + j.spansAbandoned() +
                                  j.openSpans());
}

TEST(RecoveryTrace, SpanEnergyIsPositiveAndBounded) {
  core::Cluster c(params(4, 0, 2));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 10'000, 1000);
  c.sim().runFor(seconds(1));
  crashAndRecover(c, 1);

  const auto& j = c.journal();
  const auto roots = j.spansNamed("recovery");
  ASSERT_EQ(roots.size(), 1u);
  // The coordinator node is unmetered (no PDU), so the root carries 0 J;
  // master-side phases carry whole-node joules bounded by max power.
  for (const auto* s : j.spansNamed("partition_recovery")) {
    const double secs = sim::toSeconds(s->duration());
    EXPECT_GT(s->joules, 0) << "node " << s->node;
    EXPECT_LE(s->joules, power::fittedWatts(1.0) * secs * 1.01)
        << "node " << s->node;
  }
  EXPECT_GT(j.joulesForPhase("partition_recovery"), 0);
}

TEST(RecoveryTrace, JsonlRoundTripPreservesSpans) {
  core::Cluster c(params(4, 0, 2));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 5'000, 1000);
  c.sim().runFor(seconds(1));
  crashAndRecover(c, 0);

  const std::string path = "/tmp/rc_recovery_trace_test_events.jsonl";
  ASSERT_TRUE(c.journal().writeJsonl(path));
  const auto back = EventJournal::readJsonl(path);
  std::remove(path.c_str());

  const auto& orig = c.journal().spans();
  ASSERT_EQ(back.size(), orig.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_EQ(back[i].id, orig[i].id);
    EXPECT_EQ(back[i].parent, orig[i].parent);
    EXPECT_EQ(back[i].name, orig[i].name);
    EXPECT_EQ(back[i].node, orig[i].node);
    EXPECT_EQ(back[i].ctx, orig[i].ctx);
    EXPECT_EQ(back[i].open, orig[i].open);
    EXPECT_EQ(back[i].abandoned, orig[i].abandoned);
    EXPECT_EQ(back[i].bytes, orig[i].bytes);
    EXPECT_EQ(back[i].count, orig[i].count);
    EXPECT_NEAR(sim::toSeconds(back[i].begin),
                sim::toSeconds(orig[i].begin), 1e-6);
    EXPECT_NEAR(back[i].joules, orig[i].joules,
                0.01 + 1e-4 * orig[i].joules);
  }
}

TEST(RecoveryTrace, MigrationEmitsSpanAndOwnershipTransfer) {
  core::Cluster c(params(3, 0, 0));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 6'000, 1000);

  const auto tablets =
      c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(0));
  ASSERT_FALSE(tablets.empty());
  bool ok = false;
  c.migrateTablet(tablets[0], 1, [&ok](bool r) { ok = r; });
  c.sim().runFor(seconds(20));
  ASSERT_TRUE(ok);

  const auto& j = c.journal();
  const auto migs = j.spansNamed("migration");
  ASSERT_EQ(migs.size(), 1u);
  EXPECT_FALSE(migs[0]->open);
  EXPECT_FALSE(migs[0]->abandoned);
  EXPECT_EQ(migs[0]->node, c.serverNodeId(0));
  EXPECT_GT(migs[0]->count, 0u);  // objects shipped

  // The coordinator's ownership flip is causally linked to the migration.
  const auto xfers = j.spansNamed("ownership_transfer");
  ASSERT_EQ(xfers.size(), 1u);
  EXPECT_EQ(xfers[0]->parent, migs[0]->id);
  EXPECT_EQ(xfers[0]->node, 0);  // coordinator
  EXPECT_GE(xfers[0]->begin, migs[0]->begin);
}

}  // namespace
}  // namespace rc
