// Unit tests for the network and RPC fabric.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/rpc.hpp"

namespace rc::net {
namespace {

using sim::msec;
using sim::nsec;
using sim::toSeconds;
using sim::usec;

TEST(Network, SmallMessageArrivesAfterLatency) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  bool arrived = false;
  net.send(1, 2, 0, [&] { arrived = true; });
  sim.run();
  EXPECT_TRUE(arrived);
  EXPECT_NEAR(static_cast<double>(sim.now()),
              static_cast<double>(usec(2) + nsec(300)), 1.0);
}

TEST(Network, LargeTransferPaysBandwidth) {
  sim::Simulation sim;
  TransportParams p = TransportParams::infiniband();  // 2000 MB/s
  Network net(sim, p);
  net.send(1, 2, 2'000'000'000, [] {});  // 2 GB -> 1 s
  sim.run();
  EXPECT_NEAR(toSeconds(sim.now()), 1.0, 0.01);
}

TEST(Network, SenderNicSerialises) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  sim::SimTime first = 0, second = 0;
  net.send(1, 2, 200'000'000, [&] { first = sim.now(); });   // 100 ms wire
  net.send(1, 3, 200'000'000, [&] { second = sim.now(); });  // queued behind
  sim.run();
  EXPECT_GE(second - first, msec(99));
}

TEST(Network, DifferentSendersDoNotSerialise) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  sim::SimTime a = 0, b = 0;
  net.send(1, 9, 200'000'000, [&] { a = sim.now(); });
  net.send(2, 9, 200'000'000, [&] { b = sim.now(); });
  sim.run();
  EXPECT_LT(std::abs(a - b), usec(10));
}

TEST(Network, EthernetSlowerThanInfiniband) {
  const auto ib = TransportParams::infiniband();
  const auto eth = TransportParams::gigabitEthernet();
  EXPECT_GT(eth.oneWayLatency, ib.oneWayLatency);
  EXPECT_LT(eth.bandwidthMBps, ib.bandwidthMBps);
}

class EchoService : public RpcService {
 public:
  int handled = 0;
  void handleRpc(const RpcRequest& req, node::NodeId /*from*/,
                 Responder respond) override {
    ++handled;
    RpcResponse r;
    r.a = req.a + 1;
    respond(std::move(r));
  }
};

TEST(Rpc, RoundTripDeliversResponse) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  RpcSystem rpc(sim, net);
  EchoService echo;
  rpc.bind(2, kMasterPort, &echo);

  RpcRequest req;
  req.a = 41;
  bool got = false;
  rpc.call(1, 2, kMasterPort, req, sim::seconds(1),
           [&](const RpcResponse& resp) {
             got = true;
             EXPECT_EQ(resp.status, Status::kOk);
             EXPECT_EQ(resp.a, 42u);
           });
  sim.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(echo.handled, 1);
}

TEST(Rpc, UnboundTargetTimesOut) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  RpcSystem rpc(sim, net);
  bool got = false;
  rpc.call(1, 7, kMasterPort, RpcRequest{}, msec(50),
           [&](const RpcResponse& resp) {
             got = true;
             EXPECT_EQ(resp.status, Status::kTimeout);
           });
  sim.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(sim.now(), msec(50));
  EXPECT_EQ(rpc.timeoutsObserved(), 1u);
}

TEST(Rpc, UnbindDuringFlightTimesOut) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  RpcSystem rpc(sim, net);
  EchoService echo;
  rpc.bind(2, kMasterPort, &echo);
  rpc.unbind(2, kMasterPort);
  bool timedOut = false;
  rpc.call(1, 2, kMasterPort, RpcRequest{}, msec(10),
           [&](const RpcResponse& r) {
             timedOut = r.status == Status::kTimeout;
           });
  sim.run();
  EXPECT_TRUE(timedOut);
  EXPECT_EQ(echo.handled, 0);
}

class SlowService : public RpcService {
 public:
  explicit SlowService(sim::Simulation& s, sim::Duration delay = msec(100))
      : sim_(s), delay_(delay) {}
  void handleRpc(const RpcRequest&, node::NodeId,
                 Responder respond) override {
    sim_.schedule(delay_, [respond = std::move(respond)]() mutable {
      respond(RpcResponse{});
    });
  }
  sim::Simulation& sim_;
  sim::Duration delay_;
};

TEST(Rpc, LateResponseAfterTimeoutIsDropped) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  RpcSystem rpc(sim, net);
  SlowService slow(sim);
  rpc.bind(2, kMasterPort, &slow);
  int callbacks = 0;
  rpc.call(1, 2, kMasterPort, RpcRequest{}, msec(10),
           [&](const RpcResponse& r) {
             ++callbacks;
             EXPECT_EQ(r.status, Status::kTimeout);
           });
  sim.run();
  EXPECT_EQ(callbacks, 1);  // exactly once, and it was the timeout
}

TEST(Rpc, ManyConcurrentCallsAllComplete) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  RpcSystem rpc(sim, net);
  EchoService echo;
  rpc.bind(2, kMasterPort, &echo);
  int done = 0;
  for (int i = 0; i < 500; ++i) {
    RpcRequest req;
    req.a = static_cast<std::uint64_t>(i);
    rpc.call(1, 2, kMasterPort, req, sim::seconds(1),
             [&done, i](const RpcResponse& r) {
               EXPECT_EQ(r.a, static_cast<std::uint64_t>(i) + 1);
               ++done;
             });
  }
  sim.run();
  EXPECT_EQ(done, 500);
}

// ----- timeout ordering contract --------------------------------------------
// Timeouts ride per-timeout-value deadline queues with one armed timer each;
// these pin that every timeout still fires at the (time, seq) point a
// per-RPC timer scheduled inside call() would have taken.

TEST(RpcTimeouts, TimeoutSharingItsNsKeepsScheduleOrder) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  RpcSystem rpc(sim, net);
  SlowService slow(sim, msec(2));
  rpc.bind(2, kMasterPort, &slow);
  std::vector<std::string> order;
  // The head is answered at ~2 ms, after the second RPC joined the queue,
  // so the queue timer re-arms for that RPC long after its call(); the
  // timeout must still sort by the call-time seq.
  rpc.call(1, 2, kMasterPort, RpcRequest{}, msec(10),
           [](const RpcResponse& r) { EXPECT_EQ(r.status, Status::kOk); });
  sim.scheduleAt(msec(11), [&] { order.push_back("scheduled before call"); });
  sim.schedule(msec(1), [&] {
    rpc.call(1, 7, kMasterPort, RpcRequest{}, msec(10),
             [&](const RpcResponse& r) {
               EXPECT_EQ(r.status, Status::kTimeout);
               order.push_back("timeout");
             });
    sim.scheduleAt(msec(11), [&] { order.push_back("scheduled after call"); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"scheduled before call", "timeout",
                                             "scheduled after call"}));
}

TEST(RpcTimeouts, LiveRpcBehindAnsweredHeadTimesOutAtItsDeadline) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  RpcSystem rpc(sim, net);
  SlowService slow(sim, msec(5));
  rpc.bind(2, kMasterPort, &slow);
  rpc.call(1, 2, kMasterPort, RpcRequest{}, msec(10),
           [](const RpcResponse& r) { EXPECT_EQ(r.status, Status::kOk); });
  sim::SimTime timedOutAt = -1;
  sim.schedule(msec(3), [&] {
    rpc.call(1, 7, kMasterPort, RpcRequest{}, msec(10),
             [&](const RpcResponse& r) {
               EXPECT_EQ(r.status, Status::kTimeout);
               timedOutAt = sim.now();
             });
  });
  sim.run();
  EXPECT_EQ(timedOutAt, msec(13));
  EXPECT_EQ(rpc.timeoutsObserved(), 1u);
}

TEST(RpcTimeouts, TimeoutClassesExpireIndependently) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  RpcSystem rpc(sim, net);
  std::vector<std::pair<int, sim::SimTime>> fired;
  // The long timeout is issued first: a shared FIFO would hold the short
  // one hostage behind it.
  rpc.call(1, 7, kMasterPort, RpcRequest{}, msec(50),
           [&](const RpcResponse&) { fired.emplace_back(50, sim.now()); });
  rpc.call(1, 7, kMasterPort, RpcRequest{}, msec(10),
           [&](const RpcResponse&) { fired.emplace_back(10, sim.now()); });
  rpc.call(1, 7, kMasterPort, RpcRequest{}, msec(50),
           [&](const RpcResponse&) { fired.emplace_back(51, sim.now()); });
  sim.run();
  using F = std::pair<int, sim::SimTime>;
  EXPECT_EQ(fired, (std::vector<F>{F{10, msec(10)}, F{50, msec(50)},
                                   F{51, msec(50)}}));
  EXPECT_EQ(rpc.timeoutsObserved(), 3u);
}

TEST(RpcTimeouts, TimeoutCallbackMayIssueAnotherRpc) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  RpcSystem rpc(sim, net);
  std::vector<std::pair<char, sim::SimTime>> fired;
  rpc.call(1, 7, kMasterPort, RpcRequest{}, msec(10),
           [&](const RpcResponse&) {
             fired.emplace_back('a', sim.now());
             rpc.call(1, 7, kMasterPort, RpcRequest{}, msec(10),
                      [&](const RpcResponse&) {
                        fired.emplace_back('c', sim.now());
                      });
           });
  sim.schedule(msec(5), [&] {
    rpc.call(1, 7, kMasterPort, RpcRequest{}, msec(10),
             [&](const RpcResponse&) { fired.emplace_back('b', sim.now()); });
  });
  sim.run();
  using F = std::pair<char, sim::SimTime>;
  EXPECT_EQ(fired, (std::vector<F>{F{'a', msec(10)}, F{'b', msec(15)},
                                   F{'c', msec(20)}}));
  EXPECT_EQ(sim.now(), msec(20));
}

TEST(RpcTimeouts, RunEndsAtTheLastReplyNotAtAnyDeadline) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  RpcSystem rpc(sim, net);
  EchoService echo;
  rpc.bind(2, kMasterPort, &echo);
  sim::SimTime lastReply = -1;
  for (int i = 0; i < 3; ++i) {
    rpc.call(1, 2, kMasterPort, RpcRequest{}, sim::seconds(1),
             [&](const RpcResponse&) { lastReply = sim.now(); });
  }
  sim.run();
  ASSERT_GT(lastReply, 0);
  EXPECT_EQ(sim.now(), lastReply);
  EXPECT_EQ(sim.pendingEvents(), 0u);

  // A timed-out RPC ahead of an answered one: the run ends at the timeout.
  rpc.call(1, 7, kMasterPort, RpcRequest{}, msec(10),
           [](const RpcResponse&) {});
  rpc.call(1, 2, kMasterPort, RpcRequest{}, msec(10),
           [](const RpcResponse&) {});
  const sim::SimTime start = sim.now();
  sim.run();
  EXPECT_EQ(sim.now(), start + msec(10));
}

TEST(RpcTimeouts, LateReplyDoesNotCompleteTheRpcReusingItsSlot) {
  sim::Simulation sim;
  Network net(sim, TransportParams::infiniband());
  RpcSystem rpc(sim, net);
  SlowService slow(sim);
  rpc.bind(2, kMasterPort, &slow);
  std::vector<std::pair<Status, sim::SimTime>> first, second;
  rpc.call(1, 2, kMasterPort, RpcRequest{}, msec(10),
           [&](const RpcResponse& r) {
             first.emplace_back(r.status, sim.now());
           });
  sim.schedule(msec(20), [&] {
    rpc.call(1, 2, kMasterPort, RpcRequest{}, sim::seconds(1),
             [&](const RpcResponse& r) {
               second.emplace_back(r.status, sim.now());
             });
  });
  sim.run();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].first, Status::kTimeout);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].first, Status::kOk);
  EXPECT_GT(second[0].second, msec(120));  // its own reply, not the stale one
}

}  // namespace
}  // namespace rc::net
