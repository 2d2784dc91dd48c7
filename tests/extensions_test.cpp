// Tests for the paper's SS IX-B / SS X extension features implemented here:
// one-sided RDMA replication and Ethernet transport.

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
