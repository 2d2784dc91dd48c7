#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "node/node.hpp"
#include "power/energy_model.hpp"
#include "sim/inline_task.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace rc::net {

/// Point-to-point transport characteristics.
struct TransportParams {
  sim::Duration oneWayLatency = sim::usec(2);
  double bandwidthMBps = 2000.0;          ///< per-NIC serialisation rate
  sim::Duration perMessageOverhead = sim::nsec(300);

  /// Mellanox Infiniband-20G as on the Nancy nodes (the paper uses the
  /// Infiniband transport exclusively; kernel-bypass polling gives ~4-5 us
  /// RTTs for small RPCs).
  static TransportParams infiniband() {
    return TransportParams{sim::usec(2), 2000.0, sim::nsec(300)};
  }

  /// The nodes' Gigabit Ethernet card (kernel TCP): included for the
  /// companion study's comparisons and for tests.
  static TransportParams gigabitEthernet() {
    return TransportParams{sim::usec(30), 117.0, sim::usec(2)};
  }
};

/// Message-passing fabric between nodes.
///
/// Delivery time = sender-NIC serialisation (per-sender FIFO at
/// bandwidthMBps) + one-way latency. Receive-side CPU costs are modelled by
/// the services themselves (dispatch thread), not here.
class Network {
 public:
  using DeliverFn = sim::InlineTask;

  /// Fault-injection verdict for one message (see fault::FaultInjector).
  /// drop: the message vanishes after the sender serialised it — the
  /// receiver never runs `deliver`, so the RPC layer's timeout fires.
  /// extraLatency: added to the one-way flight time (latency spikes,
  /// degraded links).
  struct FaultVerdict {
    bool drop = false;
    sim::Duration extraLatency = 0;
  };
  using FaultFilter =
      std::function<FaultVerdict(node::NodeId, node::NodeId, std::uint64_t)>;

  Network(sim::Simulation& sim, TransportParams params);

  /// Sends `bytes` from `from` to `to`; `deliver` runs at the receiver's
  /// arrival time. Returns the scheduled arrival time. `tag` labels the
  /// frame for NIC energy attribution: the sender is always charged (the
  /// bytes left the host even when a fault drops the frame), the receiver
  /// only on delivery.
  sim::SimTime send(node::NodeId from, node::NodeId to, std::uint64_t bytes,
                    DeliverFn deliver,
                    power::EnergyTag tag = power::EnergyTag{});

  /// Consulted for every message; null disables injection.
  void setFaultFilter(FaultFilter f) { faultFilter_ = std::move(f); }

  /// NIC energy attribution: register each metered node once; send() then
  /// calls Node::chargeNic inline for both endpoints of every frame —
  /// no function-object indirection on the per-frame hot path.
  /// clearNicEnergy() removes every registration (the off side of the
  /// `bench_selfperf --energy-overhead` A/B); unregistered node ids
  /// (clients, the coordinator) are simply skipped.
  void setNicEnergyNode(node::NodeId id, node::Node* n) {
    const auto slot = static_cast<std::size_t>(id);
    if (nicNodes_.size() <= slot) nicNodes_.resize(slot + 1, nullptr);
    nicNodes_[slot] = n;
  }
  void clearNicEnergy() { nicNodes_.clear(); }

  const TransportParams& params() const { return params_; }

  std::uint64_t bytesSent() const { return bytesSent_; }
  std::uint64_t messagesDropped() const { return messagesDropped_; }

 private:
  sim::Simulation& sim_;
  TransportParams params_;
  /// When each sender's NIC is next free, indexed by node id (ids are
  /// dense and small); a node that never sent reads as free at time 0.
  std::vector<sim::SimTime> txFree_;
  void chargeNic(node::NodeId id, std::uint64_t bytes, power::EnergyTag tag) {
    const auto slot = static_cast<std::size_t>(id);
    if (slot < nicNodes_.size() && nicNodes_[slot] != nullptr) {
      nicNodes_[slot]->chargeNic(bytes, tag);
    }
  }

  FaultFilter faultFilter_;
  std::vector<node::Node*> nicNodes_;
  std::uint64_t bytesSent_ = 0;
  std::uint64_t messagesDropped_ = 0;
};

}  // namespace rc::net
