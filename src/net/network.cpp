#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rc::net {

Network::Network(sim::Simulation& sim, TransportParams params)
    : sim_(sim), params_(params) {}

sim::SimTime Network::send(node::NodeId from, node::NodeId to,
                           std::uint64_t bytes, DeliverFn deliver,
                           power::EnergyTag tag) {
  bytesSent_ += bytes;
  chargeNic(from, bytes, tag);

  const sim::Duration wire = sim::secondsF(
      static_cast<double>(bytes) / (params_.bandwidthMBps * 1e6));

  assert(from >= 0);
  const auto slot = static_cast<std::size_t>(from);
  if (slot >= txFree_.size()) txFree_.resize(slot + 1, 0);
  sim::SimTime& txFree = txFree_[slot];
  const sim::SimTime txStart = std::max(sim_.now(), txFree);
  const sim::SimTime txEnd = txStart + params_.perMessageOverhead + wire;
  txFree = txEnd;

  sim::SimTime arrival = (to == from) ? txEnd : txEnd + params_.oneWayLatency;
  if (faultFilter_) {
    const FaultVerdict v = faultFilter_(from, to, bytes);
    if (v.drop) {
      // The sender's NIC time is still charged (the bytes left the host);
      // the message just never arrives, so the caller's timeout machinery
      // takes over.
      ++messagesDropped_;
      return arrival;
    }
    arrival += v.extraLatency;
  }
  chargeNic(to, bytes, tag);
  sim_.scheduleAt(arrival, std::move(deliver));
  return arrival;
}

}  // namespace rc::net
