#include "load/traffic_source.hpp"

#include <utility>

namespace rc::load {

TrafficSource::TrafficSource(sim::Simulation& sim,
                             client::RamCloudClient& client,
                             std::uint64_t tableId, ycsb::WorkloadSpec spec,
                             TrafficSourceParams params, sim::Rng rng)
    : OpCore(sim, client, tableId, std::move(spec), params, {}, rng),
      params_(std::move(params)),
      process_(params_.shape, OpCore::rng().fork(2)) {}

void TrafficSource::start() {
  if (running_) return;
  running_ = true;
  newGeneration();
  cursor_ = sim().now();
  pending_.clear();
  scheduleWake();
}

void TrafficSource::stop() {
  running_ = false;
  newGeneration();
  pending_.clear();
}

void TrafficSource::refill() {
  // Draw whole inter-arrival runs until something lands in the buffer; the
  // guard bounds how many empty horizons (zero-rate stretches, diurnal
  // valleys) one wakeup scans before yielding back to the event loop.
  for (int guard = 0; pending_.empty() && guard < 64; ++guard) {
    runBuf_.clear();
    cursor_ = process_.drawRun(cursor_, kMaxHorizon, kMaxBatch, runBuf_);
    arrivalsGenerated_ += runBuf_.size();
    for (sim::SimTime t : runBuf_) pending_.push_back(t);
  }
}

void TrafficSource::scheduleWake() {
  if (!running_) return;
  refill();
  const std::uint64_t gen = generation();
  sim::SimTime tw;
  if (pending_.empty()) {
    tw = cursor_;  // long quiet stretch: re-poll at the generation frontier
  } else {
    tw = pending_.front();
    const sim::Duration q = params_.batchQuantum;
    if (q > 0) tw = (tw + q - 1) / q * q;  // batch the quantum's arrivals
  }
  sim().scheduleAt(tw, [this, gen] {
    if (generation() == gen) onWake();
  });
}

void TrafficSource::onWake() {
  if (!running_) return;
  ++wakeups_;
  const sim::SimTime now = sim().now();
  while (!pending_.empty() && pending_.front() <= now) {
    const sim::SimTime intent = pending_.front();
    pending_.pop_front();
    if (inFlight() >= kMaxInFlight) {
      ++sourceDropped_;
      continue;
    }
    // Intent-to-completion latency: the open-loop tail metric. Includes
    // any batching-quantum issue delay and all queueing/retries — exactly
    // what a real user behind this source sees.
    issue(intent, intent);
  }
  scheduleWake();
}

}  // namespace rc::load
