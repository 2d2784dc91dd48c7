#include "ycsb/ycsb_client.hpp"

#include <utility>

namespace rc::ycsb {

YcsbClient::YcsbClient(sim::Simulation& sim, client::RamCloudClient& client,
                       std::uint64_t tableId, WorkloadSpec spec,
                       YcsbClientParams params, sim::Rng rng)
    : OpCore(sim, client, tableId, std::move(spec), params, params, rng),
      params_(std::move(params)),
      bucket_(params_.throttleOpsPerSec) {}

void YcsbClient::start() {
  if (running_) return;
  running_ = true;
  newGeneration();
  issueNext();
}

void YcsbClient::stop() {
  running_ = false;
  newGeneration();
}

void YcsbClient::issueNext() {
  if (!running_ || done()) return;
  const std::uint64_t gen = generation();

  // SLO latency runs from here — the moment the op *wants* to go — so a
  // token-bucket throttle wait counts against the tenant's budget.
  const sim::SimTime intent = sim().now();
  const sim::Duration wait = bucket_.reserve(intent);
  auto fire = [this, gen, intent] {
    if (generation() != gen || !running_) return;
    issue(intent, sim().now(), [this] { afterOp(); });
  };
  if (wait > 0) {
    sim().schedule(wait, std::move(fire));
  } else {
    fire();
  }
}

void YcsbClient::afterOp() {
  if (done()) {
    running_ = false;
    if (onDone) onDone();
    return;
  }
  // Client-side processing before the next op in the closed loop. An
  // active load surge (FaultPlan kLoadSurge) divides the overhead, so
  // this client offers surgeFactor × its normal rate for the window.
  constexpr double j = kClientOverheadJitter;
  double factor = 1.0 - j + 2.0 * j * rng().uniformDouble();
  if (surging()) factor /= surgeFactor_;
  const auto overhead = static_cast<sim::Duration>(
      static_cast<double>(params_.clientOverheadPerOp) * factor);
  const std::uint64_t gen = generation();
  sim().schedule(overhead, [this, gen] {
    if (generation() == gen) issueNext();
  });
}

}  // namespace rc::ycsb
