#include "node/disk.hpp"

#include <algorithm>
#include <utility>

namespace rc::node {

Disk::Disk(sim::Simulation& sim, DiskParams params)
    : sim_(sim), params_(params) {
  busy_.set(sim_.now(), 0);
}

void Disk::read(std::uint64_t bytes, Callback done, power::EnergyTag tag) {
  if (!on_) return;
  queue_.push_back(Op{nextOpId_++, false, std::max<std::uint64_t>(bytes, 1),
                      std::move(done), tag});
  if (!active_) serviceNext();
}

void Disk::write(std::uint64_t bytes, Callback done, power::EnergyTag tag) {
  if (!on_) return;
  queue_.push_back(Op{nextOpId_++, true, std::max<std::uint64_t>(bytes, 1),
                      std::move(done), tag});
  if (!active_) serviceNext();
}

void Disk::powerOff() {
  on_ = false;
  ++epoch_;
  queue_.clear();
  active_ = false;
  busy_.set(sim_.now(), 0);
}

void Disk::powerOn() {
  if (on_) return;
  on_ = true;
  ++epoch_;
}

void Disk::setSlowdownFactor(double factor) {
  slowdown_ = factor < 1.0 ? 1.0 : factor;
}

bool Disk::stalled() const { return sim_.now() < stallUntil_; }

void Disk::stallFor(sim::Duration d) {
  const sim::SimTime until = sim_.now() + d;
  if (until <= stallUntil_) return;
  stallUntil_ = until;
  if (!active_ && !queue_.empty()) serviceNext();
}

void Disk::serviceNext() {
  if (!on_ || queue_.empty()) {
    active_ = false;
    busy_.set(sim_.now(), 0);
    return;
  }
  if (stalled()) {
    // Stalled: hold the queue, resume exactly at stall end. The disk does
    // no useful work, so it counts as idle for utilisation/power.
    active_ = false;
    busy_.set(sim_.now(), 0);
    if (!resumePending_) {
      resumePending_ = true;
      const std::uint64_t epoch = epoch_;
      sim_.scheduleAt(stallUntil_, [this, epoch] {
        resumePending_ = false;
        if (epoch_ != epoch || active_) return;
        if (!queue_.empty()) serviceNext();
      });
    }
    return;
  }
  active_ = true;
  busy_.set(sim_.now(), 1);

  Op op = std::move(queue_.front());
  queue_.pop_front();

  const std::uint64_t chunk = std::min(op.remaining, kDiskChunkBytes);
  const double mbps =
      (op.isWrite ? kDiskWriteMBps : params_.readMBps) / slowdown_;
  sim::Duration t = sim::secondsF(static_cast<double>(chunk) / (mbps * 1e6));
  if (op.id != lastServedOp_) t += params_.seekTime;
  lastServedOp_ = op.id;

  const std::uint64_t epoch = epoch_;
  const double serviceSeconds = sim::toSeconds(t);
  sim_.schedule(t, [this, epoch, chunk, serviceSeconds,
                    op = std::move(op)]() mutable {
    if (epoch_ != epoch) return;
    if (chargeMeter_ != nullptr) {
      chargeMeter_->charge(power::Component::kDisk, op.tag,
                           serviceSeconds * chargeActiveWatts_);
    }
    if (op.isWrite) {
      bytesWritten_ += chunk;
    } else {
      bytesRead_ += chunk;
    }
    op.remaining -= chunk;
    if (op.remaining == 0) {
      if (op.done) op.done();
    } else {
      // Round-robin: unfinished streams go to the back so concurrent
      // operations interleave (and pay seeks on every alternation).
      queue_.push_back(std::move(op));
    }
    serviceNext();
  });
}

}  // namespace rc::node
