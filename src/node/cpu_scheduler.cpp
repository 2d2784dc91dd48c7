#include "node/cpu_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rc::node {

CpuScheduler::CpuScheduler(sim::Simulation& sim, CpuParams params)
    : sim_(sim), params_(params) {
  params_.workerThreads =
      std::max(1, std::min(params_.workerThreads,
                           params_.cores - kPollingCores));
  state_.assign(static_cast<std::size_t>(params_.workerThreads),
                WorkerState::Sleeping);
  spinSeq_.assign(state_.size(), 0);
  pendingAssign_.resize(state_.size());
  tags_.assign(state_.size(), power::EnergyTag{});
  occupiedSince_.assign(state_.size(), 0);
  for (int w = params_.workerThreads - 1; w >= 0; --w) {
    sleepingStack_.push_back(w);
  }
  busy_.set(sim_.now(), 0);
}

void CpuScheduler::settleSpins() const {
  while (!spins_.empty() &&
         sim_.hasHappened(spins_.front().end, spins_.front().seq)) {
    const Spin s = spins_.front();
    spins_.pop_front();
    const auto w = static_cast<std::size_t>(s.worker);
    if (state_[w] != WorkerState::Spinning || spinSeq_[w] != s.seq) {
      continue;  // re-acquired while spinning
    }
    state_[w] = WorkerState::Sleeping;
    --spinningCount_;
    std::erase(spinningStack_, s.worker);
    sleepingStack_.push_back(s.worker);
    busy_.set(s.end, busyCores());
  }
}

double CpuScheduler::unspentSpinSeconds(sim::SimTime t) const {
  if (sim_.pendingEvents() != 0) return 0;
  double unspent = 0;
  for (const Spin& s : spins_) {
    const auto w = static_cast<std::size_t>(s.worker);
    if (s.end < t && state_[w] == WorkerState::Spinning &&
        spinSeq_[w] == s.seq) {
      unspent += sim::toSeconds(t - s.end);
    }
  }
  return unspent;
}

double CpuScheduler::busyCoreSeconds(sim::SimTime t) const {
  settleSpins();
  return busy_.integralTo(t) - unspentSpinSeconds(t);
}

void CpuScheduler::powerOn() {
  if (on_) return;
  on_ = true;
  ++epoch_;
  setBusyCores();
}

void CpuScheduler::powerOff() {
  if (!on_) return;
  settleSpins();
  spins_.clear();
  on_ = false;
  ++epoch_;
  queue_.clear();
  for (std::size_t w = 0; w < state_.size(); ++w) {
    if (state_[w] == WorkerState::Busy) {
      flushOccupancy(static_cast<WorkerId>(w));  // orphaned by the crash
    }
    pendingAssign_[w] = nullptr;  // wakeups in flight are orphaned
    state_[w] = WorkerState::Sleeping;
  }
  spinningStack_.clear();
  sleepingStack_.clear();
  for (int w = params_.workerThreads - 1; w >= 0; --w) {
    sleepingStack_.push_back(w);
  }
  busyCount_ = 0;
  spinningCount_ = 0;
  setBusyCores();
}

void CpuScheduler::flushOccupancy(WorkerId w) {
  if (chargeMeter_ == nullptr) return;
  const double secs =
      sim::toSeconds(sim_.now() - occupiedSince_[static_cast<std::size_t>(w)]);
  if (secs > 0) {
    chargeMeter_->charge(power::Component::kCpu,
                         tags_[static_cast<std::size_t>(w)],
                         secs * chargeWattsPerCore_);
  }
}

void CpuScheduler::assign(WorkerId w, AcquireFn fn, bool fromSleep) {
  state_[static_cast<std::size_t>(w)] = WorkerState::Busy;
  occupiedSince_[static_cast<std::size_t>(w)] = sim_.now();
  tags_[static_cast<std::size_t>(w)] = power::EnergyTag{};
  ++busyCount_;
  setBusyCores();
  if (fromSleep && params_.wakeupLatency > 0) {
    // Park the grant in the worker's slot: the wakeup event then captures
    // only (this, epoch, w) and stays within InlineTask's inline buffer.
    // The slot is free — a Busy worker cannot be re-assigned until the
    // grant has run and released it.
    pendingAssign_[static_cast<std::size_t>(w)] = std::move(fn);
    const std::uint64_t epoch = epoch_;
    sim_.schedule(params_.wakeupLatency, [this, epoch, w] {
      if (epoch_ != epoch) return;
      AcquireFn fn = std::move(pendingAssign_[static_cast<std::size_t>(w)]);
      fn(w);
    });
  } else {
    fn(w);
  }
}

void CpuScheduler::acquireWorker(AcquireFn fn) {
  if (!on_) return;  // crashed process: request silently dropped (times out)
  settleSpins();
  if (!spinningStack_.empty()) {
    const WorkerId w = spinningStack_.back();
    spinningStack_.pop_back();
    --spinningCount_;
    assign(w, std::move(fn), /*fromSleep=*/false);
    return;
  }
  if (!sleepingStack_.empty()) {
    const WorkerId w = sleepingStack_.back();
    sleepingStack_.pop_back();
    assign(w, std::move(fn), /*fromSleep=*/true);
    return;
  }
  queue_.push_back(std::move(fn));
  maxQueue_ = std::max(maxQueue_, queue_.size());
}

void CpuScheduler::releaseWorker(WorkerId w) {
  if (!on_) return;  // release from an operation that straddled a crash
  assert(state_[static_cast<std::size_t>(w)] == WorkerState::Busy);
  settleSpins();
  flushOccupancy(w);
  if (!queue_.empty()) {
    AcquireFn next = std::move(queue_.front());
    queue_.pop_front();
    // Worker stays Busy; a fresh occupancy window opens for the next op.
    occupiedSince_[static_cast<std::size_t>(w)] = sim_.now();
    tags_[static_cast<std::size_t>(w)] = power::EnergyTag{};
    next(w);
    return;
  }
  --busyCount_;
  startSpin(w);
}

void CpuScheduler::startSpin(WorkerId w) {
  state_[static_cast<std::size_t>(w)] = WorkerState::Spinning;
  ++spinningCount_;
  spinningStack_.push_back(w);
  setBusyCores();
  const std::uint64_t seq = sim_.reserveSeq();
  spinSeq_[static_cast<std::size_t>(w)] = seq;
  const sim::Duration spin =
      std::max<sim::Duration>(params_.workerSpinBeforeSleep, 0);
  spins_.push_back(Spin{w, sim_.now() + spin, seq});
}

void CpuScheduler::run(sim::Duration cpuTime, sim::InlineTask done) {
  run(cpuTime, power::EnergyTag{}, std::move(done));
}

void CpuScheduler::run(sim::Duration cpuTime, power::EnergyTag tag,
                       sim::InlineTask done) {
  const std::uint64_t epoch = epoch_;
  acquireWorker([this, epoch, cpuTime, tag,
                 done = std::move(done)](WorkerId w) mutable {
    tagWorker(w, tag);
    sim_.schedule(cpuTime, [this, epoch, w, done = std::move(done)] {
      if (epoch_ != epoch) return;  // node crashed meanwhile
      releaseWorker(w);
      done();
    });
  });
}

CpuScheduler::Snapshot CpuScheduler::snapshot() const {
  settleSpins();
  return Snapshot{sim_.now(), busy_.integralTo(sim_.now()),
                  auxBusyCoreSeconds_};
}

double CpuScheduler::utilisationSince(const Snapshot& s,
                                      sim::SimTime t) const {
  if (t <= s.time) return 0;
  const double coreSeconds = busyCoreSeconds(t) - s.busyCoreSeconds +
                             (auxBusyCoreSeconds_ - s.auxBusyCoreSeconds);
  const double wall = sim::toSeconds(t - s.time);
  return std::clamp(coreSeconds / (wall * params_.cores), 0.0, 1.0);
}

}  // namespace rc::node
