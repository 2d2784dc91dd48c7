#include "sim/simulation.hpp"

#include <limits>
#include <utility>

namespace rc::sim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}

void Simulation::cancel(EventId id) {
  if (id != kInvalidEvent) heap_.cancel(id);
}

bool Simulation::popAndRunOne(SimTime limit) {
  if (heap_.empty() || heap_.topTime() > limit) return false;
  const EventHeap::Item top = heap_.popTop();
  now_ = top.time;
  curSeq_ = top.seq;
  ++executed_;
  heap_.task(top.slot)();
  heap_.release(top.slot);
  return true;
}

std::uint64_t Simulation::run() {
  std::uint64_t n = 0;
  while (!stopped_ && popAndRunOne(std::numeric_limits<SimTime>::max())) ++n;
  endRun();
  return n;
}

std::uint64_t Simulation::runUntil(SimTime t) {
  std::uint64_t n = 0;
  while (!stopped_ && popAndRunOne(t)) ++n;
  if (!stopped_ && now_ < t) now_ = t;
  endRun();
  return n;
}

PeriodicTask::PeriodicTask(Simulation& sim, Duration interval,
                           std::function<void(SimTime)> fn)
    : sim_(sim), interval_(interval), fn_(std::move(fn)) {
  arm();
}

PeriodicTask::~PeriodicTask() { cancel(); }

void PeriodicTask::cancel() {
  if (!active_) return;
  active_ = false;
  sim_.cancel(pending_);
  pending_ = kInvalidEvent;
}

void PeriodicTask::arm() {
  pending_ = sim_.schedule(interval_, [this] {
    if (!active_) return;
    fn_(sim_.now());
    if (active_) arm();
  });
}

}  // namespace rc::sim
