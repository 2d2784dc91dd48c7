#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "power/energy_ledger.hpp"
#include "power/energy_model.hpp"
#include "sim/inline_task.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace rc::node {

/// RAMCloud's dispatch thread busy-polls the NIC and is pinned to its own
/// core — the paper measures a 25 % CPU floor on 4-core nodes even with
/// zero clients (Table I row 0, Fig. 9a).
inline constexpr int kPollingCores = 1;

/// CPU configuration of one simulated server (defaults model the paper's
/// Grid'5000 Nancy nodes: 1x Xeon X3440, 4 cores).
struct CpuParams {
  int cores = 4;

  /// Worker threads servicing requests (RAMCloud runs roughly one per
  /// remaining core).
  int workerThreads = 3;

  /// After finishing work a worker busy-polls this long before sleeping;
  /// this produces Table I's staircase (one hot worker per active client
  /// stream) and the near-100 % CPU at load levels well below peak
  /// throughput — the paper's "non-proportional power" effect.
  sim::Duration workerSpinBeforeSleep = sim::usec(32);

  /// Context-switch cost to wake a sleeping worker.
  sim::Duration wakeupLatency = sim::usec(2);
};

/// Worker-slot scheduler with busy-core accounting.
///
/// A "worker" here is a RAMCloud worker thread. Request handlers acquire a
/// worker, drive an arbitrary multi-stage operation while occupying it
/// (service CPU, lock spin-waits, synchronous replication waits — RAMCloud
/// workers spin, so occupancy == CPU-busy), then release it. Utilisation is
/// integrated continuously and drives the power model.
///
/// A released worker's post-work spin is not an event. Its end joins a
/// FIFO of (worker, end, seq), with a seq reserved at release as if a
/// spin-end event were scheduled there; every entry point and reader first
/// settles, in order, each spin whose (end, seq) sorts before the running
/// event — writing the busy-core integral at the spin's own end time. Each
/// spin therefore ends at exactly the point in the event order such an
/// event would run.
class CpuScheduler {
 public:
  using WorkerId = int;
  using AcquireFn = sim::InlineFunction<void(WorkerId)>;

  CpuScheduler(sim::Simulation& sim, CpuParams params);

  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  /// Start the process: polling core(s) go busy.
  void powerOn();

  /// Kill the process: pending queue dropped, all workers idle, polling
  /// stops. In-flight operations holding workers are orphaned; their
  /// releases become no-ops (guarded by an epoch check).
  void powerOff();

  bool poweredOn() const { return on_; }

  /// Acquire a worker slot. `fn` runs as soon as a worker is available —
  /// synchronously if one is spinning, after wakeupLatency if one must be
  /// woken, or later if all are busy (FIFO request queue).
  void acquireWorker(AcquireFn fn);

  /// Release a worker previously granted to this operation. If requests are
  /// queued the worker immediately starts the next one; otherwise it spins
  /// for workerSpinBeforeSleep and then sleeps. The worker's occupancy
  /// (grant to release, wakeup latency included) is flushed to the charge
  /// hook under the tag set via tagWorker (default: unattributed).
  void releaseWorker(WorkerId id);

  /// Label the current occupancy of `id` for energy attribution; the
  /// charge fires at release time with the full occupancy duration.
  void tagWorker(WorkerId id, power::EnergyTag tag) {
    tags_[static_cast<std::size_t>(id)] = tag;
  }

  /// Energy-attribution target: once per worker occupancy (at release /
  /// crash) and per auxiliary charge, coreSeconds × wattsPerCore joules
  /// land directly on the meter — inlined, since this is the
  /// worker-release hot path. Null disables attribution entirely (the
  /// busy-core integral — and so power — is unaffected either way).
  void setChargeMeter(power::EnergyMeter* m, double wattsPerCore) {
    chargeMeter_ = m;
    chargeWattsPerCore_ = wattsPerCore;
  }

  /// Convenience: occupy a worker for `cpuTime`, then call `done`.
  void run(sim::Duration cpuTime, sim::InlineTask done);
  void run(sim::Duration cpuTime, power::EnergyTag tag, sim::InlineTask done);

  /// Epoch increments on every powerOff/powerOn; continuations captured
  /// before a crash must check it before touching the scheduler.
  std::uint64_t epoch() const { return epoch_; }

  std::size_t queuedRequests() const { return queue_.size(); }
  int busyWorkers() const { return busyCount_; }
  int workerThreads() const { return params_.workerThreads; }

  /// Continuous busy-core integral (core-seconds) up to time t >= now-ish.
  double busyCoreSeconds(sim::SimTime t) const;

  /// Charge CPU work that is not a worker occupancy — e.g. replication
  /// requests serviced at dispatch priority, whose cycles would otherwise
  /// hide inside the already-pinned polling core. Accumulated into the
  /// utilisation (clamped at the core count), so it shows up in power.
  void chargeAuxiliaryWork(sim::Duration d,
                           power::EnergyTag tag = power::EnergyTag{}) {
    if (!on_) return;
    auxBusyCoreSeconds_ += sim::toSeconds(d);
    if (chargeMeter_ != nullptr) {
      chargeMeter_->charge(power::Component::kCpu, tag,
                           sim::toSeconds(d) * chargeWattsPerCore_);
    }
  }

  /// Mean utilisation in [0,1] between a snapshot and time `t`.
  struct Snapshot {
    sim::SimTime time = 0;
    double busyCoreSeconds = 0;
    double auxBusyCoreSeconds = 0;
  };
  Snapshot snapshot() const;
  double utilisationSince(const Snapshot& s, sim::SimTime t) const;

  /// Lifetime stats.
  std::size_t maxQueueDepth() const { return maxQueue_; }

 private:
  enum class WorkerState { Sleeping, Spinning, Busy };

  struct Spin {
    WorkerId worker;
    sim::SimTime end;
    std::uint64_t seq;
  };

  double busyCores() const {
    return (on_ ? kPollingCores : 0) + busyCount_ + spinningCount_;
  }
  void setBusyCores() { busy_.set(sim_.now(), busyCores()); }
  /// Put every worker whose spin has ended by the running event to sleep.
  void settleSpins() const;
  /// Core-seconds that spins still live at now() will not spend before
  /// `t`. Nonzero only when no event is pending (after a run() drained the
  /// heap): nothing can then re-acquire a worker before its spin ends, so
  /// each spin stops counting at its own end even though it is unsettled.
  double unspentSpinSeconds(sim::SimTime t) const;
  void assign(WorkerId w, AcquireFn fn, bool fromSleep);
  void startSpin(WorkerId w);
  void flushOccupancy(WorkerId w);

  sim::Simulation& sim_;
  CpuParams params_;
  bool on_ = false;
  std::uint64_t epoch_ = 0;

  // Settling a spin is a lazy catch-up on state that is a function of
  // time, so the const readers do it too: what it touches is mutable.
  mutable std::vector<WorkerState> state_;
  std::vector<std::uint64_t> spinSeq_;    // seq of each worker's live spin
  mutable std::deque<Spin> spins_;        // (end, seq) nondecreasing
  std::vector<AcquireFn> pendingAssign_;  // parked across wakeupLatency
  std::vector<power::EnergyTag> tags_;    // attribution of current occupancy
  std::vector<sim::SimTime> occupiedSince_;
  power::EnergyMeter* chargeMeter_ = nullptr;
  double chargeWattsPerCore_ = 0;
  mutable std::vector<WorkerId> spinningStack_;  // LIFO: hottest on top
  mutable std::vector<WorkerId> sleepingStack_;
  std::deque<AcquireFn> queue_;
  int busyCount_ = 0;
  mutable int spinningCount_ = 0;

  mutable sim::TimeWeightedValue busy_;
  double auxBusyCoreSeconds_ = 0;
  std::size_t maxQueue_ = 0;
};

}  // namespace rc::node
