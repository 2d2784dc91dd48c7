#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "power/energy_ledger.hpp"
#include "power/energy_model.hpp"
#include "sim/inline_task.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace rc::node {

/// Sequential write bandwidth of the Nancy nodes' 298 GB HDD.
inline constexpr double kDiskWriteMBps = 105.0;

/// Transfer granularity at which concurrent disk operations interleave.
inline constexpr std::uint64_t kDiskChunkBytes = 256 * 1024;

/// Mechanical-disk parameters (defaults model the Nancy nodes' 298 GB HDD).
struct DiskParams {
  double readMBps = 110.0;  ///< sequential read bandwidth

  /// Head-movement penalty paid whenever the disk switches between
  /// concurrent streams (e.g. recovery-segment reads interleaving with
  /// re-replication flushes — the contention of paper Fig. 12 / Finding 6).
  sim::Duration seekTime = sim::msec(8);
};

/// FIFO + round-robin disk model.
///
/// Each read()/write() is one stream. Streams are serviced one chunk at a
/// time, round-robin; every switch between distinct streams pays seekTime.
/// A single sequential stream therefore gets full bandwidth, while mixed
/// read/write activity degrades sharply — the emergent behaviour behind the
/// paper's recovery-time findings.
class Disk {
 public:
  using Callback = sim::InlineTask;

  Disk(sim::Simulation& sim, DiskParams params);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// `tag` labels the stream for energy attribution: every serviced chunk's
  /// busy time (seek included) is flushed to the charge hook under it.
  void read(std::uint64_t bytes, Callback done,
            power::EnergyTag tag = power::EnergyTag{});
  void write(std::uint64_t bytes, Callback done,
             power::EnergyTag tag = power::EnergyTag{});

  /// Energy-attribution target: per serviced chunk, busySeconds ×
  /// activeWatts joules land directly on the meter (inlined — this is the
  /// per-IO completion path). Null disables attribution.
  void setChargeMeter(power::EnergyMeter* m, double activeWatts) {
    chargeMeter_ = m;
    chargeActiveWatts_ = activeWatts;
  }

  /// Crash: drop queued operations (their callbacks never run).
  void powerOff();
  void powerOn();

  // ----- fault injection (see fault::FaultInjector)

  /// Throughput degradation: both rates are divided by `factor` (>= 1;
  /// 1 restores nominal speed). Applies to chunks started after the call.
  void setSlowdownFactor(double factor);

  /// Firmware-style stall: no new chunk starts before now + `d`. In-flight
  /// chunks finish; queued operations (and their seek/rotate state) are
  /// preserved.
  void stallFor(sim::Duration d);
  bool stalled() const;

  std::size_t queueDepth() const { return queue_.size() + (active_ ? 1 : 0); }
  std::uint64_t bytesRead() const { return bytesRead_; }
  std::uint64_t bytesWritten() const { return bytesWritten_; }

  /// Busy-time integral in seconds (for utilisation stats).
  double busySeconds(sim::SimTime t) const { return busy_.integralTo(t); }

 private:
  struct Op {
    std::uint64_t id;
    bool isWrite;
    std::uint64_t remaining;
    Callback done;
    power::EnergyTag tag;
  };

  void serviceNext();

  sim::Simulation& sim_;
  DiskParams params_;
  bool on_ = true;
  std::uint64_t epoch_ = 0;
  double slowdown_ = 1.0;
  sim::SimTime stallUntil_ = 0;
  bool resumePending_ = false;
  std::uint64_t nextOpId_ = 1;
  std::uint64_t lastServedOp_ = 0;
  std::deque<Op> queue_;
  bool active_ = false;
  std::uint64_t bytesRead_ = 0;
  std::uint64_t bytesWritten_ = 0;
  sim::TimeWeightedValue busy_;
  power::EnergyMeter* chargeMeter_ = nullptr;
  double chargeActiveWatts_ = 0;
};

}  // namespace rc::node
