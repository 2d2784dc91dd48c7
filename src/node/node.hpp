#pragma once

#include <array>
#include <memory>
#include <string>

#include "node/cpu_scheduler.hpp"
#include "node/disk.hpp"
#include "obs/metric_registry.hpp"
#include "power/energy_ledger.hpp"
#include "power/energy_model.hpp"
#include "power/pdu.hpp"
#include "power/power_model.hpp"
#include "sim/simulation.hpp"

namespace rc::node {

/// Cluster-wide node identifier.
using NodeId = int;

constexpr NodeId kInvalidNode = -1;

/// Wall power of a machine put in standby (suspend-to-RAM) by the
/// autoscaler — the draw behind Sierra/Rabbit-style power proportionality
/// the paper's SS IX points to.
inline constexpr double kSuspendedWatts = 9.0;

/// One machine's configuration. Its power draw follows the per-resource
/// constants of power/energy_model.hpp, whose sum reproduces the fitted
/// curve power::fittedWatts within the 2 % calibration gate
/// (docs/ENERGY.md).
struct NodeParams {
  CpuParams cpu;
  DiskParams disk;
  /// Grid'5000 Nancy: only the 40 PDU-equipped machines are metered; client
  /// nodes are not. Unmetered nodes skip PDU sampling (cheaper, and matches
  /// the paper's methodology: reported watts cover servers only).
  bool metered = true;
};

/// One physical machine: CPU, disk, NIC-attachment point, power meter.
///
/// The RAMCloud *process* on a node can crash (crashProcess()) — the machine
/// stays powered (idle watts), exactly like killing the ramcloud-server
/// binary in the paper's crash-recovery experiments.
class Node {
 public:
  Node(sim::Simulation& sim, NodeId id, NodeParams params);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  sim::Simulation& sim() { return sim_; }
  CpuScheduler& cpu() { return cpu_; }
  const CpuScheduler& cpu() const { return cpu_; }
  Disk& disk() { return disk_; }
  const Disk& disk() const { return disk_; }

  /// Start the RAMCloud process (polling core goes busy).
  void startProcess();

  /// Kill the RAMCloud process: CPU queue dropped, disk queue dropped.
  void crashProcess();

  bool processRunning() const { return cpu_.poweredOn(); }

  /// Put the whole machine in standby (process stopped first): it draws
  /// kSuspendedWatts until resume().
  void suspendMachine();
  void resumeMachine();
  bool suspended() const { return suspended_; }

  /// Suspension-aware power accounting window.
  struct PowerSnapshot {
    CpuScheduler::Snapshot cpu;
    double suspendedSeconds = 0;
    double diskBusySeconds = 0;
    /// Meter dynamic totals at snapshot time (nic/dram event charges).
    std::array<double, power::kComponentCount> meterJoules{};
  };
  PowerSnapshot snapshotPower() const;

  /// Per-component joules consumed between a snapshot and `t` (statics
  /// prorated over the active window, dynamics from the integrals/meter);
  /// the array sums to energyJoulesSince.
  std::array<double, power::kComponentCount> componentEnergySince(
      const PowerSnapshot& s, sim::SimTime t) const;
  double energyJoulesSince(const PowerSnapshot& s, sim::SimTime t) const;
  double meanWattsSince(const PowerSnapshot& s, sim::SimTime t) const;

  /// Begin 1 Hz PDU sampling (no-op for unmetered nodes).
  void startPduSampling();
  void stopPduSampling();
  const power::PduSampler* pdu() const { return pdu_.get(); }
  /// Energy accounting origin taken when PDU sampling began (null before);
  /// componentEnergySince from it reconciles exactly with the PDU trace.
  const PowerSnapshot* pduBaseline() const { return pduBaseline_.get(); }

  // ----- energy attribution (docs/ENERGY.md)

  power::EnergyMeter& energyMeter() { return meter_; }
  const power::EnergyMeter& energyMeter() const { return meter_; }

  /// Enable/disable the attribution ledger. Off uninstalls the CPU/disk
  /// charge hooks entirely, so the A/B overhead gate measures the real
  /// per-event cost. Power and behaviour are identical either way.
  void setEnergyMetering(bool on);

  /// Charge one NIC frame / one DRAM access burst to the ledger.
  void chargeNic(std::uint64_t bytes, power::EnergyTag tag) {
    meter_.charge(power::Component::kNic, tag, power::nicJoules(bytes));
  }
  void chargeDram(std::uint64_t bytes, power::EnergyTag tag) {
    meter_.charge(power::Component::kDram, tag, power::dramJoules(bytes));
  }

  /// CPU accounting for metrics windows.
  CpuScheduler::Snapshot snapshotCpu() const { return cpu_.snapshot(); }
  double meanUtilisationSince(const CpuScheduler::Snapshot& s,
                              sim::SimTime t) const {
    return cpu_.utilisationSince(s, t);
  }

  /// Exact energy (J) between a CPU snapshot and `t`, via the calibration
  /// reference curve (legacy whole-node view; ignores event dynamics).
  double energyJoulesSince(const CpuScheduler::Snapshot& s,
                           sim::SimTime t) const;

  /// Instantaneous wattage estimate over the trailing PDU window (for
  /// logging); falls back to the model at current utilisation.
  double currentWatts() const;

  /// Register this machine's metrics under `prefix` (e.g. "node3"):
  /// cpu.util / power.watts (mean over the sampling window, so they align
  /// with the 1 Hz PDU ticks), worker/queue gauges, disk counters.
  void registerMetrics(obs::MetricRegistry& reg, const std::string& prefix);

 private:
  void installChargeHooks();

  sim::Simulation& sim_;
  NodeId id_;
  NodeParams params_;
  CpuScheduler cpu_;
  Disk disk_;
  power::EnergyMeter meter_;
  bool suspended_ = false;
  sim::TimeWeightedValue suspendedTime_;  ///< 1 while suspended
  std::unique_ptr<power::PduSampler> pdu_;
  std::unique_ptr<PowerSnapshot> pduBaseline_;
};

}  // namespace rc::node
