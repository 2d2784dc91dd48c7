#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "power/power_model.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace rc::power {

/// Per-node power distribution unit, sampled once per simulated second —
/// exactly how the paper's measurement scripts polled the physical PDUs
/// over SNMP.
///
/// The sampler asks the node for the joules it consumed over the elapsed
/// sampling interval (via the provided callback) and appends the mean watts
/// to a TimeSeries. Because every sample is an energy *delta* over a
/// contiguous window — including the final fractional window taken by
/// stop() — the sum of samples weighted by their coverage reproduces the
/// node's continuous energy integral exactly, which is the reconciliation
/// invariant `rcdiag energy check` gates on (docs/ENERGY.md).
class PduSampler {
 public:
  /// `energy(from, to)` must return the joules the node consumed over
  /// [from, to). Called once per sample with contiguous windows.
  using EnergyFn = std::function<double(sim::SimTime, sim::SimTime)>;

  PduSampler(sim::Simulation& sim, EnergyFn energy,
             sim::Duration interval = sim::seconds(1));

  /// Stop sampling (e.g. at the end of the measured window), taking one
  /// final fractional sample covering [lastSample, now). Idempotent:
  /// repeated calls are no-ops.
  void stop();
  bool stopped() const { return stopped_; }

  const sim::TimeSeries& trace() const { return trace_; }

  /// Mean sampled watts over the whole trace.
  double meanWatts() const { return trace_.meanValue(); }

  /// Energy in joules over [from, to) computed exactly as the paper does:
  /// each power sample multiplied by the window it covers, summed. Windows
  /// are the actual inter-sample gaps (the final stop() sample may cover a
  /// fraction of the nominal interval), clipped against [from, to), so a
  /// full-trace query equals totalSampledJoules() and the continuous
  /// integral the node computed.
  double sampledEnergyJoules(sim::SimTime from, sim::SimTime to) const;

  /// Sum of every energy delta sampled so far (the whole-trace integral).
  double totalSampledJoules() const { return totalJoules_; }

  /// Time the first sample window opened at (sampler construction).
  sim::SimTime startTime() const { return start_; }

  sim::Duration interval() const { return interval_; }

 private:
  void takeSample(sim::SimTime now);

  sim::Simulation& sim_;
  EnergyFn energy_;
  sim::Duration interval_;
  sim::TimeSeries trace_;
  sim::SimTime start_;
  sim::SimTime lastSample_;
  double totalJoules_ = 0;
  bool stopped_ = false;
  std::unique_ptr<sim::PeriodicTask> task_;
};

}  // namespace rc::power
