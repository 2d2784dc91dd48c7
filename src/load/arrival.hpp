#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace rc::load {

/// One knot of a periodic, piecewise-linear rate multiplier curve.
struct RatePoint {
  double phase = 0;  ///< position within the period, in [0, 1)
  double mult = 1.0;
};

/// Periodic rate multiplier (diurnal load shape): linear interpolation
/// between knots, wrapping at the period. period <= 0 or no knots = flat 1.
/// Energy-proportionality studies live and die on these valleys
/// (Lang et al., PAPERS.md); docs/WORKLOADS.md has the model.
struct DiurnalCurve {
  sim::Duration period = 0;
  std::vector<RatePoint> points;  ///< sorted by phase

  bool flat() const { return period <= 0 || points.empty(); }
  double at(sim::SimTime t) const;
  /// Time-average multiplier over one period (exact trapezoid integral);
  /// the arrival-statistics tests check generated counts against it.
  double mean() const;
};

/// A scheduled rate surge: multiplier `factor` over [at, at + duration).
/// Overlapping crowds keep the largest factor (matching the kLoadSurge
/// fault's semantics, which this subsumes).
struct FlashCrowd {
  sim::SimTime at = 0;
  sim::Duration duration = 0;
  double factor = 1.0;
};

/// kOnOff: the long-run fraction of time a sub-source is on, and the
/// shape of its Pareto on/off periods (heavy-tailed for 1 < shape < 2).
inline constexpr double kOnFraction = 0.25;
inline constexpr double kParetoShape = 1.5;
static_assert(kOnFraction > 0 && kOnFraction <= 1);
static_assert(kParetoShape > 1);

/// Shape of one TrafficSource's aggregated population: ~10^4 modeled users
/// collapse into a single open-loop arrival process of mean rate
/// users * opsPerUserPerSec, modulated by the diurnal curve and flash
/// crowds. docs/WORKLOADS.md derives the population-scaling math.
struct TrafficShape {
  enum class Process {
    kPoisson,  ///< memoryless aggregate (many independent thin users)
    kOnOff,    ///< superposed heavy-tailed on/off sub-sources: the
               ///< Willinger et al. construction of self-similar traffic
  };
  Process process = Process::kPoisson;

  double users = 10'000;
  double opsPerUserPerSec = 1.0;

  // kOnOff only: the population is split into `onOffSources` independent
  // sub-sources, each alternating Pareto(kParetoShape) on/off periods with
  // the given mean on-duration and on-time fraction kOnFraction. While on,
  // a sub-source emits at rate baseRate/(onOffSources*kOnFraction), so the
  // long-run mean matches baseRate but the instantaneous rate is bursty at
  // every scale the heavy tail spans.
  int onOffSources = 32;
  sim::Duration onMean = sim::msec(200);

  DiurnalCurve diurnal;
  std::vector<FlashCrowd> flashCrowds;

  double baseRate() const { return users * opsPerUserPerSec; }
};

/// Draws batched arrival runs for one TrafficSource. All randomness comes
/// from the Rng handed in (splitmix-forked per source by the cluster), so a
/// given (seed, source) pair replays bit-identically.
class ArrivalProcess {
 public:
  ArrivalProcess(TrafficShape shape, sim::Rng rng);

  /// Instantaneous offered rate at `t` (ops/sec), including diurnal and
  /// flash-crowd modulation and — for kOnOff — the currently-on sub-source
  /// count as of the last drawRun() cursor.
  double rateAt(sim::SimTime t) const;

  /// Runtime flash-crowd overlay (FaultPlan kLoadSurge lands here).
  void addCrowd(const FlashCrowd& c) { overlays_.push_back(c); }

  /// Draw the next run of arrivals after `from`: strictly increasing times
  /// in (from, end] are appended to `out`, where end <= from + maxHorizon
  /// is clamped to the next rate-change boundary (flash-crowd edge or
  /// on/off flip) so the rate is exactly constant across the drawn span.
  /// Returns `end`, the caller's new generation cursor. Stops early (at the
  /// last drawn arrival) once maxCount arrivals were appended.
  sim::SimTime drawRun(sim::SimTime from, sim::Duration maxHorizon,
                       std::size_t maxCount, std::vector<sim::SimTime>& out);

 private:
  double crowdFactor(sim::SimTime t) const;
  sim::SimTime nextBoundary(sim::SimTime from, sim::SimTime cap) const;
  void advanceOnOff(sim::SimTime t);
  sim::Duration paretoDuration(sim::Duration mean);

  TrafficShape shape_;
  sim::Rng rng_;
  std::vector<FlashCrowd> overlays_;
  // kOnOff sub-source state (parallel arrays; onOffSources is small).
  std::vector<char> on_;
  std::vector<sim::SimTime> flipAt_;
};

}  // namespace rc::load
