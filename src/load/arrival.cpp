#include "load/arrival.hpp"

#include <algorithm>
#include <cmath>

namespace rc::load {

double DiurnalCurve::at(sim::SimTime t) const {
  if (flat()) return 1.0;
  const auto p = static_cast<double>(period);
  double phase = std::fmod(static_cast<double>(t) / p, 1.0);
  if (phase < 0) phase += 1.0;
  // Locate the knot pair bracketing `phase` (points sorted; wrap at 1).
  std::size_t hi = 0;
  while (hi < points.size() && points[hi].phase <= phase) ++hi;
  const RatePoint& a = points[(hi + points.size() - 1) % points.size()];
  const RatePoint& b = points[hi % points.size()];
  double span = b.phase - a.phase;
  double off = phase - a.phase;
  if (span <= 0) span += 1.0;   // wrapped segment
  if (off < 0) off += 1.0;
  if (span <= 0) return a.mult;  // single knot
  const double f = off / span;
  return a.mult + (b.mult - a.mult) * f;
}

double DiurnalCurve::mean() const {
  if (flat()) return 1.0;
  if (points.size() == 1) return points[0].mult;
  // Exact trapezoid integral over one period of the piecewise-linear curve.
  double sum = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const RatePoint& a = points[i];
    const RatePoint& b = points[(i + 1) % points.size()];
    double span = b.phase - a.phase;
    if (span <= 0) span += 1.0;
    sum += 0.5 * (a.mult + b.mult) * span;
  }
  return sum;
}

ArrivalProcess::ArrivalProcess(TrafficShape shape, sim::Rng rng)
    : shape_(std::move(shape)), rng_(rng) {
  std::sort(shape_.flashCrowds.begin(), shape_.flashCrowds.end(),
            [](const FlashCrowd& a, const FlashCrowd& b) {
              return a.at < b.at;
            });
  if (shape_.process == TrafficShape::Process::kOnOff) {
    const int k = std::max(1, shape_.onOffSources);
    on_.resize(static_cast<std::size_t>(k));
    flipAt_.resize(static_cast<std::size_t>(k));
    const sim::Duration offMean = static_cast<sim::Duration>(
        static_cast<double>(shape_.onMean) * (1.0 - kOnFraction) /
        kOnFraction);
    for (std::size_t i = 0; i < on_.size(); ++i) {
      on_[i] = rng_.bernoulli(kOnFraction) ? 1 : 0;
      flipAt_[i] = paretoDuration(on_[i] ? shape_.onMean : offMean);
    }
  }
}

sim::Duration ArrivalProcess::paretoDuration(sim::Duration mean) {
  // Bounded Pareto with mean ~`mean`: x = xm / U^(1/alpha), where
  // xm = mean*(alpha-1)/alpha. The 20x-mean cap keeps one unlucky draw
  // from silencing a sub-source for a whole run; the tail below the cap
  // still spans the timescales that make the superposition self-similar.
  const double alpha = kParetoShape;
  const double m = std::max(1.0, static_cast<double>(mean));
  const double xm = m * (alpha - 1.0) / alpha;
  const double u = std::max(rng_.uniformDouble(), 1e-12);
  const double x = std::min(xm / std::pow(u, 1.0 / alpha), 20.0 * m);
  return std::max<sim::Duration>(1, static_cast<sim::Duration>(x));
}

void ArrivalProcess::advanceOnOff(sim::SimTime t) {
  if (on_.empty()) return;
  const sim::Duration offMean = static_cast<sim::Duration>(
      static_cast<double>(shape_.onMean) * (1.0 - kOnFraction) / kOnFraction);
  for (std::size_t i = 0; i < on_.size(); ++i) {
    while (flipAt_[i] <= t) {
      on_[i] = on_[i] ? 0 : 1;
      flipAt_[i] += paretoDuration(on_[i] ? shape_.onMean : offMean);
    }
  }
}

double ArrivalProcess::crowdFactor(sim::SimTime t) const {
  // Overlapping crowds keep the largest factor (kLoadSurge semantics).
  double factor = 1.0;
  for (const FlashCrowd& c : shape_.flashCrowds) {
    if (t >= c.at && t < c.at + c.duration) factor = std::max(factor, c.factor);
  }
  for (const FlashCrowd& c : overlays_) {
    if (t >= c.at && t < c.at + c.duration) factor = std::max(factor, c.factor);
  }
  return factor;
}

double ArrivalProcess::rateAt(sim::SimTime t) const {
  double rate = shape_.baseRate() * shape_.diurnal.at(t) * crowdFactor(t);
  if (shape_.process == TrafficShape::Process::kOnOff && !on_.empty()) {
    int active = 0;
    for (char c : on_) active += c;
    rate *= static_cast<double>(active) /
            (static_cast<double>(on_.size()) * kOnFraction);
  }
  return std::max(rate, 0.0);
}

sim::SimTime ArrivalProcess::nextBoundary(sim::SimTime from,
                                          sim::SimTime cap) const {
  sim::SimTime b = cap;
  auto edge = [&](sim::SimTime t) {
    if (t > from && t < b) b = t;
  };
  for (const FlashCrowd& c : shape_.flashCrowds) {
    edge(c.at);
    edge(c.at + c.duration);
  }
  for (const FlashCrowd& c : overlays_) {
    edge(c.at);
    edge(c.at + c.duration);
  }
  for (sim::SimTime t : flipAt_) edge(t);
  return b;
}

sim::SimTime ArrivalProcess::drawRun(sim::SimTime from,
                                     sim::Duration maxHorizon,
                                     std::size_t maxCount,
                                     std::vector<sim::SimTime>& out) {
  advanceOnOff(from);
  const sim::SimTime end =
      nextBoundary(from, from + std::max<sim::Duration>(maxHorizon, 1));
  const double rate = rateAt(from);
  if (rate <= 0 || maxCount == 0) return end;
  const double meanGapSec = 1.0 / rate;
  sim::SimTime t = from;
  std::size_t n = 0;
  while (true) {
    t += std::max<sim::Duration>(
        1, sim::secondsF(rng_.exponential(meanGapSec)));
    if (t > end) return end;
    out.push_back(t);
    if (++n >= maxCount) return t;  // resume exactly here next run
  }
}

}  // namespace rc::load
