#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace rc::sim {

/// Streaming min / max / mean / count over doubles.
class MinMaxMean {
 public:
  void add(double v);
  void merge(const MinMaxMean& other);
  void reset();

  std::uint64_t count() const { return count_; }
  double min() const;
  double max() const;
  double mean() const;
  double sum() const { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Fixed-size log-bucketed quantile digest: 64 powers of two, each split
/// into 32 linear sub-buckets (~2.4% relative bucket width), nanosecond
/// domain. O(1) record, O(buckets) merge, O(buckets) memory regardless of
/// sample count — every percentile surface in the repo (stage histograms,
/// the SLO tracker's sliding windows) is backed by this representation, so
/// million-op runs never retain raw samples.
class LatencyDigest {
 public:
  LatencyDigest();

  void add(Duration v);
  void merge(const LatencyDigest& other);
  void reset();

  std::uint64_t count() const { return count_; }
  double mean() const;
  Duration min() const { return count_ ? min_ : 0; }
  Duration max() const { return count_ ? max_ : 0; }

  /// q in [0,1]; returns an upper bound of the bucket containing the
  /// q-quantile, clamped into [min, max]. percentile(0.5) is the median;
  /// tail quantiles (0.99, 0.999) resolve to the same ~2.4% bucket width
  /// as any other quantile.
  Duration percentile(double q) const;

 private:
  static std::size_t bucketFor(Duration v);
  static Duration bucketUpper(std::size_t b);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  Duration min_ = 0;
  Duration max_ = 0;
};

/// Log-bucketed latency histogram (nanosecond resolution, ~2.4% bucket
/// width). Suitable for microsecond..minute latencies. The histogram *is*
/// a LatencyDigest — same buckets, same percentile math — the name only
/// marks long-lived whole-run aggregates apart from windowed digests.
class Histogram : public LatencyDigest {};

/// A sampled time series: (time, value) points in append order.
/// Used for PDU power traces, CPU-usage traces, disk I/O traces.
class TimeSeries {
 public:
  struct Point {
    SimTime time;
    double value;
  };

  void add(SimTime t, double v) { points_.push_back({t, v}); }
  void reset() { points_.clear(); }

  const std::vector<Point>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }

  double meanValue() const;
  double maxValue() const;

  /// Mean of values with time in [from, to).
  double meanInWindow(SimTime from, SimTime to) const;

  /// Trapezoid-free integral treating samples as left-continuous steps:
  /// sum of value[i] * (t[i+1]-t[i]); the last sample extends to `end`.
  double stepIntegral(SimTime end) const;

  std::string toCsv(const std::string& header) const;

 private:
  std::vector<Point> points_;
};

/// Integrates a piecewise-constant value over simulated time.
/// Drives CPU-utilisation accounting and energy metering.
class TimeWeightedValue {
 public:
  /// Set the value as of time `t`. Times must be nondecreasing.
  void set(SimTime t, double value);

  /// Integral of the value from the first set() to time `t`
  /// (value is extended flat to `t`). Units: value * seconds.
  double integralTo(SimTime t) const;

  double current() const { return value_; }

 private:
  double value_ = 0;
  double integral_ = 0;
  SimTime lastTime_ = 0;
  bool started_ = false;
  SimTime startTime_ = 0;

 public:
  SimTime startTime() const { return startTime_; }
};

/// Completion rates over [from, to] windows.
class OpCounter {
 public:
  /// Snapshot-based window rate: callers remember a cumulative completion
  /// count at window start.
  static double rate(std::uint64_t startCount, std::uint64_t endCount,
                     SimTime from, SimTime to);
};

}  // namespace rc::sim
