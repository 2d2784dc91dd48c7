#include "sim/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace rc::sim {

void MinMaxMean::add(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += v;
  ++count_;
}

void MinMaxMean::merge(const MinMaxMean& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ += other.count_;
}

void MinMaxMean::reset() { *this = MinMaxMean{}; }

double MinMaxMean::min() const { return count_ ? min_ : 0; }
double MinMaxMean::max() const { return count_ ? max_ : 0; }
double MinMaxMean::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0;
}

namespace {
// 64 coarse powers of two, each split into 32 linear sub-buckets.
constexpr std::size_t kSubBuckets = 32;
constexpr std::size_t kNumBuckets = 64 * kSubBuckets;
}  // namespace

LatencyDigest::LatencyDigest() : buckets_(kNumBuckets, 0) {}

std::size_t LatencyDigest::bucketFor(Duration v) {
  if (v < 0) v = 0;
  const auto u = static_cast<std::uint64_t>(v);
  if (u < kSubBuckets) return static_cast<std::size_t>(u);
  const int log = 63 - std::countl_zero(u);
  const std::size_t sub =
      static_cast<std::size_t>((u >> (log - 5)) & (kSubBuckets - 1));
  const std::size_t idx =
      static_cast<std::size_t>(log - 4) * kSubBuckets + sub;
  return std::min(idx, kNumBuckets - 1);
}

Duration LatencyDigest::bucketUpper(std::size_t b) {
  if (b < kSubBuckets) return static_cast<Duration>(b);
  const std::size_t log = b / kSubBuckets + 4;
  const std::size_t sub = b % kSubBuckets;
  const std::uint64_t base = 1ULL << log;
  const std::uint64_t width = base / kSubBuckets;
  return static_cast<Duration>(base + (sub + 1) * width - 1);
}

void LatencyDigest::add(Duration v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += static_cast<double>(v);
  ++count_;
  ++buckets_[bucketFor(v)];
}

void LatencyDigest::merge(const LatencyDigest& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  sum_ += other.sum_;
  count_ += other.count_;
}

void LatencyDigest::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = max_ = 0;
}

double LatencyDigest::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0;
}

Duration LatencyDigest::percentile(double q) const {
  if (count_ == 0) return 0;
  // Degenerate quantiles answer exactly, without touching the buckets: q=0
  // is the minimum and q=1 the maximum by definition.
  if (q <= 0) return min_;
  if (q >= 1) return max_;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      // A log bucket's upper bound can overshoot the samples it holds by up
      // to one sub-bucket width (~2.4%). Clamping into [min, max] keeps
      // every quantile inside the observed range, so p99 of a 1-sample or
      // all-equal histogram is the sample itself, not an interpolation.
      return std::clamp(bucketUpper(i), min_, max_);
    }
  }
  return max_;
}

double TimeSeries::meanValue() const {
  if (points_.empty()) return 0;
  double s = 0;
  for (const auto& p : points_) s += p.value;
  return s / static_cast<double>(points_.size());
}

double TimeSeries::maxValue() const {
  double m = points_.empty() ? 0 : points_.front().value;
  for (const auto& p : points_) m = std::max(m, p.value);
  return m;
}

double TimeSeries::meanInWindow(SimTime from, SimTime to) const {
  double s = 0;
  std::uint64_t n = 0;
  for (const auto& p : points_) {
    if (p.time >= from && p.time < to) {
      s += p.value;
      ++n;
    }
  }
  return n ? s / static_cast<double>(n) : 0;
}

double TimeSeries::stepIntegral(SimTime end) const {
  if (points_.empty()) return 0;
  double area = 0;
  for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
    area += points_[i].value * toSeconds(points_[i + 1].time - points_[i].time);
  }
  if (end > points_.back().time) {
    area += points_.back().value * toSeconds(end - points_.back().time);
  }
  return area;
}

std::string TimeSeries::toCsv(const std::string& header) const {
  std::ostringstream os;
  os << "time_s," << header << "\n";
  for (const auto& p : points_) {
    os << toSeconds(p.time) << "," << p.value << "\n";
  }
  return os.str();
}

void TimeWeightedValue::set(SimTime t, double value) {
  if (!started_) {
    started_ = true;
    startTime_ = t;
    lastTime_ = t;
    value_ = value;
    return;
  }
  if (t > lastTime_) {
    integral_ += value_ * toSeconds(t - lastTime_);
    lastTime_ = t;
  }
  value_ = value;
}

double TimeWeightedValue::integralTo(SimTime t) const {
  double r = integral_;
  if (started_ && t > lastTime_) r += value_ * toSeconds(t - lastTime_);
  return r;
}

double OpCounter::rate(std::uint64_t startCount, std::uint64_t endCount,
                       SimTime from, SimTime to) {
  // Zero-length (or inverted) windows and counter resets (endCount behind
  // startCount, e.g. across a process crash) both yield 0 instead of
  // dividing by zero / wrapping the unsigned difference.
  if (to <= from || endCount < startCount) return 0;
  return static_cast<double>(endCount - startCount) / toSeconds(to - from);
}

}  // namespace rc::sim
