#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace rc::obs {

/// What a registered metric measures. Counters are cumulative and
/// monotonically nondecreasing (the sampler turns them into window rates);
/// gauges are instantaneous readings; histograms are latency distributions
/// in nanoseconds.
enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* kindName(MetricKind k);

/// Export-ready digest of a latency histogram, in microseconds. All
/// percentiles are guaranteed inside [min, max] of the observed samples
/// (a 1-sample histogram reports that sample for every quantile).
struct HistogramSummary {
  std::uint64_t count = 0;
  double meanUs = 0;
  double p50Us = 0;
  double p90Us = 0;
  double p99Us = 0;
  double maxUs = 0;
};

HistogramSummary summarizeHistogram(const sim::Histogram& h);

struct MetricInfo {
  std::string name;  ///< hierarchical dotted path, e.g. "node3.dispatch.queue_depth"
  MetricKind kind = MetricKind::kGauge;
  std::string unit;  ///< "ops", "bytes", "ratio", "watts", "us", "items"
};

/// Cluster-wide metric registry (the repro's RawMetrics equivalent).
///
/// Components register metrics under a hierarchical dotted path at
/// construction time: probeCounter()/probeGauge()/probeHistogram() register
/// a callback that reads an existing component statistic, so the registry
/// owns no values. Registering a name again replaces its callback and keeps
/// its position.
///
/// Enumeration order is insertion order, which is deterministic because
/// cluster construction is.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// `fn` must return the cumulative count so far (monotone nondecreasing).
  void probeCounter(const std::string& name, const std::string& unit,
                    std::function<double()> fn);
  void probeGauge(const std::string& name, const std::string& unit,
                  std::function<double()> fn);
  /// `fn` may return nullptr (treated as an empty histogram).
  void probeHistogram(const std::string& name, const std::string& unit,
                      std::function<const sim::Histogram*()> fn);

  bool has(const std::string& name) const;
  std::size_t size() const { return entries_.size(); }
  const MetricInfo* info(const std::string& name) const;

  /// Visit every metric in registration order.
  void forEach(const std::function<void(const MetricInfo&)>& fn) const;

  /// Indexed access in registration order — lets samplers cache a metric's
  /// position at wiring time and read it each tick without any name lookup.
  const MetricInfo& infoAt(std::size_t idx) const;
  /// Value of the idx-th metric (0 for histograms).
  double valueAt(std::size_t idx) const;

  /// Current value of a counter or gauge (0 if absent or a histogram).
  double value(const std::string& name) const;

  /// Histogram behind `name` (nullptr if absent or not a histogram).
  const sim::Histogram* histogramAt(const std::string& name) const;

 private:
  struct Entry {
    MetricInfo info;
    std::function<double()> read;                      // counter/gauge
    std::function<const sim::Histogram*()> readHist;   // histogram
  };

  Entry& upsert(const std::string& name, MetricKind kind,
                const std::string& unit);

  std::vector<std::unique_ptr<Entry>> entries_;     // insertion order
  std::map<std::string, std::size_t> index_;        // name -> entries_ idx
};

}  // namespace rc::obs
