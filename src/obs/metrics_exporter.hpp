#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metric_registry.hpp"
#include "obs/stats_sampler.hpp"
#include "sim/stats.hpp"

namespace rc::obs {

/// Dumps a run's observability state into a run directory:
///
///   <dir>/metrics.jsonl — one JSON object per line: every registered
///     counter/gauge ("value"), every histogram (count/mean/p50/p90/p99/max,
///     microseconds) and every sampler and extra series point ("point").
///   <dir>/series.csv — wide CSV of the sampler's aligned 1 Hz series:
///     time_s, then one column per series, one row per tick.
///
/// readJsonl() parses the exporter's own output back (round-trip tested),
/// so plotting scripts and tests share one format.
class MetricsExporter {
 public:
  explicit MetricsExporter(const MetricRegistry& registry)
      : registry_(registry) {}

  void attachSampler(const StatsSampler* sampler) { sampler_ = sampler; }

  /// Include an externally-owned series (e.g. a PDU trace) in the JSONL
  /// dump. The pointer must outlive the exporter calls.
  void addSeries(const std::string& name, const sim::TimeSeries* ts);

  bool writeJsonl(const std::string& path) const;
  bool writeSeriesCsv(const std::string& path) const;

  /// Create `dir` (and parents) and write metrics.jsonl + series.csv.
  bool exportRunDir(const std::string& dir) const;

  /// One parsed line of metrics.jsonl. `type` is "counter", "gauge",
  /// "histogram" or "point"; unused fields stay zero/empty.
  struct Record {
    std::string type;
    std::string name;
    std::string unit;
    double value = 0;
    double t = 0;  ///< seconds (points)
    std::uint64_t count = 0;
    double mean = 0, p50 = 0, p90 = 0, p99 = 0, max = 0;  ///< us (histograms)
  };
  static std::vector<Record> readJsonl(const std::string& path);

 private:
  const MetricRegistry& registry_;
  const StatsSampler* sampler_ = nullptr;
  std::vector<std::pair<std::string, const sim::TimeSeries*>> extraSeries_;
};

}  // namespace rc::obs
