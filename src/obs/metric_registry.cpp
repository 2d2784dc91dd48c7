#include "obs/metric_registry.hpp"

#include <cassert>

namespace rc::obs {

HistogramSummary summarizeHistogram(const sim::Histogram& h) {
  HistogramSummary s;
  s.count = h.count();
  s.meanUs = h.mean() / 1e3;
  s.p50Us = sim::toMicros(h.percentile(0.5));
  s.p90Us = sim::toMicros(h.percentile(0.9));
  s.p99Us = sim::toMicros(h.percentile(0.99));
  s.maxUs = sim::toMicros(h.max());
  return s;
}

const char* kindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

MetricRegistry::Entry& MetricRegistry::upsert(const std::string& name,
                                              MetricKind kind,
                                              const std::string& unit) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& e = *entries_[it->second];
    assert(e.info.kind == kind && "metric re-registered with a different kind");
    return e;
  }
  auto e = std::make_unique<Entry>();
  e->info = MetricInfo{name, kind, unit};
  entries_.push_back(std::move(e));
  index_[name] = entries_.size() - 1;
  return *entries_.back();
}

void MetricRegistry::probeCounter(const std::string& name,
                                  const std::string& unit,
                                  std::function<double()> fn) {
  Entry& e = upsert(name, MetricKind::kCounter, unit);
  e.read = std::move(fn);
}

void MetricRegistry::probeGauge(const std::string& name,
                                const std::string& unit,
                                std::function<double()> fn) {
  Entry& e = upsert(name, MetricKind::kGauge, unit);
  e.read = std::move(fn);
}

void MetricRegistry::probeHistogram(
    const std::string& name, const std::string& unit,
    std::function<const sim::Histogram*()> fn) {
  Entry& e = upsert(name, MetricKind::kHistogram, unit);
  e.readHist = std::move(fn);
}

bool MetricRegistry::has(const std::string& name) const {
  return index_.count(name) > 0;
}

const MetricInfo* MetricRegistry::info(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &entries_[it->second]->info;
}

void MetricRegistry::forEach(
    const std::function<void(const MetricInfo&)>& fn) const {
  for (const auto& e : entries_) fn(e->info);
}

const MetricInfo& MetricRegistry::infoAt(std::size_t idx) const {
  return entries_[idx]->info;
}

double MetricRegistry::valueAt(std::size_t idx) const {
  const Entry& e = *entries_[idx];
  return e.read ? e.read() : 0;
}

double MetricRegistry::value(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return 0;
  const Entry& e = *entries_[it->second];
  return e.read ? e.read() : 0;
}

const sim::Histogram* MetricRegistry::histogramAt(
    const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  const Entry& e = *entries_[it->second];
  return e.readHist ? e.readHist() : nullptr;
}

}  // namespace rc::obs
