#include "obs/metrics_exporter.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/jsonl.hpp"

namespace rc::obs {

namespace {

void writeHistogramLine(std::ostream& os, const std::string& name,
                        const std::string& unit, const sim::Histogram& h) {
  const HistogramSummary s = summarizeHistogram(h);
  os << "{\"type\":\"histogram\",\"name\":\"" << jsonEscape(name)
     << "\",\"unit\":\"" << jsonEscape(unit) << "\",\"count\":" << s.count
     << ",\"mean\":" << s.meanUs << ",\"p50\":" << s.p50Us
     << ",\"p90\":" << s.p90Us << ",\"p99\":" << s.p99Us
     << ",\"max\":" << s.maxUs << "}\n";
}

void writeSeriesLines(std::ostream& os, const std::string& name,
                      const sim::TimeSeries& ts) {
  for (const auto& p : ts.points()) {
    os << "{\"type\":\"point\",\"name\":\"" << jsonEscape(name)
       << "\",\"t\":" << sim::toSeconds(p.time) << ",\"value\":" << p.value
       << "}\n";
  }
}

}  // namespace

void MetricsExporter::addSeries(const std::string& name,
                                const sim::TimeSeries* ts) {
  if (ts != nullptr) extraSeries_.emplace_back(name, ts);
}

bool MetricsExporter::writeJsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  registry_.forEach([&](const MetricInfo& info) {
    if (info.kind == MetricKind::kHistogram) {
      const sim::Histogram* h = registry_.histogramAt(info.name);
      static const sim::Histogram kEmpty;
      writeHistogramLine(os, info.name, info.unit, h != nullptr ? *h : kEmpty);
      return;
    }
    os << "{\"type\":\"" << kindName(info.kind) << "\",\"name\":\""
       << jsonEscape(info.name) << "\",\"unit\":\"" << jsonEscape(info.unit)
       << "\",\"value\":" << registry_.value(info.name) << "}\n";
  });
  if (sampler_ != nullptr) {
    for (const auto& [name, ts] : sampler_->series()) {
      writeSeriesLines(os, name, ts);
    }
  }
  for (const auto& [name, ts] : extraSeries_) {
    writeSeriesLines(os, name, *ts);
  }
  return static_cast<bool>(os);
}

bool MetricsExporter::writeSeriesCsv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  if (sampler_ == nullptr || sampler_->series().empty()) {
    os << "time_s\n";
    return static_cast<bool>(os);
  }
  const auto& all = sampler_->series();
  os << "time_s";
  for (const auto& [name, ts] : all) os << "," << name;
  os << "\n";
  // Every sampler series shares the same tick times by construction; rows
  // are bounded by the shortest series for safety (a metric registered
  // mid-run starts late).
  std::size_t rows = all.front().second.size();
  for (const auto& [name, ts] : all) rows = std::min(rows, ts.size());
  const auto& clock = all.front().second.points();
  const std::size_t skewFront = all.front().second.size() - rows;
  for (std::size_t i = 0; i < rows; ++i) {
    os << sim::toSeconds(clock[skewFront + i].time);
    for (const auto& [name, ts] : all) {
      const auto& pts = ts.points();
      os << "," << pts[pts.size() - rows + i].value;
    }
    os << "\n";
  }
  return static_cast<bool>(os);
}

bool MetricsExporter::exportRunDir(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  const std::filesystem::path base(dir);
  return writeJsonl((base / "metrics.jsonl").string()) &&
         writeSeriesCsv((base / "series.csv").string());
}

std::vector<MetricsExporter::Record> MetricsExporter::readJsonl(
    const std::string& path) {
  std::vector<Record> out;
  std::ifstream is(path);
  for (std::string line; std::getline(is, line);) {
    if (line.empty()) continue;
    Record r;
    if (!jsonString(line, "type", &r.type)) continue;
    jsonString(line, "name", &r.name);
    jsonString(line, "unit", &r.unit);
    jsonNumber(line, "value", &r.value);
    jsonNumber(line, "t", &r.t);
    double n = 0;
    if (jsonNumber(line, "count", &n)) {
      r.count = static_cast<std::uint64_t>(n);
    }
    jsonNumber(line, "mean", &r.mean);
    jsonNumber(line, "p50", &r.p50);
    jsonNumber(line, "p90", &r.p90);
    jsonNumber(line, "p99", &r.p99);
    jsonNumber(line, "max", &r.max);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace rc::obs
