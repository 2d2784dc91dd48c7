#include "obs/event_journal.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/jsonl.hpp"

namespace rc::obs {

EventJournal::SpanId EventJournal::beginSpan(const std::string& name, int node,
                                             SpanId parent, std::uint64_t ctx) {
  const SpanId id = nextSpan_++;
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.node = node;
  s.ctx = ctx;
  s.begin = sim_.now();
  index_[id] = spans_.size();
  spans_.push_back(std::move(s));
  openEnergy0_[id] = energyProbe_ ? energyProbe_(node) : EnergyBreakdown{};
  ++started_;
  return id;
}

EventJournal::SpanId EventJournal::event(const std::string& name, int node,
                                         SpanId parent, std::uint64_t ctx) {
  const SpanId id = beginSpan(name, node, parent, ctx);
  endSpan(id);
  return id;
}

void EventJournal::addBytes(SpanId id, std::uint64_t bytes) {
  auto it = index_.find(id);
  if (it != index_.end()) spans_[it->second].bytes += bytes;
}

void EventJournal::addCount(SpanId id, std::uint64_t n) {
  auto it = index_.find(id);
  if (it != index_.end()) spans_[it->second].count += n;
}

void EventJournal::linkSpan(SpanId id, SpanId parent, std::uint64_t ctx) {
  auto it = index_.find(id);
  if (it == index_.end()) return;
  spans_[it->second].parent = parent;
  spans_[it->second].ctx = ctx;
}

void EventJournal::close(SpanId id, bool abandoned) {
  auto e0 = openEnergy0_.find(id);
  if (e0 == openEnergy0_.end()) return;  // unknown or already closed
  auto it = index_.find(id);
  Span& s = spans_[it->second];
  s.end = sim_.now();
  s.open = false;
  s.abandoned = abandoned;
  if (energyProbe_) {
    const EnergyBreakdown now = energyProbe_(s.node);
    const EnergyBreakdown& then = e0->second;
    s.cpuJ = now.cpu - then.cpu;
    s.dramJ = now.dram - then.dram;
    s.nicJ = now.nic - then.nic;
    s.diskJ = now.disk - then.disk;
    s.joules = now.total() - then.total();
  }
  openEnergy0_.erase(e0);
  if (abandoned) {
    ++abandoned_;
  } else {
    ++completed_;
  }
}

void EventJournal::endSpan(SpanId id) { close(id, /*abandoned=*/false); }

void EventJournal::abandonSpan(SpanId id) { close(id, /*abandoned=*/true); }

void EventJournal::abandonNode(int node) {
  // Collect first: close() mutates openEnergy0_.
  std::vector<SpanId> toClose;
  for (const auto& [id, j0] : openEnergy0_) {
    if (spans_[index_.at(id)].node == node) toClose.push_back(id);
  }
  // Deterministic order regardless of hash-map iteration.
  std::sort(toClose.begin(), toClose.end());
  for (SpanId id : toClose) close(id, /*abandoned=*/true);
}

const EventJournal::Span* EventJournal::span(SpanId id) const {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &spans_[it->second];
}

std::vector<const EventJournal::Span*> EventJournal::spansNamed(
    const std::string& name) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(&s);
  }
  return out;
}

std::vector<const EventJournal::Span*> EventJournal::spansInCtx(
    std::uint64_t ctx) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.ctx == ctx) out.push_back(&s);
  }
  return out;
}

double EventJournal::joulesForPhase(const std::string& name) const {
  double j = 0;
  for (const Span& s : spans_) {
    if (!s.open && (name.empty() || s.name == name)) j += s.joules;
  }
  return j;
}

void EventJournal::registerMetrics(MetricRegistry& reg,
                                   const std::string& prefix) {
  reg.probeCounter(prefix + ".spans_started", "ops",
                   [this] { return static_cast<double>(started_); });
  reg.probeCounter(prefix + ".spans_completed", "ops",
                   [this] { return static_cast<double>(completed_); });
  reg.probeCounter(prefix + ".spans_abandoned", "ops",
                   [this] { return static_cast<double>(abandoned_); });
  reg.probeGauge(prefix + ".open_spans", "items",
                 [this] { return static_cast<double>(openSpans()); });
}

bool EventJournal::writeJsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  char t0[32];
  char t1[32];
  char joules[32];
  char comp[4][32];
  for (const Span& s : spans_) {
    // Nanosecond-resolution seconds keep interval queries exact on re-read.
    std::snprintf(t0, sizeof t0, "%.9f", sim::toSeconds(s.begin));
    std::snprintf(t1, sizeof t1, "%.9f",
                  sim::toSeconds(s.open ? s.begin : s.end));
    std::snprintf(joules, sizeof joules, "%.6f", s.joules);
    std::snprintf(comp[0], sizeof comp[0], "%.6f", s.cpuJ);
    std::snprintf(comp[1], sizeof comp[1], "%.6f", s.dramJ);
    std::snprintf(comp[2], sizeof comp[2], "%.6f", s.nicJ);
    std::snprintf(comp[3], sizeof comp[3], "%.6f", s.diskJ);
    os << "{\"type\":\"span\",\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"name\":\"" << jsonEscape(s.name) << "\",\"node\":" << s.node
       << ",\"ctx\":" << s.ctx << ",\"t0\":" << t0 << ",\"t1\":" << t1
       << ",\"open\":" << (s.open ? 1 : 0)
       << ",\"abandoned\":" << (s.abandoned ? 1 : 0) << ",\"joules\":" << joules
       << ",\"cpu_j\":" << comp[0] << ",\"dram_j\":" << comp[1]
       << ",\"nic_j\":" << comp[2] << ",\"disk_j\":" << comp[3]
       << ",\"bytes\":" << s.bytes << ",\"count\":" << s.count << "}\n";
  }
  return static_cast<bool>(os);
}

std::vector<EventJournal::Span> EventJournal::readJsonl(
    const std::string& path) {
  std::vector<Span> out;
  std::ifstream is(path);
  for (std::string line; std::getline(is, line);) {
    if (line.empty()) continue;
    std::string type;
    if (!jsonString(line, "type", &type) || type != "span") continue;
    Span s;
    double n = 0;
    if (jsonNumber(line, "id", &n)) s.id = static_cast<SpanId>(n);
    if (jsonNumber(line, "parent", &n)) s.parent = static_cast<SpanId>(n);
    jsonString(line, "name", &s.name);
    if (jsonNumber(line, "node", &n)) s.node = static_cast<int>(n);
    if (jsonNumber(line, "ctx", &n)) s.ctx = static_cast<std::uint64_t>(n);
    if (jsonNumber(line, "t0", &n)) s.begin = sim::secondsF(n);
    if (jsonNumber(line, "t1", &n)) s.end = sim::secondsF(n);
    if (jsonNumber(line, "open", &n)) s.open = n != 0;
    if (jsonNumber(line, "abandoned", &n)) s.abandoned = n != 0;
    jsonNumber(line, "joules", &s.joules);
    jsonNumber(line, "cpu_j", &s.cpuJ);
    jsonNumber(line, "dram_j", &s.dramJ);
    jsonNumber(line, "nic_j", &s.nicJ);
    jsonNumber(line, "disk_j", &s.diskJ);
    if (jsonNumber(line, "bytes", &n)) s.bytes = static_cast<std::uint64_t>(n);
    if (jsonNumber(line, "count", &n)) s.count = static_cast<std::uint64_t>(n);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace rc::obs
