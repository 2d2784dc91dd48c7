#include "obs/slo_tracker.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/jsonl.hpp"

namespace rc::obs {

SloTracker::SloTracker(sim::Simulation& sim, sim::Duration window,
                       int exemplarsPerWindow)
    : sim_(sim),
      window_(std::max<sim::Duration>(1, window)),
      exemplarsPerWindow_(std::max(0, exemplarsPerWindow)) {}

int SloTracker::declareClass(const std::string& name, SloTarget target) {
  auto it = byName_.find(name);
  if (it != byName_.end()) {
    classes_[static_cast<std::size_t>(it->second)].target = target;
    return it->second;
  }
  const int id = static_cast<int>(classes_.size());
  ClassState cs;
  cs.name = name;
  cs.target = target;
  classes_.push_back(std::move(cs));
  byName_[name] = id;
  if (reg_ != nullptr) registerClassMetrics(id);
  return id;
}

int SloTracker::classId(const std::string& name) const {
  auto it = byName_.find(name);
  return it == byName_.end() ? -1 : it->second;
}

void SloTracker::record(int classId, int node, std::uint64_t span,
                        sim::Duration latency,
                        const TimeTrace::SpanDetail* detail) {
  if (classId < 0 || classId >= static_cast<int>(classes_.size())) return;
  ClassState& cs = classes_[static_cast<std::size_t>(classId)];
  const std::uint64_t idx = windowIndexAt(sim_.now());
  Window& w = cs.cur;
  if (w.open && w.index != idx) rotate(cs);
  if (!w.open) {
    w.open = true;
    w.index = idx;
    w.energyJ0 = energyProbe_ ? energyProbe_(classId) : 0;
  }
  w.digest.add(latency);
  const std::size_t slot = static_cast<std::size_t>(node < 0 ? 0 : node + 1);
  if (slot >= w.perNode.size()) w.perNode.resize(slot + 1);
  w.perNode[slot].add(latency);
  if (cs.target.p99 > 0 && latency > cs.target.p99) ++w.overP99;
  if (cs.target.p999 > 0 && latency > cs.target.p999) ++w.overP999;
  ++cs.recorded;
  ++recorded_;

  // Exemplar candidacy: keep the k slowest, sorted slowest-first. Ties
  // break on span id (ascending) so the selection is deterministic.
  // Browned out while any server sheds: SpanDetail copies are pure
  // observability and the first cost cut under overload (docs/OVERLOAD.md).
  if (exemplarsPerWindow_ > 0 && !exemplarBrownout_) {
    auto slower = [](const Exemplar& a, const Exemplar& b) {
      return a.latency != b.latency ? a.latency > b.latency : a.span < b.span;
    };
    const bool full =
        w.exemplars.size() >= static_cast<std::size_t>(exemplarsPerWindow_);
    if (!full || latency > w.exemplars.back().latency ||
        (latency == w.exemplars.back().latency &&
         span < w.exemplars.back().span)) {
      Exemplar e;
      e.span = span;
      e.node = node;
      e.latency = latency;
      if (detail != nullptr) e.detail = *detail;
      w.exemplars.insert(
          std::upper_bound(w.exemplars.begin(), w.exemplars.end(), e, slower),
          std::move(e));
      if (full) w.exemplars.pop_back();
    }
  }
}

void SloTracker::rotate(ClassState& cs) {
  Window& w = cs.cur;
  if (!w.open) return;
  WindowRow row;
  row.window = w.index;
  row.cls = cs.name;
  row.target = cs.target;
  row.count = w.digest.count();
  row.p50 = w.digest.percentile(0.5);
  row.p99 = w.digest.percentile(0.99);
  row.p999 = w.digest.percentile(0.999);
  row.overP99 = w.overP99;
  row.overP999 = w.overP999;
  if (row.count > 0) {
    const double n = static_cast<double>(row.count);
    if (cs.target.p99 > 0) {
      row.burnRate99 = (static_cast<double>(w.overP99) / n) / 0.01;
    }
    if (cs.target.p999 > 0) {
      row.burnRate999 = (static_cast<double>(w.overP999) / n) / 0.001;
    }
  }
  row.burnRate = std::max(row.burnRate99, row.burnRate999);
  row.breached = row.burnRate >= 1.0;
  if (energyProbe_) {
    const int id = static_cast<int>(&cs - classes_.data());
    row.joules = energyProbe_(id) - w.energyJ0;
    if (row.count > 0 && row.joules > 0) {
      row.joulesPerOp = row.joules / static_cast<double>(row.count);
      row.opsPerJoule = static_cast<double>(row.count) / row.joules;
    }
  }
  row.perNode.reserve(w.perNode.size());
  for (std::size_t slot = 0; slot < w.perNode.size(); ++slot) {
    const sim::LatencyDigest& d = w.perNode[slot];
    if (d.count() == 0) continue;
    NodeQuantiles nq;
    nq.node = static_cast<int>(slot) - 1;
    nq.count = d.count();
    nq.p50 = d.percentile(0.5);
    nq.p99 = d.percentile(0.99);
    nq.p999 = d.percentile(0.999);
    row.perNode.push_back(nq);
  }
  row.exemplars = std::move(w.exemplars);
  cs.lastBurn = row.burnRate;
  if (row.breached) {
    ++cs.breached;
    ++breachedTotal_;
  }
  w = Window{};
  rows_.push_back(std::move(row));
  if (rows_.back().breached && onBreach) onBreach(rows_.back());
}

void SloTracker::finish() {
  for (ClassState& cs : classes_) rotate(cs);
}

std::vector<SloTracker::LiveClass> SloTracker::liveSnapshot() const {
  std::vector<LiveClass> out;
  for (const ClassState& cs : classes_) {
    const Window& w = cs.cur;
    LiveClass lc;
    lc.cls = cs.name;
    if (w.open) {
      lc.count = w.digest.count();
      lc.p50 = w.digest.percentile(0.5);
      lc.p99 = w.digest.percentile(0.99);
      lc.p999 = w.digest.percentile(0.999);
      if (lc.count > 0) {
        const double n = static_cast<double>(lc.count);
        double b99 = 0;
        double b999 = 0;
        if (cs.target.p99 > 0) {
          b99 = (static_cast<double>(w.overP99) / n) / 0.01;
        }
        if (cs.target.p999 > 0) {
          b999 = (static_cast<double>(w.overP999) / n) / 0.001;
        }
        lc.burnRate = std::max(b99, b999);
      }
      for (std::size_t slot = 0; slot < w.perNode.size(); ++slot) {
        const sim::LatencyDigest& d = w.perNode[slot];
        if (d.count() == 0) continue;
        NodeQuantiles nq;
        nq.node = static_cast<int>(slot) - 1;
        nq.count = d.count();
        nq.p50 = d.percentile(0.5);
        nq.p99 = d.percentile(0.99);
        nq.p999 = d.percentile(0.999);
        lc.perNode.push_back(nq);
      }
    }
    out.push_back(std::move(lc));
  }
  return out;
}

std::string SloTracker::toJsonl() const {
  // Canonical order regardless of the rotation interleaving: by (window,
  // class). Each (window, class) pair appears at most once.
  std::vector<const WindowRow*> sorted;
  sorted.reserve(rows_.size());
  for (const WindowRow& r : rows_) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const WindowRow* a, const WindowRow* b) {
              return a->window != b->window ? a->window < b->window
                                            : a->cls < b->cls;
            });
  std::ostringstream os;
  char line[512];
  const double wUs = sim::toMicros(window_);
  for (const WindowRow* r : sorted) {
    const std::string cls = jsonEscape(r->cls);
    std::snprintf(
        line, sizeof(line),
        "{\"type\":\"slo_window\",\"window\":%llu,\"t0_us\":%.3f,"
        "\"t1_us\":%.3f,\"class\":\"%s\",\"count\":%llu,\"p50_us\":%.3f,"
        "\"p99_us\":%.3f,\"p999_us\":%.3f,\"target_p99_us\":%.3f,"
        "\"target_p999_us\":%.3f,\"over_p99\":%llu,\"over_p999\":%llu,"
        "\"burn_rate\":%.4f,\"breached\":%d,\"joules\":%.6f,"
        "\"j_per_op\":%.9f,\"ops_per_j\":%.4f}\n",
        static_cast<unsigned long long>(r->window),
        static_cast<double>(r->window) * wUs,
        static_cast<double>(r->window + 1) * wUs, cls.c_str(),
        static_cast<unsigned long long>(r->count), sim::toMicros(r->p50),
        sim::toMicros(r->p99), sim::toMicros(r->p999),
        sim::toMicros(r->target.p99), sim::toMicros(r->target.p999),
        static_cast<unsigned long long>(r->overP99),
        static_cast<unsigned long long>(r->overP999), r->burnRate,
        r->breached ? 1 : 0, r->joules, r->joulesPerOp, r->opsPerJoule);
    os << line;
    for (const NodeQuantiles& nq : r->perNode) {
      std::snprintf(line, sizeof(line),
                    "{\"type\":\"slo_node\",\"window\":%llu,\"class\":\"%s\","
                    "\"node\":%d,\"count\":%llu,\"p50_us\":%.3f,"
                    "\"p99_us\":%.3f,\"p999_us\":%.3f}\n",
                    static_cast<unsigned long long>(r->window), cls.c_str(),
                    nq.node, static_cast<unsigned long long>(nq.count),
                    sim::toMicros(nq.p50), sim::toMicros(nq.p99),
                    sim::toMicros(nq.p999));
      os << line;
    }
    for (std::size_t rank = 0; rank < r->exemplars.size(); ++rank) {
      const Exemplar& e = r->exemplars[rank];
      std::snprintf(line, sizeof(line),
                    "{\"type\":\"exemplar\",\"window\":%llu,\"class\":\"%s\","
                    "\"rank\":%zu,\"span\":%llu,\"node\":%d,\"us\":%.3f}\n",
                    static_cast<unsigned long long>(r->window), cls.c_str(),
                    rank, static_cast<unsigned long long>(e.span), e.node,
                    sim::toMicros(e.latency));
      os << line;
      for (std::uint8_t i = 0; i < e.detail.numStages; ++i) {
        const TimeTrace::StageRec& s = e.detail.stages[i];
        std::snprintf(
            line, sizeof(line),
            "{\"type\":\"exemplar_stage\",\"window\":%llu,"
            "\"class\":\"%s\",\"span\":%llu,\"seq\":%u,\"stage\":\"%s\","
            "\"us\":%.3f,\"depth\":%d,\"node\":%d}\n",
            static_cast<unsigned long long>(r->window), cls.c_str(),
            static_cast<unsigned long long>(e.span), static_cast<unsigned>(i),
            TimeTrace::stageName(s.stage), sim::toMicros(s.elapsed),
            s.queueDepth, s.node);
        os << line;
      }
    }
  }
  return os.str();
}

bool SloTracker::writeJsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << toJsonl();
  return static_cast<bool>(os);
}

void SloTracker::registerClassMetrics(int id) {
  const std::string& name = classes_[static_cast<std::size_t>(id)].name;
  const std::string base = prefix_ + ".class." + name;
  reg_->probeCounter(base + ".requests", "ops", [this, id] {
    return static_cast<double>(classes_[static_cast<std::size_t>(id)].recorded);
  });
  reg_->probeCounter(base + ".breached_windows", "ops", [this, id] {
    return static_cast<double>(classes_[static_cast<std::size_t>(id)].breached);
  });
  reg_->probeGauge(base + ".burn_rate", "ratio", [this, id] {
    return classes_[static_cast<std::size_t>(id)].lastBurn;
  });
}

void SloTracker::registerMetrics(MetricRegistry& reg,
                                 const std::string& prefix) {
  reg_ = &reg;
  prefix_ = prefix;
  reg.probeCounter(prefix + ".windows", "ops", [this] {
    return static_cast<double>(rows_.size());
  });
  reg.probeCounter(prefix + ".breached_windows", "ops", [this] {
    return static_cast<double>(breachedTotal_);
  });
  reg.probeCounter(prefix + ".requests", "ops", [this] {
    return static_cast<double>(recorded_);
  });
  for (int id = 0; id < static_cast<int>(classes_.size()); ++id) {
    registerClassMetrics(id);
  }
}

}  // namespace rc::obs
