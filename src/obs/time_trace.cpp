#include "obs/time_trace.hpp"

#include <cstdio>
#include <fstream>

#include "obs/jsonl.hpp"

namespace rc::obs {

const char* TimeTrace::stageName(Stage s) {
  switch (s) {
    case Stage::kNetworkRequest:
      return "network_request";
    case Stage::kDispatchWait:
      return "dispatch_wait";
    case Stage::kWorkerService:
      return "worker_service";
    case Stage::kReplicationWait:
      return "replication_wait";
    case Stage::kNetworkReply:
      return "network_reply";
    case Stage::kTotal:
      return "total";
  }
  return "unknown";
}

TimeTrace::TimeTrace(sim::Simulation& sim)
    : sim_(sim), ring_(kRingCapacity), spanTable_(kSpanTableSize) {}

const TimeTrace::SpanState* TimeTrace::findSpan(std::uint64_t span) const {
  const SpanSlot& slot = spanTable_[span & (kSpanTableSize - 1)];
  if (slot.id == span && span != 0) return &slot.st;
  if (overflow_.empty()) return nullptr;
  auto it = overflow_.find(span);
  return it == overflow_.end() ? nullptr : &it->second;
}

void TimeTrace::eraseSpan(std::uint64_t span) {
  SpanSlot& slot = slotFor(span);
  if (slot.id == span) {
    slot.id = 0;
  } else {
    overflow_.erase(span);
  }
  --activeCount_;
}

std::uint64_t TimeTrace::beginSpan(std::uint16_t tenant) {
  const std::uint64_t id = nextSpan_++;
  SpanSlot& slot = slotFor(id);
  if (slot.id != 0) overflow_.emplace(slot.id, slot.st);
  slot.id = id;
  slot.st = SpanState{};
  slot.st.begin = slot.st.last = sim_.now();
  slot.st.tenant = tenant;
  ++activeCount_;
  ++started_;
  return id;
}

void TimeTrace::stamp(std::uint64_t span, Stage stage,
                      std::int32_t queueDepth, std::int32_t node) {
  SpanState* found = findSpan(span);
  if (found == nullptr) return;
  SpanState& st = *found;
  const sim::SimTime now = sim_.now();
  const sim::Duration elapsed = now - st.last;
  histograms_[static_cast<std::size_t>(stage)].add(elapsed);
  record(Entry{now, span, stage, /*abandoned=*/false, st.tenant, node,
               queueDepth, elapsed});
  if (st.numStages < kMaxStagesPerSpan) {
    st.stages[st.numStages++] = StageRec{stage, elapsed, queueDepth, node};
  }
  st.last = now;
}

void TimeTrace::endSpan(std::uint64_t span, SpanDetail* detail) {
  const SpanState* found = findSpan(span);
  if (found == nullptr) return;
  const SpanState& st = *found;
  const sim::Duration total = sim_.now() - st.begin;
  histograms_[static_cast<std::size_t>(Stage::kTotal)].add(total);
  record(Entry{sim_.now(), span, Stage::kTotal, /*abandoned=*/false,
               st.tenant, -1, -1, total});
  if (detail != nullptr) {
    detail->begin = st.begin;
    detail->total = total;
    detail->tenant = st.tenant;
    detail->numStages = st.numStages;
    detail->stages = st.stages;
  }
  eraseSpan(span);
  ++completed_;
}

void TimeTrace::abandonSpan(std::uint64_t span) {
  const SpanState* found = findSpan(span);
  if (found == nullptr) return;
  // The RPC never completed, so it gets no total and no exemplar; re-emit
  // the retained records so the dead request's decomposition (with queue
  // depths) survives a dump even when the ring has wrapped past the
  // original entries.
  const SpanState& st = *found;
  for (std::uint8_t i = 0; i < st.numStages; ++i) {
    const StageRec& r = st.stages[i];
    record(Entry{sim_.now(), span, r.stage, /*abandoned=*/true, st.tenant,
                 r.node, r.queueDepth, r.elapsed});
  }
  eraseSpan(span);
  ++abandoned_;
}

std::vector<TimeTrace::Entry> TimeTrace::entries() const {
  const std::uint64_t first =
      recorded_ > kRingCapacity ? recorded_ - kRingCapacity : 0;
  std::vector<Entry> out;
  out.reserve(static_cast<std::size_t>(recorded_ - first));
  for (std::uint64_t i = first; i < recorded_; ++i) {
    out.push_back(ring_[i % kRingCapacity]);
  }
  return out;
}

void TimeTrace::trigger(sim::SimTime at, const std::string& reason) {
  triggers_.push_back(Trigger{at, reason});
}

bool TimeTrace::writeFlightJsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  char line[320];
  for (const Trigger& t : triggers_) {
    std::snprintf(line, sizeof(line),
                  "{\"type\":\"flight_trigger\",\"t_us\":%.3f,"
                  "\"reason\":\"%s\"}\n",
                  sim::toMicros(t.at), jsonEscape(t.reason).c_str());
    os << line;
  }
  for (const Entry& e : entries()) {
    std::snprintf(
        line, sizeof(line),
        "{\"type\":\"flight\",\"t_us\":%.3f,\"span\":%llu,"
        "\"stage\":\"%s\",\"node\":%d,\"depth\":%d,\"tenant\":%u,"
        "\"us\":%.3f,\"abandoned\":%d}\n",
        sim::toMicros(e.at), static_cast<unsigned long long>(e.span),
        stageName(e.stage), e.node, e.queueDepth,
        static_cast<unsigned>(e.tenant), sim::toMicros(e.elapsed),
        e.abandoned ? 1 : 0);
    os << line;
  }
  return static_cast<bool>(os);
}

void TimeTrace::registerMetrics(MetricRegistry& reg,
                                const std::string& prefix) {
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const auto stage = static_cast<Stage>(i);
    reg.probeHistogram(
        prefix + ".stage." + stageName(stage), "us",
        [this, stage]() -> const sim::Histogram* {
          return &stageHistogram(stage);
        });
  }
  reg.probeCounter(prefix + ".spans_started", "ops",
                   [this] { return static_cast<double>(started_); });
  reg.probeCounter(prefix + ".spans_completed", "ops",
                   [this] { return static_cast<double>(completed_); });
  reg.probeCounter(prefix + ".spans_abandoned", "ops",
                   [this] { return static_cast<double>(abandoned_); });
  reg.probeGauge(prefix + ".active_spans", "items",
                 [this] { return static_cast<double>(activeCount_); });
}

void TimeTrace::registerRingMetrics(MetricRegistry& reg,
                                    const std::string& prefix) {
  reg.probeCounter(prefix + ".stamps", "ops",
                   [this] { return static_cast<double>(recorded_); });
  reg.probeCounter(prefix + ".triggers", "ops",
                   [this] { return static_cast<double>(triggers_.size()); });
}

}  // namespace rc::obs
