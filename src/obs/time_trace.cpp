#include "obs/time_trace.hpp"

#include <algorithm>

#include "obs/flight_recorder.hpp"

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

TimeTrace::TimeTrace(sim::Simulation& sim, std::size_t ringCapacity)
    : sim_(sim),
      ring_(std::max<std::size_t>(1, ringCapacity)),
      spanTable_(kSpanTableSize) {}

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

void TimeTrace::record(std::uint64_t span, Stage stage,
                       sim::Duration elapsed) {
  histograms_[static_cast<std::size_t>(stage)].add(elapsed);
  ring_[ringNext_] = Event{sim_.now(), span, stage, elapsed};
  ringNext_ = (ringNext_ + 1) % ring_.size();
  ringCount_ = std::min(ringCount_ + 1, ring_.size());
}

void TimeTrace::stamp(std::uint64_t span, Stage stage,
                      std::int32_t queueDepth, std::int32_t node) {
  SpanState* found = findSpan(span);
  if (found == nullptr) return;
  SpanState& st = *found;
  const sim::SimTime now = sim_.now();
  const sim::Duration elapsed = now - st.last;
  record(span, stage, elapsed);
  if (st.numStages < kMaxStagesPerSpan) {
    st.stages[st.numStages++] = StageRec{stage, elapsed, queueDepth, node};
  }
  if (flight_ != nullptr) {
    flight_->record(FlightRecorder::Entry{
        now, span, static_cast<std::uint8_t>(stage), /*abandoned=*/false,
        st.tenant, node, queueDepth, elapsed});
  }
  st.last = now;
}

void TimeTrace::endSpan(std::uint64_t span, SpanDetail* detail) {
  const SpanState* found = findSpan(span);
  if (found == nullptr) return;
  const SpanState& st = *found;
  const sim::Duration total = sim_.now() - st.begin;
  record(span, Stage::kTotal, total);
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
  if (flight_ != nullptr) {
    // The RPC never completed, so its stamps reach no histogram and no
    // exemplar; re-emit the retained records into the flight ring so the
    // dead request's decomposition (with queue depths) survives a dump
    // even when the live ring has wrapped past the original entries.
    const SpanState& st = *found;
    for (std::uint8_t i = 0; i < st.numStages; ++i) {
      const StageRec& r = st.stages[i];
      flight_->record(FlightRecorder::Entry{
          sim_.now(), span, static_cast<std::uint8_t>(r.stage),
          /*abandoned=*/true, st.tenant, r.node, r.queueDepth, r.elapsed});
    }
  }
  eraseSpan(span);
  ++abandoned_;
}

std::vector<TimeTrace::Event> TimeTrace::recentEvents() const {
  std::vector<Event> out;
  out.reserve(ringCount_);
  const std::size_t start =
      ringCount_ < ring_.size() ? 0 : ringNext_;
  for (std::size_t i = 0; i < ringCount_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
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

}  // namespace rc::obs
