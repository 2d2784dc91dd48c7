#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metric_registry.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"

namespace rc::obs {

class FlightRecorder;

/// Per-RPC time trace (the repro's TimeTrace equivalent).
///
/// A span is opened when the client issues an RPC; each subsequent stamp()
/// charges the time since the previous stamp to one pipeline stage:
///
///   client issue --network--> server --dispatch queue--> worker service
///     --replication / log-sync wait--> reply --network--> client
///
/// Stage durations accumulate into per-stage histograms (Finding 3's
/// dispatch-vs-replication contention becomes directly measurable) and the
/// most recent events land in a fixed-size ring buffer for export.
///
/// Stamping an unknown or already-ended span is a harmless no-op: a server
/// may keep annotating an RPC whose client already timed out, exactly like
/// a late reply on the wire.
class TimeTrace {
 public:
  enum class Stage : std::uint8_t {
    kNetworkRequest,    ///< client issue -> server RPC arrival
    kDispatchWait,      ///< arrival -> dispatch thread hand-off complete
    kWorkerService,     ///< hand-off -> service CPU done (incl. worker wait)
    kReplicationWait,   ///< service done -> replication fan-out / log-sync acked
    kNetworkReply,      ///< reply sent -> client completion
    kTotal,             ///< span begin -> end (client-observed RPC latency)
  };
  static constexpr std::size_t kNumStages =
      static_cast<std::size_t>(Stage::kTotal) + 1;
  static const char* stageName(Stage s);

  struct Event {
    sim::SimTime at = 0;
    std::uint64_t span = 0;
    Stage stage = Stage::kTotal;
    sim::Duration elapsed = 0;
  };

  /// One stamped stage retained inside the span: the stage, the duration
  /// charged to it, and the dispatch queue depth / serving node observed at
  /// stamp time (-1 = not applicable, e.g. client-side stamps).
  struct StageRec {
    Stage stage = Stage::kTotal;
    sim::Duration elapsed = 0;
    std::int32_t queueDepth = -1;
    std::int32_t node = -1;
  };

  /// A span retains up to this many stage records (the read/write pipeline
  /// stamps at most 5; the cap bounds SpanState's size).
  static constexpr std::size_t kMaxStagesPerSpan = 8;

  /// A completed span's full decomposition, filled in by endSpan. The stage
  /// durations sum *exactly* to `total` in integer nanoseconds — every
  /// stamp charges now-since-last-stamp and endSpan fires at the same
  /// instant as the final stamp — which is what lets an exemplar waterfall
  /// account for the whole latency (slo_test asserts < 1 us slack).
  struct SpanDetail {
    sim::SimTime begin = 0;
    sim::Duration total = 0;
    std::uint16_t tenant = 0;
    std::uint8_t numStages = 0;
    std::array<StageRec, kMaxStagesPerSpan> stages{};
  };

  explicit TimeTrace(sim::Simulation& sim, std::size_t ringCapacity = 4096);

  TimeTrace(const TimeTrace&) = delete;
  TimeTrace& operator=(const TimeTrace&) = delete;

  /// Open a span at now(); returns its id (never 0). `tenant` is the
  /// issuing client's tenant/op-class tag, carried into flight-recorder
  /// entries and SpanDetail.
  std::uint64_t beginSpan(std::uint16_t tenant = 0);

  /// Charge now()-since-last-stamp to `stage`. Servers pass the dispatch
  /// queue depth observed on arrival and their node id so tail exemplars
  /// retain exact queue positions; client-side stamps leave both at -1.
  void stamp(std::uint64_t span, Stage stage, std::int32_t queueDepth = -1,
             std::int32_t node = -1);

  /// Close the span, recording Stage::kTotal since beginSpan(). When
  /// `detail` is non-null it receives the span's retained decomposition
  /// (exemplar capture reads it there).
  void endSpan(std::uint64_t span, SpanDetail* detail = nullptr);

  /// Drop the span without recording stage histograms or ring events: the
  /// RPC never completed (its server died and the client timed out), so
  /// quantile surfaces only ever describe RPCs that finished. The stamps
  /// recorded before the abandon are NOT lost, though — they are flushed
  /// into the attached flight recorder (abandoned=true entries), so a
  /// crashed server's exemplars stay decomposable even after the live ring
  /// wrapped past them.
  void abandonSpan(std::uint64_t span);

  /// Attach the always-on flight recorder: every stamp is mirrored into its
  /// ring, and abandoned spans flush their retained stage records there.
  /// nullptr detaches.
  void setFlightRecorder(FlightRecorder* recorder) { flight_ = recorder; }

  bool spanActive(std::uint64_t span) const {
    return findSpan(span) != nullptr;
  }
  std::size_t activeSpans() const { return activeCount_; }
  std::uint64_t spansStarted() const { return started_; }
  std::uint64_t spansCompleted() const { return completed_; }
  std::uint64_t spansAbandoned() const { return abandoned_; }

  const sim::Histogram& stageHistogram(Stage s) const {
    return histograms_[static_cast<std::size_t>(s)];
  }

  /// Ring-buffer contents, oldest first.
  std::vector<Event> recentEvents() const;
  std::size_t ringCapacity() const { return ring_.size(); }

  /// Register per-stage histograms and span counters under `prefix`
  /// (e.g. "cluster.rpc" -> "cluster.rpc.stage.dispatch_wait").
  void registerMetrics(MetricRegistry& reg, const std::string& prefix);

 private:
  struct SpanState {
    sim::SimTime begin = 0;
    sim::SimTime last = 0;
    std::uint16_t tenant = 0;
    std::uint8_t numStages = 0;
    std::array<StageRec, kMaxStagesPerSpan> stages{};
  };

  /// Active spans sit in a direct-mapped table indexed by span id. Ids are
  /// sequential, so a span only moves to the overflow map if it is still
  /// active when the span kSpanTableSize ids after it begins.
  struct SpanSlot {
    std::uint64_t id = 0;  ///< 0 = free
    SpanState st;
  };
  /// Measured on the perfbench workloads (docs/PERF.md): at most 105 spans
  /// were active at once (openloop_knee's 130 Kop/s step) and no span
  /// outlived 512 newer ones, so none reached the overflow map; at 256,
  /// 20 of that step's 268k spans would. 512 x 224 B = 112 KiB per cluster.
  static constexpr std::size_t kSpanTableSize = 512;

  SpanSlot& slotFor(std::uint64_t span) {
    return spanTable_[span & (kSpanTableSize - 1)];
  }
  const SpanState* findSpan(std::uint64_t span) const;
  SpanState* findSpan(std::uint64_t span) {
    return const_cast<SpanState*>(std::as_const(*this).findSpan(span));
  }
  void eraseSpan(std::uint64_t span);
  void record(std::uint64_t span, Stage stage, sim::Duration elapsed);

  sim::Simulation& sim_;
  FlightRecorder* flight_ = nullptr;
  std::vector<Event> ring_;
  std::size_t ringNext_ = 0;
  std::size_t ringCount_ = 0;
  std::uint64_t nextSpan_ = 1;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t abandoned_ = 0;
  std::vector<SpanSlot> spanTable_;
  std::unordered_map<std::uint64_t, SpanState> overflow_;
  std::size_t activeCount_ = 0;
  sim::Histogram histograms_[kNumStages];
};

}  // namespace rc::obs
