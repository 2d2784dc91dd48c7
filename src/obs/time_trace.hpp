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

/// Per-RPC time trace (the repro's TimeTrace equivalent).
///
/// A span is opened when the client issues an RPC; each subsequent stamp()
/// charges the time since the previous stamp to one pipeline stage:
///
///   client issue --network--> server --dispatch queue--> worker service
///     --replication / log-sync wait--> reply --network--> client
///
/// Stage durations accumulate into per-stage histograms (Finding 3's
/// dispatch-vs-replication contention becomes directly measurable).
///
/// Every stamp, every span total and every abandoned span's re-emitted
/// stage records also land in one fixed-size ring of POD entries (the
/// "flight recorder") at O(1) cost. The ring stays passive until something
/// goes wrong: an SLO breach or an injected fault arms a trigger, and only
/// then does the run dump flight.jsonl (the trigger list plus the ring's
/// tail). Fault-free, breach-free runs write nothing (docs/SLO.md).
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

  /// One ring record: a stamp, a span total (stage kTotal) or, with
  /// abandoned=true, a stage record re-emitted when its span was abandoned
  /// (client timeout / server crash) — the ring may have wrapped past the
  /// original stamp, but the re-emission keeps the dead RPC's stage
  /// decomposition dumpable.
  struct Entry {
    sim::SimTime at = 0;
    std::uint64_t span = 0;
    Stage stage = Stage::kTotal;
    bool abandoned = false;
    std::uint16_t tenant = 0;      ///< RpcRequest tenant tag (0 = untagged)
    std::int32_t node = -1;        ///< serving node (-1 = client side)
    std::int32_t queueDepth = -1;  ///< dispatch queue depth (-1 = n/a)
    sim::Duration elapsed = 0;
  };

  /// The ring holds the most recent kRingCapacity entries.
  static constexpr std::size_t kRingCapacity = 8192;

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

  explicit TimeTrace(sim::Simulation& sim);

  TimeTrace(const TimeTrace&) = delete;
  TimeTrace& operator=(const TimeTrace&) = delete;

  /// Open a span at now(); returns its id (never 0). `tenant` is the
  /// issuing client's tenant/op-class tag, carried into ring entries and
  /// SpanDetail.
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

  /// Drop the span without recording a total: the RPC never completed (its
  /// server died and the client timed out), so quantile surfaces only ever
  /// describe RPCs that finished. The stamps recorded before the abandon
  /// are NOT lost, though — they are re-emitted into the ring
  /// (abandoned=true entries), so a crashed server's exemplars stay
  /// decomposable even after the ring wrapped past them.
  void abandonSpan(std::uint64_t span);

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

  /// Ring contents, oldest first.
  std::vector<Entry> entries() const;
  /// Entries ever written to the ring (including overwritten ones).
  std::uint64_t recorded() const { return recorded_; }

  /// Arm a flight.jsonl dump. Called on an SLO window breach or when the
  /// fault injector fires; exporters consult triggered() to decide whether
  /// flight.jsonl is written.
  void trigger(sim::SimTime at, const std::string& reason);
  bool triggered() const { return !triggers_.empty(); }

  /// Write flight.jsonl: one {"type":"flight_trigger",...} line per
  /// trigger, then one {"type":"flight",...} line per ring entry, oldest
  /// first.
  bool writeFlightJsonl(const std::string& path) const;

  /// Register per-stage histograms and span counters under `prefix`
  /// (e.g. "cluster.rpc" -> "cluster.rpc.stage.dispatch_wait").
  void registerMetrics(MetricRegistry& reg, const std::string& prefix);
  /// Register the ring's entry and trigger counters under `prefix`
  /// (`<prefix>.stamps`, `<prefix>.triggers`).
  void registerRingMetrics(MetricRegistry& reg, const std::string& prefix);

 private:
  struct Trigger {
    sim::SimTime at = 0;
    std::string reason;
  };

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
  /// O(1), allocation-free: overwrite the oldest ring slot.
  void record(const Entry& e) {
    ring_[recorded_ % kRingCapacity] = e;
    ++recorded_;
  }

  sim::Simulation& sim_;
  std::vector<Entry> ring_;
  std::uint64_t recorded_ = 0;
  std::vector<Trigger> triggers_;
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
