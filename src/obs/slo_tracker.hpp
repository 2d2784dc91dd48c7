#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metric_registry.hpp"
#include "obs/time_trace.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"

namespace rc::obs {

/// Declared latency objectives for one tenant/op-class. A zero duration
/// means "no target at that quantile". Burn rate is measured against the
/// implied error budget: a p99 target allows 1% of requests over it, a
/// p999 target allows 0.1%; burn = (actual over-target fraction) / budget,
/// so burn >= 1 in a window means the budget is blown — the window is
/// *breached* (docs/SLO.md).
struct SloTarget {
  sim::Duration p99 = 0;
  sim::Duration p999 = 0;
};

/// Windowed tail-latency tracker: sliding fixed-length windows of
/// streaming quantiles keyed by (tenant/op-class, serving node).
///
/// Each class keeps one fixed-size log-bucket digest (sim::LatencyDigest)
/// per window plus one per serving node, so record() is O(1) and windows
/// merge/rotate without retaining samples. Windows are aligned to sim-time
/// epoch 0 (window k covers [k*W, (k+1)*W)) and rotate lazily on the next
/// record — an idle class costs nothing. The k slowest requests of every
/// window retain their full TimeTrace::SpanDetail (exemplar capture), so a
/// p999 outlier decomposes into network / dispatch-wait / worker /
/// replication-wait with exact queue depths.
///
/// Everything exported (slo.jsonl, metric probes) is deterministic: same
/// seed, same plan -> byte-identical output (the PR 5 determinism guard
/// extends to this file).
class SloTracker {
 public:
  struct NodeQuantiles {
    int node = -1;
    std::uint64_t count = 0;
    sim::Duration p50 = 0;
    sim::Duration p99 = 0;
    sim::Duration p999 = 0;
  };

  struct Exemplar {
    std::uint64_t span = 0;
    int node = -1;
    sim::Duration latency = 0;
    TimeTrace::SpanDetail detail;
  };

  /// One closed window of one class, emitted on rotation.
  struct WindowRow {
    std::uint64_t window = 0;  ///< covers [window*W, (window+1)*W)
    std::string cls;
    SloTarget target;
    std::uint64_t count = 0;
    sim::Duration p50 = 0;
    sim::Duration p99 = 0;
    sim::Duration p999 = 0;
    std::uint64_t overP99 = 0;   ///< requests above target.p99
    std::uint64_t overP999 = 0;  ///< requests above target.p999
    double burnRate99 = 0;
    double burnRate999 = 0;
    double burnRate = 0;  ///< max of the applicable component rates
    bool breached = false;
    /// Energy attributed to the class while the window was open (0 when no
    /// energy probe is wired): joules, joules/op, ops/joule.
    double joules = 0;
    double joulesPerOp = 0;
    double opsPerJoule = 0;
    std::vector<NodeQuantiles> perNode;
    std::vector<Exemplar> exemplars;  ///< slowest first
  };

  explicit SloTracker(sim::Simulation& sim,
                      sim::Duration window = sim::seconds(1),
                      int exemplarsPerWindow = 3);

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Declare a tenant/op-class (e.g. "tenantA/read") with its targets;
  /// returns its dense class id. Re-declaring a name updates the targets
  /// and returns the existing id. Metric probes for the class appear under
  /// the prefix given to registerMetrics (before or after — both work).
  int declareClass(const std::string& name, SloTarget target);

  /// Dense id for a declared class, -1 if unknown. Clients resolve ids
  /// once at start so the per-op record path never hashes strings.
  int classId(const std::string& name) const;

  int classCount() const { return static_cast<int>(classes_.size()); }
  const std::string& className(int id) const {
    return classes_[static_cast<std::size_t>(id)].name;
  }
  std::uint64_t classRecorded(int id) const {
    return classes_[static_cast<std::size_t>(id)].recorded;
  }

  /// `probe(classId)` returns cumulative joules charged to the class's
  /// tenant across the cluster; window energy is the probe delta between
  /// window open and rotation. Null (default) leaves the energy columns 0.
  using EnergyProbe = std::function<double(int)>;
  void setEnergyProbe(EnergyProbe probe) { energyProbe_ = std::move(probe); }

  bool enabled() const { return !classes_.empty(); }
  std::uint64_t windowIndexAt(sim::SimTime t) const {
    return static_cast<std::uint64_t>(t) / static_cast<std::uint64_t>(window_);
  }

  /// O(1) record of one completed request: class quantiles, per-node
  /// quantiles, over-target counts, exemplar candidacy. `detail` may be
  /// null (exemplars then carry no stage decomposition). classId < 0 is a
  /// no-op so untracked callers need no branch of their own.
  void record(int classId, int node, std::uint64_t span, sim::Duration latency,
              const TimeTrace::SpanDetail* detail);

  /// Rotate out every in-progress window (call once at end of run, before
  /// exporting). Idempotent for a quiescent tracker.
  void finish();

  /// In-progress window of every class, for live display (rcperf top).
  struct LiveClass {
    std::string cls;
    std::uint64_t count = 0;
    sim::Duration p50 = 0;
    sim::Duration p99 = 0;
    sim::Duration p999 = 0;
    double burnRate = 0;
    std::vector<NodeQuantiles> perNode;
  };
  std::vector<LiveClass> liveSnapshot() const;

  const std::vector<WindowRow>& rows() const { return rows_; }
  std::uint64_t breachedWindows() const { return breachedTotal_; }
  std::uint64_t recorded() const { return recorded_; }

  /// Fired on every breached window at rotation time (the cluster arms the
  /// flight recorder from here).
  std::function<void(const WindowRow&)> onBreach;

  /// Exemplar brownout (docs/OVERLOAD.md degradation ladder): while set, no
  /// new exemplars are retained — quantiles, over-target counts and window
  /// rows are unaffected. The cluster engages it while any server is
  /// shedding.
  void setExemplarBrownout(bool on) {
    if (on && !exemplarBrownout_) ++brownoutEngagements_;
    exemplarBrownout_ = on;
  }
  std::uint64_t brownoutEngagements() const { return brownoutEngagements_; }

  /// slo.jsonl: slo_window / slo_node / exemplar / exemplar_stage lines,
  /// sorted by (window, class) so double runs are byte-identical.
  std::string toJsonl() const;
  bool writeJsonl(const std::string& path) const;

  void registerMetrics(MetricRegistry& reg, const std::string& prefix);

 private:
  struct Window {
    bool open = false;
    std::uint64_t index = 0;
    sim::LatencyDigest digest;
    /// Indexed by node id + 1 (slot 0 = "unknown node"), grown on demand;
    /// a slot with count() == 0 never saw an op. Flat storage keeps the
    /// per-op record() free of tree/hash lookups, and ascending-index
    /// iteration gives the same stable output order std::map did.
    std::vector<sim::LatencyDigest> perNode;
    std::uint64_t overP99 = 0;
    std::uint64_t overP999 = 0;
    double energyJ0 = 0;  ///< energy probe reading when the window opened
    std::vector<Exemplar> exemplars;  ///< sorted slowest-first, size <= k
  };

  struct ClassState {
    std::string name;
    SloTarget target;
    Window cur;
    std::uint64_t recorded = 0;
    std::uint64_t breached = 0;
    double lastBurn = 0;  ///< burn rate of the most recently closed window
  };

  void rotate(ClassState& cs);
  void registerClassMetrics(int id);

  sim::Simulation& sim_;
  sim::Duration window_;
  int exemplarsPerWindow_;
  EnergyProbe energyProbe_;
  std::vector<ClassState> classes_;
  std::map<std::string, int> byName_;
  std::vector<WindowRow> rows_;
  std::uint64_t breachedTotal_ = 0;
  std::uint64_t recorded_ = 0;
  bool exemplarBrownout_ = false;
  std::uint64_t brownoutEngagements_ = 0;
  MetricRegistry* reg_ = nullptr;
  std::string prefix_;
};

}  // namespace rc::obs
