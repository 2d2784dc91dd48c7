#pragma once

// Shared plumbing for the figure/table reproduction binaries.
//
// Every binary accepts:
//   --quick      smaller windows / data (CI smoke)
//   --full       paper-scale data volumes (slow; closest to the paper)
//   --seed N     experiment seed (default 42)
//   --csv        additionally dump any timeline series as CSV
//   --metrics-dir DIR   per-run metrics.jsonl + aligned 1 Hz series.csv
//                dumps (one subdirectory per experiment run)
//
// Output format: the paper-style table, then one "shape-check:" line per
// qualitative claim. The process exits non-zero if any shape check fails.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/table_format.hpp"
#include "obs/event_journal.hpp"
#include "sim/time.hpp"

namespace rc::bench {

struct Options {
  enum class Scale { kQuick, kDefault, kFull };
  Scale scale = Scale::kDefault;
  std::uint64_t seed = 42;
  bool csv = false;
  std::string metricsDir;

  static Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) o.scale = Scale::kQuick;
      if (std::strcmp(argv[i], "--full") == 0) o.scale = Scale::kFull;
      if (std::strcmp(argv[i], "--csv") == 0) o.csv = true;
      if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        o.seed = std::strtoull(argv[++i], nullptr, 10);
      }
      if (std::strcmp(argv[i], "--metrics-dir") == 0 && i + 1 < argc) {
        o.metricsDir = argv[++i];
      }
    }
    return o;
  }

  /// Per-run subdirectory under --metrics-dir ("" when disabled).
  std::string runDir(const std::string& runName) const {
    return metricsDir.empty() ? std::string() : metricsDir + "/" + runName;
  }

  /// Multiplier for measurement windows.
  double timeScale() const {
    switch (scale) {
      case Scale::kQuick:
        return 0.15;
      case Scale::kFull:
        return 1.0;
      case Scale::kDefault:
        return 0.4;
    }
    return 0.4;
  }

  /// Timeline bucket for the crash-recovery experiments. Quick runs
  /// recover in well under a second, so 1 s buckets would average the
  /// replay burst into the surrounding idle time.
  sim::Duration recoverySampleEvery() const {
    return scale == Scale::kQuick ? sim::msec(100) : sim::seconds(1);
  }

  /// Records for the big crash-recovery experiments (paper: 10 M).
  std::uint64_t recoveryRecords(std::uint64_t paperValue = 10'000'000) const {
    switch (scale) {
      case Scale::kQuick:
        return paperValue / 50;
      case Scale::kFull:
        return paperValue;
      case Scale::kDefault:
        return paperValue / 5;
    }
    return paperValue / 5;
  }
};

/// Collects shape-check verdicts and renders the exit code.
class Verdict {
 public:
  void check(bool ok, const std::string& what) {
    all_ &= core::shapeCheck(ok, what);
  }
  int exitCode() const { return all_ ? 0 : 1; }

 private:
  bool all_ = true;
};

// ----- Event-journal shape helpers (recovery benches) -----------------------
//
// Recovery experiments return a copy of the cluster's event journal
// (ExperimentResult::spans); these helpers answer the usual shape
// questions — which phases ran, on how many nodes, and for how long.

/// The (single, if the run was healthy) root span named "recovery".
inline const obs::EventJournal::Span* recoveryRoot(
    const std::vector<obs::EventJournal::Span>& spans) {
  for (const auto& s : spans) {
    if (s.name == "recovery") return &s;
  }
  return nullptr;
}

inline int spanCount(const std::vector<obs::EventJournal::Span>& spans,
                     const std::string& name) {
  int n = 0;
  for (const auto& s : spans) n += s.name == name ? 1 : 0;
  return n;
}

/// Summed wall time of *closed* spans named `name` (busy-time; concurrent
/// spans count multiply).
inline double spanBusySeconds(
    const std::vector<obs::EventJournal::Span>& spans,
    const std::string& name) {
  double sec = 0;
  for (const auto& s : spans) {
    if (s.name == name && !s.open) sec += sim::toSeconds(s.duration());
  }
  return sec;
}

inline std::uint64_t spanBytes(
    const std::vector<obs::EventJournal::Span>& spans,
    const std::string& name) {
  std::uint64_t b = 0;
  for (const auto& s : spans) {
    if (s.name == name) b += s.bytes;
  }
  return b;
}

/// Distinct phase names grouped under recovery context `ctx`.
inline std::set<std::string> phaseNames(
    const std::vector<obs::EventJournal::Span>& spans, std::uint64_t ctx) {
  std::set<std::string> names;
  for (const auto& s : spans) {
    if (s.ctx == ctx) names.insert(s.name);
  }
  return names;
}

/// Distinct actor nodes participating in recovery context `ctx`.
inline std::set<int> phaseNodes(
    const std::vector<obs::EventJournal::Span>& spans, std::uint64_t ctx) {
  std::set<int> nodes;
  for (const auto& s : spans) {
    if (s.ctx == ctx) nodes.insert(s.node);
  }
  return nodes;
}

inline void banner(const std::string& title, const std::string& paperRef) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paperRef.c_str());
  std::printf("==============================================================\n");
}

}  // namespace rc::bench
