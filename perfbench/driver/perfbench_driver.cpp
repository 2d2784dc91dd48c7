// One benchmark repetition: builds a workload through core::Cluster's public
// API, runs its measured window and prints a single JSON object on stdout:
//
//   host    — host seconds the driver timed around its own calls
//   model   — modeled metrics (deterministic for a seed)
//   extra   — workload-specific results (recovery time, open-loop steps)
//   layers  — per-layer counters and timings
//   counts  — operations attempted and failed in the measured window
//   gates   — correctness checks; any failure makes perfbench/run.py fail
//   fingerprint — hash of every modeled counter at the end of the run
//
// Usage:
//   perfbench_driver --workload read_closed|write_recovery|openloop_knee
//                    --seed N [--trace-dir DIR --run-id ID]
//
// With --trace-dir the driver records a span around each call into a layer
// (build, load, configure, warm-up, every runFor chunk, crash, export), takes
// registry counter deltas at the same boundaries, exports the cluster's
// metrics, and writes DIR/spans.json at exit. Without it none of that runs.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "ycsb/workload.hpp"

namespace {

using namespace rc;
using Clock = std::chrono::steady_clock;
using Stage = obs::TimeTrace::Stage;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ----- workload shapes -------------------------------------------------------

constexpr std::uint32_t kValueBytes = 1000;
constexpr sim::Duration kChunk = sim::msec(100);

struct ReadClosed {
  static constexpr int kServers = 10;
  static constexpr int kClients = 10;
  static constexpr std::uint64_t kRecords = 100'000;
  static constexpr sim::Duration kWarmup = sim::msec(500);
  static constexpr sim::Duration kWindow = sim::seconds(4);
};

struct WriteRecovery {
  static constexpr int kServers = 9;
  static constexpr int kClients = 8;
  static constexpr std::uint64_t kRecords = 1'000'000;
  static constexpr sim::Duration kWarmup = sim::msec(500);
  static constexpr sim::Duration kCrashAfter = sim::seconds(5);
  static constexpr sim::Duration kWindow = sim::seconds(30);
};

struct OpenLoopKnee {
  static constexpr int kServers = 4;
  static constexpr int kWebSources = 4;
  static constexpr double kUsers = 1'000'000;  // across the web sources
  static constexpr std::uint64_t kRecords = 100'000;
  static constexpr sim::Duration kStep = sim::seconds(2);
  // Offered web-tenant rates (ops/s), straddling the knee.
  static constexpr double kRates[] = {40'000, 70'000, 130'000};
  // The on/off batch tenant and its per-node QoS bucket.
  static constexpr double kBatchRate = 4'000;
  static constexpr double kBatchQosPerNode = 1'100;
  static constexpr double kSloReadP999Us = 500;
};

// ----- minimal JSON writer ---------------------------------------------------

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// Insertion-ordered object of already-encoded JSON values.
class JObj {
 public:
  JObj& num(const std::string& k, double v) { return raw(k, jnum(v)); }
  JObj& str(const std::string& k, const std::string& v) {
    return raw(k, jstr(v));
  }
  JObj& raw(const std::string& k, const std::string& v) {
    fields_.emplace_back(k, v);
    return *this;
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += jstr(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string jarr(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += items[i];
  }
  return out + "]";
}

// ----- fine latency histogram ------------------------------------------------

/// Log-linear latency histogram with 2^11 sub-buckets per power of two
/// (0.05 % relative width), so a closed-loop window's percentiles move with
/// the workload instead of snapping to sim::Histogram's 2.4 % grid. Fixed
/// size (under 256 KB) whatever the sample count, so it does not grow the
/// process being measured with the window.
class FineHistogram {
 public:
  void add(sim::Duration d) {
    const auto v = static_cast<std::uint64_t>(std::max<sim::Duration>(0, d));
    const std::size_t i = index(v);
    if (i >= counts_.size()) counts_.resize(i + 1, 0);
    ++counts_[i];
    ++n_;
    sum_ += static_cast<double>(v);
  }
  std::uint64_t count() const { return n_; }
  double meanUs() const { return n_ ? sum_ / static_cast<double>(n_) / 1e3 : 0; }

  /// Nearest-rank q-quantile in microseconds (bucket midpoint).
  double percentileUs(double q) const {
    if (n_ == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(n_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return (lower(i) + width(i) / 2) / 1e3;
    }
    return lower(counts_.size() - 1) / 1e3;
  }

 private:
  static constexpr int kSubBits = 11;
  static constexpr std::uint64_t kSub = 1ULL << kSubBits;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(e - kSubBits + 1) << kSubBits) +
        ((v >> (e - kSubBits)) - kSub));
  }
  static int exponent(std::size_t i) {
    return static_cast<int>(i >> kSubBits) + kSubBits - 1;
  }
  static double lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    return static_cast<double>(kSub + (i & (kSub - 1))) *
           std::ldexp(1.0, exponent(i) - kSubBits);
  }
  static double width(std::size_t i) {
    return i < kSub ? 1.0 : std::ldexp(1.0, exponent(i) - kSubBits);
  }

  std::vector<std::uint32_t> counts_;
  std::uint64_t n_ = 0;
  double sum_ = 0;
};

/// q-quantile of a sim::Histogram in microseconds, interpolated linearly
/// inside the bucket that holds it. The histogram's own percentile() returns
/// the bucket's upper bound, a 2.4 % grid on which different seeds often
/// read exactly the same value; the bucket's cumulative counts, recovered
/// through percentile() alone, place the quantile within it.
double interpolatedUs(const sim::Histogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0;
  const double nd = static_cast<double>(n);
  // Bucket bound of the k-th smallest sample (1-based).
  const auto at = [&](std::uint64_t k) {
    return h.percentile((static_cast<double>(k) - 0.5) / nd);
  };
  // Largest rank whose bucket bound satisfies `pred` (0 if none does).
  const auto lastRank = [&](auto pred) {
    std::uint64_t lo = 0, up = n;
    while (lo < up) {
      const std::uint64_t mid = lo + (up - lo + 1) / 2;
      if (pred(at(mid))) {
        lo = mid;
      } else {
        up = mid - 1;
      }
    }
    return lo;
  };
  const std::uint64_t rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * nd)), 1, n);
  const sim::Duration hi = at(rank);
  const std::uint64_t below = lastRank([hi](sim::Duration v) { return v < hi; });
  const std::uint64_t upto = lastRank([hi](sim::Duration v) { return v <= hi; });
  const double lo = static_cast<double>(below > 0 ? at(below) : h.min());
  const double frac = static_cast<double>(rank - below) /
                      static_cast<double>(upto - below);
  return (lo + frac * (static_cast<double>(hi) - lo)) / 1e3;
}

// ----- tracing: benchmark-side spans and registry deltas ---------------------

/// Spans the driver records around its own calls into the system. Disabled,
/// every method returns at once and nothing is allocated.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0;
    double end = 0;
    std::map<std::string, double> deltas;  ///< registry counter deltas
  };

  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  bool on() const { return on_; }

  int begin(const std::string& name) {
    if (!on_) return -1;
    spans_.push_back({name, open_.empty() ? -1 : open_.back(),
                      secondsSince(t0_), 0, {}});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    before_.push_back({generation_, counters()});
    return open_.back();
  }

  void end(int id) {
    if (!on_ || id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = secondsSince(t0_);
    // Deltas only when the same registry was attached at both boundaries.
    const auto& [gen, was] = before_.back();
    if (registry_ != nullptr && gen == generation_) {
      const auto now = counters();
      for (std::size_t i = 0; i < now.size(); ++i) {
        if (now[i] != was[i]) s.deltas[names_[i]] = now[i] - was[i];
      }
    }
    before_.pop_back();
    open_.pop_back();
  }

  /// Take registry deltas from `reg` (cluster-level counters only, so a
  /// span's deltas stay readable) until detach().
  void attach(const obs::MetricRegistry* reg) {
    if (!on_) return;
    registry_ = reg;
    ++generation_;
    index_.clear();
    names_.clear();
    for (std::size_t i = 0; i < reg->size(); ++i) {
      const auto& info = reg->infoAt(i);
      if (info.kind != obs::MetricKind::kCounter) continue;
      if (info.name.rfind("node", 0) == 0) continue;
      index_.push_back(i);
      names_.push_back(info.name);
    }
  }
  void detach() {
    registry_ = nullptr;
    ++generation_;
  }

  bool write(const std::string& path, const std::string& runId) const {
    std::ofstream out(path);
    if (!out) return false;
    std::vector<std::string> items;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JObj d;
      for (const auto& [k, v] : s.deltas) d.num(k, v);
      items.push_back(JObj()
                          .num("id", static_cast<double>(i))
                          .str("name", s.name)
                          .num("parent", s.parent)
                          .num("start_s", s.start)
                          .num("end_s", s.end)
                          .str("run_id", runId)
                          .raw("registry_deltas", d.dump())
                          .dump());
    }
    out << JObj().str("run_id", runId).raw("spans", jarr(items)).dump()
        << "\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<double> counters() const {
    std::vector<double> v;
    if (registry_ == nullptr) return v;
    v.reserve(index_.size());
    for (std::size_t i : index_) v.push_back(registry_->valueAt(i));
    return v;
  }

  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  const obs::MetricRegistry* registry_ = nullptr;
  std::vector<std::size_t> index_;
  std::vector<std::string> names_;
  std::uint64_t generation_ = 0;  ///< bumped on every attach/detach
  std::vector<std::pair<std::uint64_t, std::vector<double>>> before_;
};

/// RAII span; also accumulates the host seconds it covered into `*acc`.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, double* acc = nullptr)
      : t_(t), id_(t.begin(name)), acc_(acc), t0_(Clock::now()) {}
  ~Scope() {
    t_.end(id_);
    if (acc_ != nullptr) *acc_ += secondsSince(t0_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
  double* acc_;
  Clock::time_point t0_;
};

// ----- per-run accumulation --------------------------------------------------

/// Everything a workload's clusters contribute to the report. Workloads with
/// several clusters (openloop_knee's rate steps) add each one in turn.
struct Accum {
  // host
  double buildS = 0, loadS = 0, warmupS = 0, windowS = 0, exportS = 0;
  // simulation
  std::uint64_t events = 0;
  std::size_t pendingPeak = 0;
  double simSeconds = 0;
  // client-visible
  std::uint64_t ops = 0, failures = 0, dropped = 0;
  std::uint64_t attempted = 0;
  // Read/update latency over the measured window: closed-loop RPC time from
  // the client hook (fine), or open-loop intent time from the sources.
  FineHistogram fineReads, fineUpdates;
  sim::Histogram reads, updates;
  // registry counter deltas over the window, summed over nodes by suffix
  std::map<std::string, double> sums;
  sim::Histogram stage[obs::TimeTrace::kNumStages];
  double cpuUtilSum = 0;
  int cpuUtilNodes = 0;
  // recovery
  double recoveryS = 0, detectS = 0, replayS = 0;
  int partitions = 0;
  std::uint64_t fingerprint = 1469598103934665603ULL;

  void hash(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      fingerprint = (fingerprint ^ b[i]) * 1099511628211ULL;
    }
  }
};

struct Gates {
  std::vector<std::string> items;
  bool all = true;
  void check(bool ok, const std::string& name, const std::string& detail) {
    all &= ok;
    items.push_back(JObj()
                        .str("name", name)
                        .raw("ok", ok ? "true" : "false")
                        .str("detail", detail)
                        .dump());
  }
};

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[200];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

/// Registry counters (cumulative, side-effect free to read), by index.
std::vector<double> counterValues(const obs::MetricRegistry& reg) {
  std::vector<double> v(reg.size(), 0.0);
  for (std::size_t i = 0; i < reg.size(); ++i) {
    if (reg.infoAt(i).kind == obs::MetricKind::kCounter) v[i] = reg.valueAt(i);
  }
  return v;
}

/// Suffixes summed over every "node<N>." metric into Accum::sums.
const char* const kNodeSuffixes[] = {
    "master.reads",          "master.writes",
    "master.cleaner_runs",   "master.replication.bytes",
    "master.dispatch.items", "backup.writes_serviced",
    "backup.acks_delayed",   "disk.read_bytes",
    "disk.write_bytes",
};
const char* const kClusterCounters[] = {
    "cluster.energy.cpu.joules",      "cluster.energy.dram.joules",
    "cluster.energy.nic.joules",      "cluster.energy.disk.joules",
    "cluster.energy.platform.joules", "cluster.energy.total_joules",
    "net.rpc.timeouts.total",         "net.rpc.retries.total",
    "cluster.shed_requests",          "slo.requests",
    "slo.breached_windows",           "cluster.rpc.spans_started",
};

void addDeltas(Accum& a, const obs::MetricRegistry& reg,
               const std::vector<double>& before,
               const std::vector<double>& after) {
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const auto& info = reg.infoAt(i);
    if (info.kind != obs::MetricKind::kCounter) continue;
    // Metrics registered during the window (lazily created per-tenant shed
    // counters, for one) start from zero.
    const double d = after[i] - (i < before.size() ? before[i] : 0.0);
    const std::string& n = info.name;
    for (const char* c : kClusterCounters) {
      if (n == c) a.sums[n] += d;
    }
    if (n.rfind("node", 0) != 0) continue;
    const auto dot = n.find('.');
    if (dot == std::string::npos) continue;
    const std::string suffix = n.substr(dot + 1);
    for (const char* s : kNodeSuffixes) {
      if (suffix == s) a.sums[suffix] += d;
    }
  }
}

/// The measured window on one cluster: chunked runFor (the pending-depth
/// peak is sampled between chunks, which adds no events), with counter
/// deltas, stage histograms, server CPU utilisation and energy folded into
/// `a`. `atStart` runs once the window's start is fixed.
void measureWindow(core::Cluster& c, Tracer& tr, Accum& a, sim::Duration len,
                   const std::function<void()>& atStart = {}) {
  auto& reg = c.metrics();
  for (int i = 0; i < c.serverCount(); ++i) {
    reg.value("node" + std::to_string(c.serverNodeId(i)) + ".cpu.util");
  }
  const auto before = counterValues(reg);
  const std::uint64_t ev0 = c.sim().eventsExecuted();
  const sim::SimTime end = c.sim().now() + len;
  if (atStart) atStart();
  {
    Scope window(tr, "window", &a.windowS);
    while (c.sim().now() < end) {
      Scope chunk(tr, "runFor");
      a.pendingPeak = std::max(a.pendingPeak, c.sim().pendingEvents());
      c.sim().runUntil(std::min(end, c.sim().now() + kChunk));
    }
  }
  a.events += c.sim().eventsExecuted() - ev0;
  a.simSeconds += sim::toSeconds(len);
  for (int i = 0; i < c.serverCount(); ++i) {
    if (!c.serverAlive(i)) continue;
    a.cpuUtilSum +=
        reg.value("node" + std::to_string(c.serverNodeId(i)) + ".cpu.util");
    ++a.cpuUtilNodes;
  }
  const auto after = counterValues(reg);
  addDeltas(a, reg, before, after);
  for (std::size_t s = 0; s < obs::TimeTrace::kNumStages; ++s) {
    a.stage[s].merge(c.timeTrace().stageHistogram(static_cast<Stage>(s)));
  }
  for (double v : after) a.hash(&v, sizeof v);
}

void traceGate(core::Cluster& c, Gates& g, const std::string& tag) {
  const auto& t = c.timeTrace();
  const std::uint64_t rhs =
      t.spansCompleted() + t.spansAbandoned() + t.activeSpans();
  g.check(t.spansStarted() == rhs, "timetrace_spans_balance" + tag,
          fmt("started %.0f == completed+abandoned+active %.0f",
              static_cast<double>(t.spansStarted()), static_cast<double>(rhs)));
}

void exportIfTraced(core::Cluster& c, Tracer& tr, Accum& a,
                    const std::string& traceDir, const std::string& name) {
  if (!tr.on()) return;
  tr.detach();
  Scope s(tr, "export", &a.exportS);
  c.exportMetrics(traceDir + "/export/" + name);
}

std::unique_ptr<core::Cluster> build(const core::ClusterParams& p, Tracer& tr,
                                     Accum& a) {
  Scope s(tr, "build", &a.buildS);
  return std::make_unique<core::Cluster>(p);
}

std::uint64_t load(core::Cluster& c, std::uint64_t records, Tracer& tr,
                   Accum& a) {
  Scope s(tr, "load", &a.loadS);
  const auto table = c.createTable("usertable");
  c.bulkLoad(table, records, kValueBytes);
  c.startPduSampling();
  return table;
}

/// Closed-loop window latencies: the client hook records ops completing
/// inside the measured window.
void hookClosedLoop(core::Cluster& c, Accum& a, const sim::SimTime& from) {
  for (int i = 0; i < c.clientCount(); ++i) {
    c.clientHost(i).ycsb->onOpComplete = [&a, &from](sim::SimTime at,
                                                     sim::Duration lat,
                                                     bool isRead) {
      if (at < from) return;
      (isRead ? a.fineReads : a.fineUpdates).add(lat);
    };
  }
}

void addClientTotals(core::Cluster& c, Accum& a, std::uint64_t ops0,
                     std::uint64_t fail0) {
  a.ops += c.totalOpsCompleted() - ops0;
  a.failures += c.totalOpFailures() - fail0;
}

// ----- workloads -------------------------------------------------------------

void runReadClosed(std::uint64_t seed, Tracer& tr, Accum& a, Gates& g,
                   JObj&, const std::string& traceDir) {
  using W = ReadClosed;
  core::ClusterParams p;
  p.servers = W::kServers;
  p.clients = W::kClients;
  p.replicationFactor = 3;
  p.seed = seed;
  // Declared before the cluster, whose client hooks refer to it.
  sim::SimTime from = std::numeric_limits<sim::SimTime>::max();
  auto c = build(p, tr, a);
  tr.attach(&c->metrics());
  const auto table = load(*c, W::kRecords, tr, a);
  {
    Scope s(tr, "configure", &a.warmupS);
    c->configureYcsb(table, ycsb::WorkloadSpec::B(W::kRecords),
                     ycsb::YcsbClientParams{});
    hookClosedLoop(*c, a, from);
  }
  {
    Scope s(tr, "warmup", &a.warmupS);
    c->startYcsb();
    c->sim().runFor(W::kWarmup);
  }
  const std::uint64_t ops0 = c->totalOpsCompleted();
  const std::uint64_t fail0 = c->totalOpFailures();
  from = c->sim().now();
  measureWindow(*c, tr, a, W::kWindow);
  addClientTotals(*c, a, ops0, fail0);
  c->stopYcsb();
  a.attempted = a.ops + a.failures;

  g.check(c->totalOpFailures() == 0, "zero_op_failures",
          fmt("%.0f failures", static_cast<double>(c->totalOpFailures())));
  std::uint64_t missing = 0;
  const bool present = c->verifyAllKeysPresent(table, W::kRecords, &missing);
  g.check(present, "all_keys_present",
          present ? "all keys readable"
                  : fmt("key %.0f missing", static_cast<double>(missing)));
  traceGate(*c, g, "");
  exportIfTraced(*c, tr, a, traceDir, "read_closed");
}

void runWriteRecovery(std::uint64_t seed, Tracer& tr, Accum& a, Gates& g,
                      JObj& extra, const std::string& traceDir) {
  using W = WriteRecovery;
  sim::SimTime crashAt = 0;
  int victim = -1;
  core::ClusterParams p;
  p.servers = W::kServers;
  p.clients = W::kClients;
  p.replicationFactor = 3;
  p.seed = seed;
  // Declared before the cluster, whose client hooks refer to it.
  sim::SimTime from = std::numeric_limits<sim::SimTime>::max();
  auto c = build(p, tr, a);
  tr.attach(&c->metrics());
  const auto table = load(*c, W::kRecords, tr, a);
  {
    Scope s(tr, "configure", &a.warmupS);
    c->configureYcsb(table, ycsb::WorkloadSpec::A(W::kRecords),
                     ycsb::YcsbClientParams{});
    hookClosedLoop(*c, a, from);
  }
  {
    Scope s(tr, "warmup", &a.warmupS);
    c->startYcsb();
    c->sim().runFor(W::kWarmup);
  }
  const std::uint64_t ops0 = c->totalOpsCompleted();
  const std::uint64_t fail0 = c->totalOpFailures();
  from = c->sim().now();
  core::Cluster* cp = c.get();
  measureWindow(*c, tr, a, W::kWindow, [&] {
    cp->sim().schedule(W::kCrashAfter, [&, cp] {
      Scope s(tr, "crash");
      crashAt = cp->sim().now();
      victim = cp->pickRandomServerIndex();
      cp->crashServer(victim);
    });
  });
  addClientTotals(*c, a, ops0, fail0);
  c->stopYcsb();
  a.attempted = a.ops + a.failures;

  const auto& log = c->coord().recoveryLog();
  bool succeeded = !log.empty();
  for (const auto& r : log) succeeded &= r.succeeded;
  g.check(succeeded, "recovery_succeeded",
          fmt("%.0f recoveries logged, victim server %.0f",
              static_cast<double>(log.size()), victim));
  if (!log.empty()) {
    a.recoveryS = sim::toSeconds(log.back().finishedAt - crashAt);
    a.partitions = log.back().partitions;
  }
  // Phase extents from the journal: failure detection and log replay.
  sim::SimTime rb = std::numeric_limits<sim::SimTime>::max(), re = 0;
  for (const auto& s : c->journal().spans()) {
    if (s.open) continue;
    if (s.name == "failure_detection") a.detectS += sim::toSeconds(s.duration());
    if (s.name == "replay") {
      rb = std::min(rb, s.begin);
      re = std::max(re, s.end);
    }
  }
  if (re > rb) a.replayS = sim::toSeconds(re - rb);
  std::uint64_t missing = 0;
  const bool present = c->verifyAllKeysPresent(table, W::kRecords, &missing);
  g.check(present, "all_keys_present_after_recovery",
          present ? "all keys readable"
                  : fmt("key %.0f missing", static_cast<double>(missing)));
  traceGate(*c, g, "");
  extra.num("model_recovery_s", a.recoveryS);
  exportIfTraced(*c, tr, a, traceDir, "write_recovery");
}

/// p-quantile of `h` when `misses` further requests count as slower than
/// any completion; infinity when the misses reach into the quantile.
double tailWithMissesUs(const sim::Histogram& h, std::uint64_t misses,
                        double q) {
  const double n = static_cast<double>(h.count());
  if (n <= 0) return std::numeric_limits<double>::infinity();
  const double rank = std::ceil(q * (n + static_cast<double>(misses)));
  if (rank > n) return std::numeric_limits<double>::infinity();
  return sim::toMicros(h.percentile(rank / n));
}

void runOpenLoopKnee(std::uint64_t seed, Tracer& tr, Accum& a, Gates& g,
                     JObj& extra, const std::string& traceDir) {
  using W = OpenLoopKnee;
  std::vector<std::string> steps;
  std::uint64_t wakeups = 0, arrivals = 0;
  int stepIdx = 0;
  for (double rate : W::kRates) {
    Scope stepScope(tr, "step");
    core::ClusterParams p;
    p.servers = W::kServers;
    p.clients = W::kWebSources + 1;
    p.replicationFactor = 3;
    p.seed = seed * 1000 + static_cast<std::uint64_t>(stepIdx);
    auto c = build(p, tr, a);
    tr.attach(&c->metrics());
    {
      // SLO classes first: their ids are the RPC tags the QoS stage keys on.
      Scope s(tr, "configure", &a.warmupS);
      auto& slo = c->sloTracker();
      const obs::SloTarget target{sim::usec(200), sim::usec(500)};
      for (const char* t : {"web", "batch"}) {
        slo.declareClass(std::string(t) + "/read", target);
        slo.declareClass(std::string(t) + "/update", obs::SloTarget{
                                                         sim::msec(1),
                                                         sim::msec(4)});
      }
      server::QosParams qos;
      qos.enabled = true;
      server::QosTenantPolicy batch;
      batch.name = "batch";
      batch.tags = {slo.classId("batch/read") + 1,
                    slo.classId("batch/update") + 1};
      batch.ratePerSec = W::kBatchQosPerNode;
      qos.tenants.push_back(batch);
      c->configureQos(qos);
    }
    const auto table = load(*c, W::kRecords, tr, a);
    {
      Scope s(tr, "configure", &a.warmupS);
      std::vector<load::TrafficSourceParams> src;
      for (int i = 0; i < W::kWebSources; ++i) {
        load::TrafficSourceParams sp;
        sp.shape.users = W::kUsers / W::kWebSources;
        sp.shape.opsPerUserPerSec = rate / W::kUsers;
        sp.tenant = "web";
        src.push_back(sp);
      }
      load::TrafficSourceParams bp;
      bp.shape.process = load::TrafficShape::Process::kOnOff;
      bp.shape.onOffSources = 8;
      bp.shape.users = 1000;
      bp.shape.opsPerUserPerSec = W::kBatchRate / 1000;
      bp.tenant = "batch";
      src.push_back(bp);
      c->configureOpenLoop(table, ycsb::WorkloadSpec::B(W::kRecords), src);
    }
    const std::uint64_t ops0 = c->totalOpsCompleted();
    const std::uint64_t fail0 = c->totalOpFailures();
    measureWindow(*c, tr, a, W::kStep, [&] { c->startTraffic(); });
    c->stopTraffic();
    addClientTotals(*c, a, ops0, fail0);

    // Web-tenant step outcome: intent-time latency over the whole step.
    sim::Histogram reads, updates;
    std::uint64_t webDone = 0, webFailed = 0, webArrivals = 0, webDropped = 0;
    for (int i = 0; i < W::kWebSources; ++i) {
      const auto& s = *c->clientHost(i).traffic;
      reads.merge(s.stats().readLatency);
      updates.merge(s.stats().updateLatency);
      webDone += s.stats().opsCompleted;
      webFailed += s.stats().failures;
      webArrivals += s.arrivalsGenerated();
      webDropped += s.sourceDropped();
    }
    a.reads.merge(reads);
    a.updates.merge(updates);
    a.dropped += c->totalSourceDropped();
    arrivals += c->totalArrivalsGenerated();
    wakeups += c->totalGeneratorWakeups();
    const double p999 =
        tailWithMissesUs(reads, webFailed + webDropped, 0.999);
    steps.push_back(JObj()
                        .num("offered_kops", rate / 1e3)
                        .num("offered", static_cast<double>(webArrivals))
                        .num("delivered", static_cast<double>(webDone))
                        .num("refused", static_cast<double>(webFailed))
                        .num("dropped", static_cast<double>(webDropped))
                        .num("reads", static_cast<double>(reads.count()))
                        .num("read_p90_us", interpolatedUs(reads, 0.9))
                        .num("read_p99_us", interpolatedUs(reads, 0.99))
                        .num("update_p99_us", interpolatedUs(updates, 0.99))
                        .num("read_p999_us", p999)
                        .dump());

    // Only the batch tenant has a QoS policy, so only it has counters.
    const auto off = c->qosCounter("batch", "offered");
    const auto adm = c->qosCounter("batch", "admitted");
    const auto thr = c->qosCounter("batch", "throttled");
    g.check(off == adm + thr, "qos_balance_batch_step" + std::to_string(stepIdx),
            fmt("offered %.0f == admitted %.0f + throttled %.0f",
                static_cast<double>(off), static_cast<double>(adm),
                static_cast<double>(thr)));
    a.sums["dispatch.qos_throttled"] += static_cast<double>(thr);
    traceGate(*c, g, "_step" + std::to_string(stepIdx));
    exportIfTraced(*c, tr, a, traceDir,
                   "openloop_knee_step" + std::to_string(stepIdx));
    ++stepIdx;
  }
  a.attempted = a.ops + a.failures + a.dropped;
  a.sums["load.arrivals"] = static_cast<double>(arrivals);
  a.sums["load.wakeups"] = static_cast<double>(wakeups);
  extra.raw("steps", jarr(steps));
  extra.num("slo_read_p999_us", W::kSloReadP999Us);
}

// ----- bare simulation engine ------------------------------------------------

/// Hold model: `depth` pending events, each of which reschedules itself at a
/// random delay, so the heap stays at `depth` while `events` run. Returns
/// host ns per executed event — the engine's own cost at that depth.
double bareNsPerEvent(std::size_t depth, std::uint64_t events) {
  sim::Simulation s(7);
  struct Hold {
    sim::Simulation* sim;
    std::uint64_t left;
    void fire() {
      if (left == 0) return;
      --left;
      sim->schedule(static_cast<sim::Duration>(sim->rng().uniformInt(100'000)),
                    [this] { fire(); });
    }
  } hold{&s, events};
  for (std::size_t i = 0; i < depth; ++i) {
    s.schedule(static_cast<sim::Duration>(s.rng().uniformInt(100'000)),
               [&hold] { hold.fire(); });
  }
  const auto t0 = Clock::now();
  const std::uint64_t ran = s.run();
  return secondsSince(t0) * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, ran));
}

// ----- report ----------------------------------------------------------------

double us(sim::Duration d) { return sim::toMicros(d); }

std::string layers(const Accum& a, double bareNs) {
  const auto& S = a.sums;
  auto sum = [&S](const std::string& k) {
    const auto it = S.find(k);
    return it == S.end() ? 0.0 : it->second;
  };
  const double kops = static_cast<double>(a.ops) / 1e3;
  auto perKop = [kops](double v) { return kops > 0 ? v / kops : 0.0; };
  auto stage = [&a](Stage s) -> const sim::Histogram& {
    return a.stage[static_cast<std::size_t>(s)];
  };
  const double events = static_cast<double>(a.events);
  JObj o;
  o.num("core.cluster_build_s", a.buildS)
      .num("core.bulk_load_s", a.loadS)
      .num("core.warmup_s", a.warmupS)
      .num("sim.events", events)
      .num("sim.events_per_op", a.ops ? events / static_cast<double>(a.ops) : 0)
      .num("sim.ns_per_event", events > 0 ? a.windowS * 1e9 / events : 0)
      .num("sim.pending_peak", static_cast<double>(a.pendingPeak))
      .num("sim.bare_ns_per_event", bareNs)
      .num("net.request_us_mean", stage(Stage::kNetworkRequest).mean() / 1e3)
      .num("net.reply_us_mean", stage(Stage::kNetworkReply).mean() / 1e3)
      .num("net.rpcs", sum("cluster.rpc.spans_started"))
      .num("net.rpc_timeouts", sum("net.rpc.timeouts.total"))
      .num("net.rpc_retries", sum("net.rpc.retries.total"))
      .num("dispatch.wait_us_mean", stage(Stage::kDispatchWait).mean() / 1e3)
      .num("dispatch.wait_us_p99", us(stage(Stage::kDispatchWait).percentile(0.99)))
      .num("dispatch.items", sum("master.dispatch.items"))
      .num("dispatch.shed", sum("cluster.shed_requests"))
      .num("dispatch.qos_throttled", sum("dispatch.qos_throttled"))
      .num("master.service_us_mean", stage(Stage::kWorkerService).mean() / 1e3)
      .num("master.service_us_p99", us(stage(Stage::kWorkerService).percentile(0.99)))
      .num("master.reads", sum("master.reads"))
      .num("master.writes", sum("master.writes"))
      .num("master.cleaner_runs", sum("master.cleaner_runs"))
      .num("replication.wait_us_mean", stage(Stage::kReplicationWait).mean() / 1e3)
      .num("replication.wait_us_p99", us(stage(Stage::kReplicationWait).percentile(0.99)))
      .num("replication.bytes", sum("master.replication.bytes"))
      .num("backup.writes_serviced", sum("backup.writes_serviced"))
      .num("backup.acks_delayed", sum("backup.acks_delayed"))
      .num("recovery.detect_s", a.detectS)
      .num("recovery.replay_s", a.replayS)
      .num("recovery.partitions", a.partitions)
      .num("node.cpu_util_mean", a.cpuUtilNodes ? a.cpuUtilSum / a.cpuUtilNodes : 0)
      .num("disk.read_bytes", sum("disk.read_bytes"))
      .num("disk.write_bytes", sum("disk.write_bytes"));
  for (const char* comp : {"cpu", "dram", "nic", "disk", "platform"}) {
    o.num(std::string("energy.") + comp + "_j_per_kop",
          perKop(sum(std::string("cluster.energy.") + comp + ".joules")));
  }
  o.num("client.ops", static_cast<double>(a.ops))
      .num("client.failures", static_cast<double>(a.failures))
      .num("load.arrivals", sum("load.arrivals"))
      .num("load.wakeups_per_kop", perKop(sum("load.wakeups")))
      .num("load.source_dropped", static_cast<double>(a.dropped))
      .num("slo.requests", sum("slo.requests"))
      .num("slo.breached_windows", sum("slo.breached_windows"))
      .num("obs.export_s", a.exportS);
  return o.dump();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N "
               "[--trace-dir DIR --run-id ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, traceDir, runId = "run";
  std::uint64_t seed = 0;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
      haveSeed = true;
    } else if (arg == "--trace-dir") {
      traceDir = v;
    } else if (arg == "--run-id") {
      runId = v;
    } else {
      return usage();
    }
  }
  if (workload.empty() || !haveSeed) return usage();

  using Runner = void (*)(std::uint64_t, Tracer&, Accum&, Gates&, JObj&,
                          const std::string&);
  const std::map<std::string, Runner> runners = {
      {"read_closed", runReadClosed},
      {"write_recovery", runWriteRecovery},
      {"openloop_knee", runOpenLoopKnee},
  };
  const auto it = runners.find(workload);
  if (it == runners.end()) return usage();

  Tracer tr(!traceDir.empty());
  Accum a;
  Gates g;
  JObj extra;
  it->second(seed, tr, a, g, extra, traceDir);
  if (tr.on() && !tr.write(traceDir + "/spans.json", runId)) {
    std::fprintf(stderr, "cannot write %s/spans.json\n", traceDir.c_str());
    return 1;
  }

  const double kops = static_cast<double>(a.ops) / 1e3;
  const double joules = a.sums["cluster.energy.total_joules"];
  JObj model;
  model.num("model_kops", a.simSeconds > 0 ? kops / a.simSeconds : 0);
  const auto latency = [&model](const std::string& op, const FineHistogram& f,
                                const sim::Histogram& d) {
    const bool fine = f.count() > 0;
    const std::string pre = "model_" + op + "_";
    model.num(pre + "mean_us", fine ? f.meanUs() : d.mean() / 1e3);
    for (const auto& [name, q] : {std::pair{"p50", 0.5}, {"p90", 0.9},
                                  {"p99", 0.99}, {"p999", 0.999},
                                  {"p9999", 0.9999}}) {
      model.num(pre + name + "_us",
                fine ? f.percentileUs(q) : interpolatedUs(d, q));
    }
    model.num(pre + "samples",
              static_cast<double>(fine ? f.count() : d.count()));
  };
  latency("read", a.fineReads, a.reads);
  latency("update", a.fineUpdates, a.updates);
  model.num("model_j_per_kop", kops > 0 ? joules / kops : 0);
  a.hash(&a.ops, sizeof a.ops);
  a.hash(&a.failures, sizeof a.failures);
  char fp[20];
  std::snprintf(fp, sizeof fp, "%016" PRIx64, a.fingerprint);

  JObj host;
  host.num("cluster_build_s", a.buildS)
      .num("bulk_load_s", a.loadS)
      .num("warmup_s", a.warmupS)
      .num("setup_s", a.buildS + a.loadS + a.warmupS)
      .num("wall_s", a.windowS);

  const double bare = tr.on() && a.pendingPeak > 0
                          ? bareNsPerEvent(a.pendingPeak, 2'000'000)
                          : 0;
  std::printf(
      "%s\n",
      JObj()
          .str("workload", workload)
          .num("seed", static_cast<double>(seed))
          .raw("traced", tr.on() ? "true" : "false")
          .raw("host", host.dump())
          .raw("model", model.dump())
          .raw("extra", extra.dump())
          .raw("layers", layers(a, bare))
          .raw("counts", JObj()
                             .num("attempted", static_cast<double>(a.attempted))
                             .num("failed", static_cast<double>(
                                                a.failures + a.dropped))
                             .dump())
          .raw("gates", jarr(g.items))
          .raw("gates_ok", g.all ? "true" : "false")
          .str("fingerprint", fp)
          .dump()
          .c_str());
  return g.all ? 0 : 3;
}
