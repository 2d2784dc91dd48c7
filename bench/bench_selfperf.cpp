// bench_selfperf — wall-clock performance of the simulator itself.
//
// Unlike the fig/table benches (which reproduce the paper's *modelled*
// numbers), this harness measures how fast the host turns over simulated
// events on four canonical scenarios; sweep density — and therefore CI
// wall time — is directly proportional to it. See docs/PERF.md.
//
//   bench_selfperf [--quick] [--repeat N] [--json FILE] [--check BASELINE]
//                  [--slo-overhead | --energy-overhead | --overload-overhead]
//
// --check gates the process exit code: any scenario whose events/sec drops
// more than kBaselineTolerance (25%) below the recorded baseline fails.
//
// --slo-overhead runs the ycsb_b scenario on this host with the SLO
// tracker off and on (tenant classes declared, every op recorded,
// exemplars kept), and fails if the on-variant's events/sec drops more
// than kOverheadTolerance (5%) below the off-variant's. Same-machine A/B,
// so the gate is immune to host speed differences.
//
// --energy-overhead is the same A/B for the per-resource energy ledger
// (docs/ENERGY.md): ycsb_b with metering off vs on (the default wiring).
//
// --overload-overhead is the same A/B for the overload-control machinery
// (docs/OVERLOAD.md): ycsb_b — which never sheds — with admission control
// and client retry budgets off vs on (the default wiring). The scenario
// stays below capacity, so the pair isolates the pure bookkeeping cost of
// admission checks and sojourn tracking on the request hot path.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "ycsb/workload.hpp"
#include "ycsb/ycsb_client.hpp"

namespace {

using namespace rc;

constexpr double kBaselineTolerance = 0.25;
constexpr double kOverheadTolerance = 0.05;

/// Host-side (wall-clock) cost of one scenario:
///
///   ycsb_b        closed-loop YCSB-B steady state, 10 servers, rf=3
///   recovery_rf3  crash recovery of a loaded master at rf=3
///   chaos_101     the chaos fault matrix (seed 101) under YCSB-A load
///   openloop_1m   10^6 modeled users through 4 batched TrafficSources
///                 (docs/WORKLOADS.md), 10 servers, rf=3
///
/// The metric that matters is host events/sec. wall_per_sim_s is the
/// complementary "how long does one simulated second take me" view. For
/// the load-generation scenarios, events/op shows the heap cost per
/// delivered request (the open-loop engine's batching keeps it o(1) even
/// at 10^6 users).
struct ScenarioResult {
  std::string name;
  std::uint64_t events = 0;  ///< sim events executed in the measured window
  double simSeconds = 0;     ///< simulated time covered by the window
  double wallSeconds = 0;    ///< host wall-clock spent on the window
  std::uint64_t ops = 0;     ///< client ops completed in the window (0 when
                             ///< the scenario doesn't track ops)

  double eventsPerSec() const {
    return wallSeconds > 0 ? static_cast<double>(events) / wallSeconds : 0;
  }
  double wallPerSimSecond() const {
    return simSeconds > 0 ? wallSeconds / simSeconds : 0;
  }
  double eventsPerOp() const {
    return ops > 0 ? static_cast<double>(events) / static_cast<double>(ops)
                   : 0;
  }
};

struct Options {
  bool quick = false;  ///< smaller windows / data (CI smoke)
  int repeat = 1;      ///< run each scenario N times, keep the fastest
  /// Run ycsb_b with the SLO tracker live (tenant classes declared, every
  /// op recorded); the off-vs-on pair is the --slo-overhead gate.
  bool slo = false;
  /// Per-resource energy ledger charging (docs/ENERGY.md). On by default —
  /// matching production cluster wiring — and switched off for the
  /// --energy-overhead A/B.
  bool energy = true;
  /// Overload-control machinery (docs/OVERLOAD.md): dispatch admission
  /// control + client retry budgets. On by default — the production
  /// defaults — and switched off for the --overload-overhead A/B.
  bool overload = true;
};

using Clock = std::chrono::steady_clock;

/// Measure `body(cluster)` — wall-clock and sim-events — after `setup` has
/// built the scenario. Only the body is timed: bulk loads and wiring are
/// one-off costs that no sweep pays per simulated second.
template <typename Setup, typename Body>
ScenarioResult measure(const std::string& name, Setup setup, Body body) {
  auto cluster = setup();
  core::Cluster& c = *cluster;
  const std::uint64_t events0 = c.sim().eventsExecuted();
  const sim::SimTime sim0 = c.sim().now();
  const auto wall0 = Clock::now();
  body(c);
  ScenarioResult r;
  r.name = name;
  r.events = c.sim().eventsExecuted() - events0;
  r.simSeconds = sim::toSeconds(c.sim().now() - sim0);
  r.wallSeconds =
      std::chrono::duration<double>(Clock::now() - wall0).count();
  return r;
}

template <typename RunOnce>
ScenarioResult bestOf(int repeat, RunOnce runOnce) {
  ScenarioResult best = runOnce();
  for (int i = 1; i < repeat; ++i) {
    ScenarioResult r = runOnce();
    if (r.eventsPerSec() > best.eventsPerSec()) best = r;
  }
  return best;
}

/// The steady-state YCSB-B scenarios on 10 servers, rf=3: ycsb_b drives
/// 10 closed-loop clients; openloop_1m drives 10^6 modeled users
/// aggregated into 4 TrafficSources (250k users each) at 0.12 op/user/s —
/// 120 Kop/s offered, comparable to ycsb_b's closed-loop delivered rate, so
/// events/op is an apples-to-apples cost comparison between the two load
/// engines (docs/WORKLOADS.md).
ScenarioResult runSteady(const Options& opt, bool openLoop) {
  const std::uint64_t records = opt.quick ? 20'000 : 100'000;
  const sim::Duration warmup = sim::msec(500);
  const sim::Duration window = opt.quick ? sim::seconds(1) : sim::seconds(3);
  return bestOf(opt.repeat, [&] {
    std::uint64_t ops0 = 0;
    std::uint64_t ops1 = 0;
    ScenarioResult r = measure(
        openLoop ? "openloop_1m" : "ycsb_b",
        [&] {
          core::ClusterParams p;
          p.servers = 10;
          p.clients = openLoop ? 4 : 10;
          p.replicationFactor = 3;
          p.seed = 42;
          if (!opt.overload) {
            p.dispatch.admission.enabled = false;
            p.client.retryBudgetPerSec = 0;
          }
          auto c = std::make_unique<core::Cluster>(p);
          if (!opt.energy) c->setEnergyMetering(false);
          ycsb::YcsbClientParams ycp;
          if (opt.slo) {
            // SLO-on variant: declared targets + per-op recording, so the
            // pair (off, on) isolates the tracker's hot-path cost.
            c->sloTracker().declareClass("bench/read",
                                         obs::SloTarget{sim::usec(200),
                                                        sim::usec(500)});
            c->sloTracker().declareClass("bench/update",
                                         obs::SloTarget{sim::usec(600),
                                                        sim::msec(2)});
            ycp.tenant = "bench";
          }
          const auto table = c->createTable("usertable");
          c->bulkLoad(table, records, 1000);
          c->startPduSampling();
          const ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::B(records);
          if (openLoop) {
            std::vector<load::TrafficSourceParams> sources(4);
            for (auto& s : sources) {
              s.shape.users = 250'000;
              s.shape.opsPerUserPerSec = 0.12;
            }
            c->configureOpenLoop(table, spec, sources);
            c->startTraffic();
          } else {
            c->configureYcsb(table, spec, ycp);
            c->startYcsb();
          }
          c->sim().runFor(warmup);
          return c;
        },
        [&](core::Cluster& c) {
          ops0 = c.totalOpsCompleted();
          c.sim().runFor(window);
          ops1 = c.totalOpsCompleted();
          if (openLoop) {
            c.stopTraffic();
          } else {
            c.stopYcsb();
          }
        });
    r.ops = ops1 - ops0;
    return r;
  });
}

ScenarioResult runRecoveryRf3(const Options& opt) {
  const std::uint64_t records = opt.quick ? 100'000 : 1'000'000;
  return bestOf(opt.repeat, [&] {
    bool recovered = false;
    return measure(
        "recovery_rf3",
        [&] {
          core::ClusterParams p;
          p.servers = 9;
          p.clients = 1;
          p.replicationFactor = 3;
          p.seed = 42;
          auto c = std::make_unique<core::Cluster>(p);
          const auto table = c->createTable("usertable");
          c->bulkLoad(table, records, 1000);
          c->startPduSampling();
          c->coord().onRecoveryFinished =
              [&recovered](const coordinator::RecoveryRecord&) {
                recovered = true;
              };
          core::Cluster* cp = c.get();
          c->sim().schedule(sim::seconds(1), [cp] { cp->crashServer(3); });
          return c;
        },
        [&](core::Cluster& c) {
          // Run until the coordinator reports the recovery finished (plus a
          // short settle for trailing re-replication), capped defensively.
          const sim::SimTime deadline = c.sim().now() + sim::seconds(120);
          while (!recovered && c.sim().now() < deadline) {
            c.sim().runFor(sim::msec(250));
          }
          c.sim().runFor(sim::seconds(1));
        });
  });
}

ScenarioResult runChaosSeed101(const Options& opt) {
  const std::uint64_t records = 8'000;
  const sim::Duration window = opt.quick ? sim::seconds(3) : sim::seconds(6);
  return bestOf(opt.repeat, [&] {
    // Mirrors tests/chaos_test.cpp's standing matrix (minus the RIFL
    // probes): loss + latency + disk + gray-CPU faults around a master
    // crash, then a pure-backup crash mid-recovery.
    fault::FaultPlan plan;
    plan.networkLoss(sim::seconds(1), 0.02, sim::seconds(1));
    plan.latencySpike(sim::msec(1500), sim::usec(200), sim::seconds(1));
    plan.diskDegrade(sim::seconds(1), /*serverIdx=*/4, /*factor=*/2.0,
                     sim::seconds(2));
    plan.cpuThrottle(sim::seconds(1), /*serverIdx=*/5, /*fraction=*/0.34,
                     sim::seconds(2));
    plan.diskStall(sim::msec(2500), /*serverIdx=*/3, sim::msec(300));
    plan.crashServer(sim::seconds(2), /*serverIdx=*/0);
    plan.crashOnRecovery(/*ordinal=*/1, sim::msec(50), /*serverIdx=*/7);

    std::unique_ptr<fault::FaultInjector> injector;
    ScenarioResult r = measure(
        "chaos_101",
        [&] {
          core::ClusterParams p;
          p.servers = 8;
          p.clients = 2;
          p.replicationFactor = 3;
          p.seed = 101;
          auto c = std::make_unique<core::Cluster>(p);
          // Servers 6 and 7 stay tablet-less pure backups so the
          // mid-recovery crash attacks durability, not availability.
          const auto table = c->createTable("chaos", /*serverSpan=*/6);
          c->bulkLoad(table, records, 256);
          ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::A(records);
          spec.valueBytes = 256;
          c->configureYcsb(table, spec, ycsb::YcsbClientParams{});
          c->startYcsb();
          injector = std::make_unique<fault::FaultInjector>(
              *c, plan, c->sim().rng().fork(0xFA171));
          injector->arm();
          return c;
        },
        [&](core::Cluster& c) {
          c.sim().runFor(window);
          c.stopYcsb();
          c.sim().runFor(sim::seconds(2));  // trailing RPCs + repair settle
        });
    injector.reset();
    return r;
  });
}

/// BENCH_selfperf.json: one JSON object, schema in docs/PERF.md.
bool writeJson(const std::vector<ScenarioResult>& results,
               const Options& opt, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\n  \"bench\": \"selfperf\",\n  \"schema\": 1,\n"
     << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n"
     << "  \"slo\": " << (opt.slo ? "true" : "false") << ",\n"
     << "  \"energy\": " << (opt.energy ? "true" : "false") << ",\n"
     << "  \"overload\": " << (opt.overload ? "true" : "false") << ",\n"
     << "  \"repeat\": " << opt.repeat << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"events\": %llu, "
                  "\"sim_s\": %.6f, \"wall_s\": %.6f, "
                  "\"events_per_sec\": %.1f, \"wall_per_sim_s\": %.6f, "
                  "\"ops\": %llu, \"events_per_op\": %.2f}%s\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.events),
                  r.simSeconds, r.wallSeconds, r.eventsPerSec(),
                  r.wallPerSimSecond(),
                  static_cast<unsigned long long>(r.ops), r.eventsPerOp(),
                  i + 1 < results.size() ? "," : "");
    os << line;
  }
  os << "  ]\n}\n";
  return static_cast<bool>(os);
}

/// Compare against a recorded baseline (same JSON schema): a scenario
/// fails when its events/sec drops more than kBaselineTolerance below the
/// baseline's; scenarios missing from the baseline are skipped. Prints one
/// verdict line per scenario and returns false on any regression.
bool checkAgainstBaseline(const std::vector<ScenarioResult>& results,
                          const std::string& baselinePath) {
  std::ifstream is(baselinePath);
  if (!is) {
    std::printf("baseline-check: cannot read baseline: %s\n",
                baselinePath.c_str());
    return false;
  }
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string text = ss.str();

  bool ok = true;
  for (const ScenarioResult& r : results) {
    const auto at = text.find("\"name\": \"" + r.name + "\"");
    if (at == std::string::npos) {
      std::printf("baseline-check: %s: not in baseline, skipped\n",
                  r.name.c_str());
      continue;
    }
    const std::string keyPat = "\"events_per_sec\": ";
    const auto kat = text.find(keyPat, at);
    if (kat == std::string::npos) {
      std::printf("baseline-check: %s: baseline has no events_per_sec\n",
                  r.name.c_str());
      continue;
    }
    const double base = std::strtod(text.c_str() + kat + keyPat.size(),
                                    nullptr);
    const double cur = r.eventsPerSec();
    const double floor = base * (1.0 - kBaselineTolerance);
    std::printf("baseline-check: %s: %.0f ev/s vs baseline %.0f "
                "(floor %.0f) -> %s\n",
                r.name.c_str(), cur, base, floor,
                cur >= floor ? "ok" : "REGRESSION");
    if (cur < floor) ok = false;
  }
  return ok;
}

// Same-host off/on A/B of a hot-path feature's cost on ycsb_b. Wall-clock
// A/B on a shared host is noisy (~+-5% run to run), so: one discarded
// warmup, then N reps per side with the off/on order alternating each rep
// (cancels cache/allocator warmup bias), and the per-side *best* run as
// the estimate — the minimum-interference execution is the stablest proxy
// for true cost. Returns 0 when the on-variant's events/sec stays within
// kOverheadTolerance of the off-variant's.
int overheadGate(const char* what, const Options& opt,
                 bool Options::*feature) {
  Options off = opt;
  off.*feature = false;
  Options on = opt;
  on.*feature = true;
  const int reps = off.repeat < 5 ? 5 : off.repeat;
  (void)runSteady(off, false);  // warmup, discarded
  std::vector<double> offs, ons;
  for (int r = 0; r < reps; ++r) {
    if (r % 2 == 0) {
      offs.push_back(runSteady(off, false).eventsPerSec());
      ons.push_back(runSteady(on, false).eventsPerSec());
    } else {
      ons.push_back(runSteady(on, false).eventsPerSec());
      offs.push_back(runSteady(off, false).eventsPerSec());
    }
  }
  const double evOff = *std::max_element(offs.begin(), offs.end());
  const double evOn = *std::max_element(ons.begin(), ons.end());
  const double drop = evOff > 0 ? 1.0 - evOn / evOff : 0.0;
  std::printf("%s-overhead: ycsb_b off %.0f ev/s, on %.0f ev/s, "
              "drop %.2f%% (tolerance %.2f%%)\n",
              what, evOff, evOn, drop * 100.0, kOverheadTolerance * 100.0);
  if (drop > kOverheadTolerance) {
    std::fprintf(stderr, "selfperf: %s overhead %.2f%% exceeds %.2f%%\n",
                 what, drop * 100.0, kOverheadTolerance * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string jsonPath = "BENCH_selfperf.json";
  std::string checkPath;
  bool sloOverhead = false;
  bool energyOverhead = false;
  bool overloadOverhead = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) opt.quick = true;
    if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      opt.repeat = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    }
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      checkPath = argv[++i];
    }
    if (std::strcmp(argv[i], "--slo-overhead") == 0) sloOverhead = true;
    if (std::strcmp(argv[i], "--energy-overhead") == 0) energyOverhead = true;
    if (std::strcmp(argv[i], "--overload-overhead") == 0) {
      overloadOverhead = true;
    }
  }
  if (opt.repeat < 1) opt.repeat = 1;

  // A/B gates: the SLO tracker (docs/SLO.md), the energy ledger's charging
  // (docs/ENERGY.md), and admission control + retry budgets on a
  // never-overloaded ycsb_b (docs/OVERLOAD.md).
  if (sloOverhead) return overheadGate("slo", opt, &Options::slo);
  if (energyOverhead) return overheadGate("energy", opt, &Options::energy);
  if (overloadOverhead) {
    return overheadGate("overload", opt, &Options::overload);
  }

  std::printf("selfperf: simulator hot-path throughput (%s scale, "
              "best of %d)\n", opt.quick ? "quick" : "default", opt.repeat);
  const std::vector<ScenarioResult> results = {
      runSteady(opt, false), runRecoveryRf3(opt), runChaosSeed101(opt),
      runSteady(opt, true)};
  for (const auto& r : results) {
    std::printf("  %-14s %12llu events  %6.2f sim-s  %7.3f wall-s  "
                "%10.0f ev/s  %.4f wall-s/sim-s",
                r.name.c_str(), static_cast<unsigned long long>(r.events),
                r.simSeconds, r.wallSeconds, r.eventsPerSec(),
                r.wallPerSimSecond());
    if (r.ops > 0) std::printf("  %.2f ev/op", r.eventsPerOp());
    std::printf("\n");
  }

  if (!writeJson(results, opt, jsonPath)) {
    std::fprintf(stderr, "selfperf: cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  std::printf("selfperf: wrote %s\n", jsonPath.c_str());

  if (!checkPath.empty() && !checkAgainstBaseline(results, checkPath)) {
    std::fprintf(stderr, "selfperf: events/sec regression vs %s\n",
                 checkPath.c_str());
    return 1;
  }
  return 0;
}
