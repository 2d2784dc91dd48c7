// rcperf — command-line experiment runner for the simulated RAMCloud
// cluster. Lets you reproduce any paper configuration (or your own) without
// writing code:
//
//   rcperf ycsb --servers 10 --clients 30 --workload A --rf 2
//   rcperf ycsb --workload C --dist zipfian --measure 10
//   rcperf ycsb --workload A --rf 3 --tx          # minitransaction variant
//   rcperf recovery --servers 9 --rf 4 --records 2000000 --csv
//   rcperf sweep rf --values 1,2,3,4 --servers 20 --clients 60 --workload A
//
// Output: one human-readable row per run; --csv switches to a header+rows
// CSV stream for plotting.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/table_format.hpp"
#include "obs/slo_tracker.hpp"

using namespace rc;

namespace {

struct Args {
  std::map<std::string, std::string> kv;
  bool has(const std::string& k) const { return kv.count(k) > 0; }
  std::string str(const std::string& k, const std::string& dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  double num(const std::string& k, double dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
  }
  static Args parse(int argc, char** argv, int from) {
    Args a;
    for (int i = from; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) continue;
      const std::string key = argv[i] + 2;
      const bool boolean =
          i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0;
      a.kv[key] = std::string(boolean ? "1" : argv[++i]);
    }
    return a;
  }
};

ycsb::WorkloadSpec workloadFor(const Args& a) {
  const std::string w = a.str("workload", "C");
  const auto records =
      static_cast<std::uint64_t>(a.num("records", 100'000));
  ycsb::WorkloadSpec spec;
  if (w == "A") {
    spec = ycsb::WorkloadSpec::A(records);
  } else if (w == "B") {
    spec = ycsb::WorkloadSpec::B(records);
  } else if (w == "C") {
    spec = ycsb::WorkloadSpec::C(records);
  } else if (w == "D") {
    spec = ycsb::WorkloadSpec::D(records);
  } else if (w == "F") {
    spec = ycsb::WorkloadSpec::F(records);
  } else {
    std::fprintf(stderr, "unknown --workload %s (A|B|C|D|F)\n", w.c_str());
    std::exit(2);
  }
  const std::string dist = a.str("dist", "");
  if (dist == "zipfian") {
    spec.distribution = ycsb::WorkloadSpec::Distribution::kZipfian;
  } else if (dist == "latest") {
    spec.distribution = ycsb::WorkloadSpec::Distribution::kLatest;
  } else if (dist == "uniform" || dist.empty()) {
    // D defaults to latest; only override when asked.
    if (dist == "uniform") {
      spec.distribution = ycsb::WorkloadSpec::Distribution::kUniform;
    }
  } else {
    std::fprintf(stderr, "unknown --dist %s\n", dist.c_str());
    std::exit(2);
  }
  spec.valueBytes = static_cast<std::uint32_t>(a.num("value-bytes", 1000));
  return spec;
}

core::ExperimentConfig ycsbConfig(const Args& a) {
  core::ExperimentConfig cfg;
  cfg.cluster.servers = static_cast<int>(a.num("servers", 10));
  cfg.cluster.clients = static_cast<int>(a.num("clients", 10));
  cfg.cluster.replicationFactor = static_cast<int>(a.num("rf", 0));
  cfg.workload = workloadFor(a);
  cfg.warmup = sim::secondsF(a.num("warmup", 1.0));
  cfg.measure = sim::secondsF(a.num("measure", 4.0));
  cfg.client.throttleOpsPerSec = a.num("throttle", 0);
  cfg.cluster.seed = static_cast<std::uint64_t>(a.num("seed", 42));
  cfg.metricsDir = a.str("metrics-dir", "");
  if (a.has("tx")) {
    cfg.client.transactionalRmw = true;
    cfg.client.transferProportion = a.num("tx-transfers", 0.05);
    cfg.client.transferAccounts =
        static_cast<std::uint64_t>(a.num("tx-accounts", 12));
    // Account pool above the zipfian/insert-probe range.
    cfg.client.transferKeyBase = cfg.workload.recordCount * 4;
  }
  return cfg;
}

void printYcsbHeaderCsv() {
  std::printf(
      "servers,clients,rf,workload,throughput_ops,watts_per_node,"
      "cpu_pct,ops_per_joule,read_mean_us,update_mean_us,failures\n");
}

void printYcsbRow(const core::ExperimentConfig& cfg,
                  const core::ExperimentResult& r, bool csv) {
  if (csv) {
    std::printf("%d,%d,%d,%s,%.0f,%.2f,%.2f,%.1f,%.2f,%.2f,%llu\n",
                cfg.cluster.servers, cfg.cluster.clients,
                cfg.cluster.replicationFactor, cfg.workload.name.c_str(),
                r.throughputOpsPerSec,
                r.meanPowerPerServerW, r.meanCpuPct, r.opsPerJoule,
                r.readMeanLatencyUs, r.updateMeanLatencyUs,
                static_cast<unsigned long long>(r.opFailures));
    return;
  }
  std::printf(
      "srv=%-3d cli=%-3d rf=%d wl=%-2s | %9.0f op/s | %6.1f W/node | "
      "%5.1f%% cpu | %6.1f op/J | rd %7.1fus up %8.1fus | fail %llu%s\n",
      cfg.cluster.servers, cfg.cluster.clients, cfg.cluster.replicationFactor,
      cfg.workload.name.c_str(), r.throughputOpsPerSec,
      r.meanPowerPerServerW, r.meanCpuPct, r.opsPerJoule,
      r.readMeanLatencyUs, r.updateMeanLatencyUs,
      static_cast<unsigned long long>(r.opFailures),
      r.crashed ? "  [CRASHED]" : "");
}

int cmdYcsb(const Args& a) {
  const bool csv = a.has("csv");
  const auto cfg = ycsbConfig(a);
  const auto r = core::runExperiment(cfg);
  if (csv) printYcsbHeaderCsv();
  printYcsbRow(cfg, r, csv);
  if (!cfg.metricsDir.empty()) {
    std::printf(
        "  stages: dispatch-wait %.1f/%.1fus  worker %.1f/%.1fus  "
        "repl-wait %.1f/%.1fus (mean/p99)\n",
        r.dispatchWaitMeanUs, r.dispatchWaitP99Us, r.workerServiceMeanUs,
        r.workerServiceP99Us, r.replicationWaitMeanUs, r.replicationWaitP99Us);
    std::printf("  rpc: timeouts %llu  retries %llu "
                "(per-opcode: net.rpc.retries.*)\n",
                static_cast<unsigned long long>(r.rpcTimeouts),
                static_cast<unsigned long long>(r.rpcRetries));
    std::printf("  metrics: %s/metrics.jsonl, %s/series.csv\n",
                cfg.metricsDir.c_str(), cfg.metricsDir.c_str());
  }
  if (r.txPrepares + r.txCommits + r.txAborts + r.txConflicts > 0) {
    std::printf(
        "  tx: commits %llu  aborts %llu  conflicts %llu  "
        "orphans-resolved %llu  (prepares %llu, transfers %llu, "
        "client aborted/unknown %llu/%llu)\n",
        static_cast<unsigned long long>(r.txCommits),
        static_cast<unsigned long long>(r.txAborts),
        static_cast<unsigned long long>(r.txConflicts),
        static_cast<unsigned long long>(r.txOrphansResolved),
        static_cast<unsigned long long>(r.txPrepares),
        static_cast<unsigned long long>(r.txTransfers),
        static_cast<unsigned long long>(r.txClientAborted),
        static_cast<unsigned long long>(r.txClientUnknown));
  }
  return r.crashed ? 1 : 0;
}

int cmdSweep(const Args& a, const std::string& param) {
  const bool csv = a.has("csv");
  std::vector<int> values;
  std::stringstream ss(a.str("values", "1,2,3,4"));
  for (std::string tok; std::getline(ss, tok, ',');) {
    values.push_back(std::atoi(tok.c_str()));
  }
  if (csv) printYcsbHeaderCsv();
  for (int v : values) {
    auto cfg = ycsbConfig(a);
    if (param == "rf") {
      cfg.cluster.replicationFactor = v;
    } else if (param == "servers") {
      cfg.cluster.servers = v;
    } else if (param == "clients") {
      cfg.cluster.clients = v;
    } else {
      std::fprintf(stderr, "sweep parameter must be rf|servers|clients\n");
      return 2;
    }
    if (!cfg.metricsDir.empty()) {
      // One run directory per sweep point.
      cfg.metricsDir += "/" + param + "=" + std::to_string(v);
    }
    printYcsbRow(cfg, core::runExperiment(cfg), csv);
  }
  return 0;
}

int cmdRecovery(const Args& a) {
  core::ExperimentConfig cfg;
  cfg.cluster.servers = static_cast<int>(a.num("servers", 9));
  cfg.cluster.replicationFactor = static_cast<int>(a.num("rf", 3));
  cfg.workload = ycsb::WorkloadSpec::C(
      static_cast<std::uint64_t>(a.num("records", 1'000'000)));
  cfg.workload.valueBytes =
      static_cast<std::uint32_t>(a.num("value-bytes", 1000));
  cfg.crash.emplace();
  cfg.crash->killAt = sim::secondsF(a.num("kill-at", 5.0));
  cfg.crash->probeClients = a.has("probe-clients");
  cfg.cluster.seed = static_cast<std::uint64_t>(a.num("seed", 42));
  if (a.has("segment-mb")) {
    cfg.cluster.master.log.segmentBytes =
        static_cast<std::uint64_t>(a.num("segment-mb", 8)) * 1024 * 1024;
  }
  cfg.metricsDir = a.str("metrics-dir", "");
  const auto r = core::runExperiment(cfg);
  std::printf(
      "recovered=%s detect=%.2fs replay=%.2fs data=%.2fGB "
      "peakCpu=%.0f%% power=%.1fW energy/node=%.0fJ allKeys=%s\n",
      r.recovered ? "yes" : "NO", sim::toSeconds(r.detectionDelay),
      sim::toSeconds(r.recoveryDuration), r.dataRecoveredGB, r.peakCpuPct,
      r.meanPowerDuringRecoveryW, r.energyPerNodeDuringRecoveryJ,
      r.allKeysRecovered ? "yes" : "NO");
  if (a.has("csv")) {
    std::printf("%s", r.cpuMeanPct.toCsv("cpu_pct").c_str());
    std::printf("%s", r.powerMeanW.toCsv("power_w").c_str());
    std::printf("%s", r.diskReadMBps.toCsv("disk_read_MBps").c_str());
    std::printf("%s", r.diskWriteMBps.toCsv("disk_write_MBps").c_str());
    if (cfg.crash->probeClients) {
      std::printf("%s", r.client1LatencyUs.toCsv("client1_us").c_str());
      std::printf("%s", r.client2LatencyUs.toCsv("client2_us").c_str());
    }
  }
  return r.recovered ? 0 : 1;
}

/// `rcperf top` — live tail-latency display: runs a YCSB experiment with
/// the SLO tracker on and prints, once per simulated second, the
/// in-progress window's per-class quantiles/burn and the hottest tablets
/// (per-tablet op rates from the masters' heat probes). The same numbers a
/// live cluster dashboard would poll, demonstrated against the simulator.
int cmdTop(const Args& a) {
  auto cfg = ycsbConfig(a);
  cfg.client.tenant = a.str("tenant", "ycsb");
  cfg.readSlo = obs::SloTarget{sim::usecF(a.num("read-p99-us", 250)),
                               sim::usecF(a.num("read-p999-us", 1000))};
  cfg.updateSlo = obs::SloTarget{sim::usecF(a.num("update-p99-us", 600)),
                                 sim::usecF(a.num("update-p999-us", 2500))};
  const int heatTop = static_cast<int>(a.num("heat", 5));
  const double qosRate = a.num("qos-rate", 0);

  // The ticker lives in this holder so it survives until the experiment
  // returns (the hook runs inside runExperiment, before load).
  auto ticker = std::make_shared<std::unique_ptr<sim::PeriodicTask>>();
  auto prevHeat = std::make_shared<std::map<std::string, double>>();
  auto prevShed = std::make_shared<std::pair<double, double>>(0.0, 0.0);
  auto prevQos = std::make_shared<std::map<std::string, double>>();
  const std::string tenant = cfg.client.tenant;
  cfg.clusterHook = [ticker, prevHeat, prevShed, prevQos, heatTop, qosRate,
                     tenant](core::Cluster& c) {
    if (qosRate > 0) {
      // Police this tenant's admitted rate per node (docs/WORKLOADS.md).
      server::QosParams qos;
      qos.enabled = true;
      server::QosTenantPolicy p;
      p.name = tenant;
      p.tags = {c.sloTracker().classId(tenant + "/read") + 1,
                c.sloTracker().classId(tenant + "/update") + 1};
      p.ratePerSec = qosRate;
      qos.tenants.push_back(std::move(p));
      c.configureQos(qos);
    }
    *ticker = std::make_unique<sim::PeriodicTask>(
        c.sim(), sim::seconds(1),
        [&c, prevHeat, prevShed, prevQos, heatTop](sim::SimTime now) {
          std::printf("-- t=%.0fs --------------------------------------\n",
                      sim::toSeconds(now));
          std::printf("%-16s %10s %9s %9s %9s %7s\n", "class", "count",
                      "p50_us", "p99_us", "p999_us", "burn");
          for (const auto& lc : c.sloTracker().liveSnapshot()) {
            std::printf("%-16s %10llu %9.1f %9.1f %9.1f %7.2f\n",
                        lc.cls.c_str(),
                        static_cast<unsigned long long>(lc.count),
                        sim::toMicros(lc.p50), sim::toMicros(lc.p99),
                        sim::toMicros(lc.p999), lc.burnRate);
          }
          // Tablet heat: windowed rate of the masters' cumulative
          // per-tablet op counters, hottest first.
          std::vector<std::pair<double, std::string>> hot;
          std::map<std::string, double> cur;
          c.metrics().forEach([&](const obs::MetricInfo& info) {
            if (info.name.find(".tablet.heat.") == std::string::npos) return;
            const double v = c.metrics().value(info.name);
            cur[info.name] = v;
            const auto it = prevHeat->find(info.name);
            const double rate = v - (it == prevHeat->end() ? 0.0 : it->second);
            if (rate > 0) hot.emplace_back(rate, info.name);
          });
          *prevHeat = std::move(cur);
          std::sort(hot.begin(), hot.end(),
                    [](const auto& x, const auto& y) {
                      return x.first != y.first ? x.first > y.first
                                                : x.second < y.second;
                    });
          for (int i = 0; i < heatTop && i < static_cast<int>(hot.size());
               ++i) {
            std::printf("  heat %-52s %9.0f op/s\n", hot[i].second.c_str(),
                        hot[i].first);
          }
          // Live power: trailing-window watts per node (the latest PDU
          // sample; side-effect-free reads) plus the run's cumulative
          // cluster efficiency.
          double clusterW = 0;
          std::printf("  watts:");
          for (int i = 0; i < c.serverCount(); ++i) {
            const double w = c.server(i).node->currentWatts();
            clusterW += w;
            if (i < 8) {
              std::printf(" n%d=%.0f", c.serverNodeId(i), w);
            }
          }
          if (c.serverCount() > 8) std::printf(" ...");
          std::printf("  cluster=%.0fW  %.1f op/J\n", clusterW,
                      c.metrics().value("cluster.energy.ops_per_joule"));
          // Overload: windowed shed/bounce rates plus who is shedding
          // right now (docs/OVERLOAD.md). Quiet runs print nothing.
          const double shed = c.metrics().value("cluster.shed_requests");
          const double bounced =
              c.metrics().value("net.rpc.overloaded.total");
          const double shedRate = shed - prevShed->first;
          const double bounceRate = bounced - prevShed->second;
          *prevShed = {shed, bounced};
          if (shedRate > 0 || bounceRate > 0 || c.sheddingServers() > 0) {
            std::printf("  shed: %7.0f req/s  bounced %7.0f rpc/s  "
                        "overloaded-servers %d/%d  (total shed %.0f)\n",
                        shedRate, bounceRate, c.sheddingServers(),
                        c.serverCount(), shed);
          }
          // Per-tenant QoS: windowed offered-vs-admitted rate per policy
          // from the cluster.qos.<tenant>.* aggregates (docs/WORKLOADS.md).
          // Runs without configureQos have no such metrics and stay quiet.
          std::map<std::string, std::array<double, 3>> qosRates;
          c.metrics().forEach([&](const obs::MetricInfo& info) {
            const auto pos = info.name.find("cluster.qos.");
            if (pos != 0) return;
            const auto dot = info.name.rfind('.');
            const std::string which = info.name.substr(dot + 1);
            int idx = which == "offered" ? 0
                      : which == "admitted" ? 1
                      : which == "throttled" ? 2 : -1;
            if (idx < 0) return;
            const std::string who =
                info.name.substr(12, dot - 12);  // after "cluster.qos."
            const double v = c.metrics().value(info.name);
            const auto it = prevQos->find(info.name);
            const double prev = it == prevQos->end() ? 0.0 : it->second;
            (*prevQos)[info.name] = v;
            qosRates[who][static_cast<std::size_t>(idx)] = v - prev;
          });
          for (const auto& [who, r] : qosRates) {
            if (r[0] <= 0 && r[2] <= 0) continue;
            std::printf("  qos %-12s offered %7.0f/s  admitted %7.0f/s  "
                        "throttled %7.0f/s\n", who.c_str(), r[0], r[1], r[2]);
          }
        });
  };

  const auto r = core::runExperiment(cfg);
  ticker->reset();
  std::printf("\n");
  printYcsbRow(cfg, r, false);
  std::printf("  slo: %llu windows, %llu breached (full rows: run with "
              "--metrics-dir and `rcdiag slo DIR`)\n",
              static_cast<unsigned long long>(r.sloWindows.size()),
              static_cast<unsigned long long>(r.sloBreachedWindows));
  return r.crashed ? 1 : 0;
}

void usage() {
  std::puts(
      "rcperf — simulated-RAMCloud experiment runner\n"
      "\n"
      "  rcperf ycsb     [--servers N] [--clients N] [--rf N]\n"
      "                  [--workload A|B|C|D|F] [--dist uniform|zipfian|latest]\n"
      "                  [--records N] [--value-bytes N] [--throttle OPS]\n"
      "                  [--warmup S] [--measure S] [--seed N] [--csv]\n"
      "                  [--metrics-dir DIR]  (dump metrics.jsonl +\n"
      "                  aligned 1 Hz series.csv + RPC stage breakdown)\n"
      "  rcperf sweep P  --values v1,v2,...   (P = rf|servers|clients;\n"
      "                  remaining flags as for ycsb)\n"
      "  rcperf recovery [--servers N] [--rf N] [--records N] [--kill-at S]\n"
      "                  [--segment-mb N] [--probe-clients] [--seed N] [--csv]\n"
      "                  [--metrics-dir DIR]  (also writes events.jsonl —\n"
      "                  the recovery span tree; analyze with rcdiag)\n"
      "  rcperf top      [ycsb flags] [--tenant NAME] [--qos-rate OPS]\n"
      "                  [--read-p99-us N] [--read-p999-us N]\n"
      "                  [--update-p99-us N] [--update-p999-us N] [--heat N]\n"
      "                  (live mode: 1 Hz per-class tail quantiles + burn\n"
      "                  rate, hottest tablets, per-node watts, cluster\n"
      "                  ops/joule, shed/overload rates, and per-tenant QoS\n"
      "                  offered-vs-admitted rates while the run progresses;\n"
      "                  --qos-rate caps the tenant's admitted rate per node\n"
      "                  with a dispatch token bucket; docs/SLO.md,\n"
      "                  docs/ENERGY.md, docs/OVERLOAD.md,\n"
      "                  docs/WORKLOADS.md)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "ycsb") return cmdYcsb(Args::parse(argc, argv, 2));
  if (cmd == "top") return cmdTop(Args::parse(argc, argv, 2));
  if (cmd == "recovery") return cmdRecovery(Args::parse(argc, argv, 2));
  if (cmd == "sweep" && argc >= 3) {
    return cmdSweep(Args::parse(argc, argv, 3), argv[2]);
  }
  usage();
  return 2;
}
