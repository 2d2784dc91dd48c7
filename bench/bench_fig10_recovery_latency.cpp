// Figure 10: per-operation latency of two concurrent clients before,
// during and after crash recovery. Client 1 requests exclusively the
// killed server's data; client 2 requests the rest.
//
// Paper: client 1 blocks for the whole recovery (~40 s at rf=4); client
// 2's latency jumps from ~15 us to ~35 us (1.4-2.4x on average) while the
// recovery masters are busy replaying.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Fig. 10 — client latency through crash-recovery",
                "Taleb et al., ICDCS'17, Fig. 10, Finding 5");

  core::ExperimentConfig cfg;
  cfg.cluster.servers = 10;
  cfg.cluster.replicationFactor = 4;
  cfg.workload = ycsb::WorkloadSpec::C(opt.recoveryRecords());
  cfg.crash.emplace();
  cfg.crash->killAt = opt.scale == bench::Options::Scale::kFull ? sim::seconds(60)
                                                         : sim::seconds(10);
  cfg.crash->probeClients = true;
  cfg.cluster.seed = opt.seed;
  cfg.crash->sampleEvery = opt.recoverySampleEvery();
  const auto r = core::runExperiment(cfg);

  core::TableFormatter t({"t (s)", "client 1 (lost data) us",
                          "client 2 (live data) us"});
  // Join the two series on time.
  auto valueAt = [](const sim::TimeSeries& s, sim::SimTime t) -> double {
    for (const auto& p : s.points()) {
      if (p.time == t) return p.value;
    }
    return -1;
  };
  const auto& c2pts = r.client2LatencyUs.points();
  const std::size_t stride = std::max<std::size_t>(1, c2pts.size() / 40);
  for (std::size_t i = 0; i < c2pts.size(); i += stride) {
    const auto& p = c2pts[i];
    const double c1 = valueAt(r.client1LatencyUs, p.time);
    t.addRow({core::TableFormatter::num(sim::toSeconds(p.time), 1),
              c1 < 0 ? "(blocked)" : core::TableFormatter::num(c1, 1),
              core::TableFormatter::num(p.value, 1)});
  }
  t.print();
  if (opt.csv) {
    std::printf("%s\n", r.client1LatencyUs.toCsv("client1_us").c_str());
    std::printf("%s\n", r.client2LatencyUs.toCsv("client2_us").c_str());
  }

  // Client 2's degradation happens while the recovery masters replay —
  // measure the replay window itself, not the detection-idle prefix
  // (which dominates a down-scaled sub-second recovery).
  const sim::SimTime recStart = r.killTime + r.detectionDelay;
  const sim::SimTime recEnd = recStart + r.recoveryDuration;
  const double c2Before =
      r.client2LatencyUs.meanInWindow(sim::seconds(1), r.killTime);
  const double c2During = r.client2LatencyUs.meanInWindow(recStart, recEnd);
  const double c1Before =
      r.client1LatencyUs.meanInWindow(sim::seconds(1), r.killTime);

  // Client 1's blocked op: the single worst operation (the per-second
  // means above dilute it across the ~2000 fast ops of its bucket).
  const double c1MaxUs = r.client1WorstOpUs;

  std::printf("\nclient2 mean latency: %.1f us before, %.1f us during "
              "recovery (%.2fx)\n",
              c2Before, c2During, c2During / c2Before);
  std::printf("client1 worst op: %.2f s (recovery took %.2f s)\n",
              c1MaxUs / 1e6,
              sim::toSeconds(r.detectionDelay + r.recoveryDuration));

  bench::Verdict v;
  v.check(r.recovered, "recovery completed");
  v.check(core::within(c1Before, 8, 40) && core::within(c2Before, 8, 40),
          "pre-crash latency is tens of microseconds");
  v.check(c1MaxUs / 1e6 >
              0.7 * sim::toSeconds(r.detectionDelay + r.recoveryDuration),
          "client 1 blocks for ~the whole recovery (lost data unavailable)");
  v.check(c2During > 1.2 * c2Before,
          "client 2 sees elevated latency during recovery "
          "(paper: 1.4-2.4x)");
  v.check(c2During < 30 * c2Before,
          "client 2 is degraded, not blocked");

  // Journal shape: the root recovery span must agree with the recovery
  // record, and detection must complete before the will lookup starts.
  const auto* root = bench::recoveryRoot(r.spans);
  const double rootS = root ? sim::toSeconds(root->duration()) : 0;
  const double recS = sim::toSeconds(r.recoveryDuration);
  v.check(root != nullptr && !root->open && recS > 0 &&
              core::within(rootS / recS, 0.9, 1.1),
          "journal root span duration matches the recovery record");
  const obs::EventJournal::Span* det = nullptr;
  const obs::EventJournal::Span* wl = nullptr;
  for (const auto& s : r.spans) {
    if (s.name == "failure_detection" && det == nullptr) det = &s;
    if (s.name == "will_lookup" && wl == nullptr) wl = &s;
  }
  v.check(det != nullptr && wl != nullptr && !det->open && !det->abandoned &&
              det->end <= wl->begin,
          "failure detection completes before the will lookup begins");
  return v.exitCode();
}
