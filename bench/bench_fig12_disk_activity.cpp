// Figure 12: total aggregated disk activity (read and write) of 9 nodes
// during crash recovery.
//
// Paper: a modest read bump right after the crash (backups loading the
// dead master's segments), then a much larger write surge (re-replication
// of the recovered data) overlapping the reads until recovery ends — the
// disk contention behind Finding 6.

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Fig. 12 — aggregated disk I/O during crash-recovery",
                "Taleb et al., ICDCS'17, Fig. 12, Finding 6");

  core::ExperimentConfig cfg;
  cfg.cluster.servers = 9;
  cfg.cluster.replicationFactor = 3;
  cfg.workload = ycsb::WorkloadSpec::C(opt.recoveryRecords());
  cfg.crash.emplace();
  cfg.crash->killAt = sim::seconds(5);
  cfg.crash->settleAfter = sim::seconds(4);
  cfg.cluster.seed = opt.seed;
  // At quick scale the lost data is under one 8 MB segment per recovery
  // master, so the fetch/replay pipeline the paper's overlap comes from
  // degenerates to a single read-then-write handoff. Shrink the segments
  // so each master still alternates segment reads with re-replication
  // writes, and sample finer than 1 s to resolve it.
  if (opt.scale == bench::Options::Scale::kQuick) {
    cfg.cluster.master.log.segmentBytes = 1 * 1024 * 1024;
  }
  cfg.crash->sampleEvery = opt.recoverySampleEvery();
  const double bucketS = sim::toSeconds(cfg.crash->sampleEvery);
  const auto r = core::runExperiment(cfg);

  core::TableFormatter t({"t (s)", "read (MB/s)", "write (MB/s)"});
  const auto& rd = r.diskReadMBps.points();
  const auto& wr = r.diskWriteMBps.points();
  for (std::size_t i = 0; i < rd.size() && i < wr.size(); ++i) {
    if (rd[i].value < 0.01 && wr[i].value < 0.01) continue;  // idle rows
    t.addRow({core::TableFormatter::num(sim::toSeconds(rd[i].time), 1),
              core::TableFormatter::num(rd[i].value, 1),
              core::TableFormatter::num(wr[i].value, 1)});
  }
  t.print();
  if (opt.csv) {
    std::printf("%s\n", r.diskReadMBps.toCsv("read_MBps").c_str());
    std::printf("%s\n", r.diskWriteMBps.toCsv("write_MBps").c_str());
  }

  // Aggregate over the recovery window.
  const sim::SimTime t0 = r.killTime;
  const sim::SimTime t1 =
      r.killTime + r.detectionDelay + r.recoveryDuration + sim::seconds(1);
  // Series points are MB/s per bucket; multiply by the bucket width to
  // integrate back to megabytes.
  double readTotal = 0;
  double writeTotal = 0;
  for (const auto& p : rd) {
    if (p.time >= t0 && p.time <= t1) readTotal += p.value * bucketS;
  }
  for (const auto& p : wr) {
    if (p.time >= t0 && p.time <= t1) writeTotal += p.value * bucketS;
  }
  const double dataMB = r.dataRecoveredGB * 1024;
  std::printf("\ntotals over recovery: read %.0f MB, written %.0f MB "
              "(lost data: %.0f MB, rf=3)\n\n",
              readTotal, writeTotal, dataMB);

  bench::Verdict v;
  v.check(r.recovered, "recovery completed");
  v.check(r.diskReadMBps.maxValue() > 1,
          "read activity right after the crash (backups load segments)");
  v.check(writeTotal > 1.8 * readTotal,
          "write volume dominates (re-replication at rf=3: ~3x the reads)");
  v.check(core::within(readTotal / dataMB, 0.5, 1.6),
          "reads ~= one pass over the lost data");
  v.check(core::within(writeTotal / dataMB, 2.0, 4.2),
          "writes ~= rf passes over the lost data");
  // Reads and writes overlap in time (the contention of Finding 6).
  int overlapBuckets = 0;
  for (std::size_t i = 0; i < rd.size() && i < wr.size(); ++i) {
    if (rd[i].value > 0.5 && wr[i].value > 0.5) ++overlapBuckets;
  }
  v.check(overlapBuckets >= 2, "read and write activity overlap");

  // Journal shape: the read bump is the surviving backups loading the
  // dead master's on-disk segments — every segment_read span sits on a
  // live backup node inside the recovery window.
  int reads = 0;
  bool readsOk = true;
  for (const auto& s : r.spans) {
    if (s.name != "segment_read") continue;
    ++reads;
    readsOk &= !s.open && !s.abandoned && s.node != r.victimNodeId &&
               s.begin >= r.killTime &&
               s.end <= r.recoveryEndTime + sim::seconds(1);
  }
  v.check(reads >= 1,
          "backups emit segment_read spans (disk load of lost segments)");
  v.check(readsOk,
          "segment_read spans sit on surviving backups within the "
          "recovery window");
  v.check(bench::spanBytes(r.spans, "rereplication") > 0,
          "re-replication spans carry the recovered bytes");
  return v.exitCode();
}
