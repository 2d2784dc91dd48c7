// Figure 1: aggregated read-only throughput (a) and average power per
// server (b) as a function of cluster size and client count.
//
// Paper reference points (Grid'5000 Nancy nodes):
//   1 server saturates at ~372 Kop/s with 30 clients;
//   5 servers scale linearly with clients; 10 servers add nothing at 30
//   clients (client-limited);
//   power: ~92 W at 1 client, ~122-127 W at 10 and 30 clients — the same
//   watts for very different throughputs (Finding 1).

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Fig. 1 — peak read-only throughput and power",
                "Taleb et al., ICDCS'17, Fig. 1a/1b, Finding 1");

  const std::uint64_t records =
      opt.scale == bench::Options::Scale::kFull ? 5'000'000 : 500'000;

  struct Cell {
    double kops = 0;
    double watts = 0;
  };
  const int serverCounts[] = {1, 5, 10};
  const int clientCounts[] = {1, 10, 30};
  Cell grid[3][3];

  for (int si = 0; si < 3; ++si) {
    for (int ci = 0; ci < 3; ++ci) {
      core::ExperimentConfig cfg;
      cfg.cluster.servers = serverCounts[si];
      cfg.cluster.clients = clientCounts[ci];
      cfg.workload = ycsb::WorkloadSpec::C(records);
      cfg.cluster.seed = opt.seed;
      cfg.timeScale = opt.timeScale();
      const auto r = core::runExperiment(cfg);
      grid[si][ci] = Cell{r.throughputOpsPerSec / 1e3, r.meanPowerPerServerW};
    }
  }

  std::printf("\n(a) Aggregated throughput (Kop/s)\n");
  core::TableFormatter ta({"servers \\ clients", "1", "10", "30"});
  std::printf("(b) Average power per server (W)\n\n");
  core::TableFormatter tb({"servers \\ clients", "1", "10", "30"});
  for (int si = 0; si < 3; ++si) {
    std::vector<std::string> ra{std::to_string(serverCounts[si])};
    std::vector<std::string> rb{std::to_string(serverCounts[si])};
    for (int ci = 0; ci < 3; ++ci) {
      ra.push_back(core::TableFormatter::num(grid[si][ci].kops, 0) + "K");
      rb.push_back(core::TableFormatter::num(grid[si][ci].watts, 1));
    }
    ta.addRow(ra);
    tb.addRow(rb);
  }
  std::printf("(a) throughput:\n");
  ta.print();
  std::printf("(b) power:\n");
  tb.print();

  bench::Verdict v;
  v.check(core::within(grid[0][2].kops, 280, 460),
          "single-server read peak ~372 Kop/s (paper: 372K)");
  v.check(grid[1][2].kops > 1.8 * grid[0][2].kops,
          "5 servers scale read throughput well past 1 server at 30 clients");
  v.check(std::abs(grid[2][2].kops - grid[1][2].kops) <
              0.15 * grid[1][2].kops,
          "10 servers add nothing over 5 at 30 clients (client-limited)");
  v.check(core::within(grid[0][0].watts, 88, 97),
          "1 server / 1 client draws ~92 W");
  v.check(core::within(grid[0][1].watts, 117, 128) &&
              core::within(grid[0][2].watts, 117, 128),
          "1 server draws ~122-127 W at 10 and 30 clients");
  v.check(std::abs(grid[0][1].watts - grid[0][2].watts) < 4.0,
          "same power for different throughput (non-proportionality)");
  return v.exitCode();
}
