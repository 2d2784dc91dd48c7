// Network ablation: Infiniband vs Gigabit Ethernet transport.
//
// The paper uses RAMCloud's Infiniband transport exclusively and cites a
// companion study (Taleb et al., hal-01376923) for the network's impact on
// performance and energy efficiency. This bench quantifies that choice on
// our substrate: kernel-TCP GigE multiplies small-RPC latency and caps
// per-client closed-loop rates.

#include <cstdio>

#include "bench_common.hpp"
#include "core/experiment.hpp"

using namespace rc;

namespace {

struct Result {
  double kops;
  double readLatUs;
  double opsPerJoule;
};

Result run(net::TransportParams transport, const bench::Options& opt) {
  core::ExperimentConfig cfg;
  cfg.cluster.servers = 5;
  cfg.cluster.clients = 10;
  cfg.cluster.seed = opt.seed;
  cfg.cluster.transport = transport;
  // Windows scale relative to the default 0.4 (timeScale stays 1).
  cfg.warmup = static_cast<sim::Duration>(
      static_cast<double>(sim::seconds(1)) * opt.timeScale() / 0.4);
  cfg.measure = static_cast<sim::Duration>(
      static_cast<double>(sim::seconds(4)) * opt.timeScale() / 0.4);
  const auto x = core::runExperiment(cfg);

  Result r;
  r.kops = x.throughputOpsPerSec / 1e3;
  r.readLatUs = x.readMeanLatencyUs;
  r.opsPerJoule = r.kops * 1e3 / x.curvePowerW;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::banner("Ablation — Infiniband vs Gigabit Ethernet transport",
                "Taleb et al., ICDCS'17, SS III-B (transport choice) & [24]");

  const Result ib = run(net::TransportParams::infiniband(), opt);
  const Result eth = run(net::TransportParams::gigabitEthernet(), opt);

  core::TableFormatter t({"transport", "throughput (Kop/s)",
                          "read latency (us)", "op/J"});
  t.addRow({"Infiniband-20G", core::TableFormatter::num(ib.kops, 0) + "K",
            core::TableFormatter::num(ib.readLatUs, 1),
            core::TableFormatter::num(ib.opsPerJoule, 0)});
  t.addRow({"Gigabit Ethernet", core::TableFormatter::num(eth.kops, 0) + "K",
            core::TableFormatter::num(eth.readLatUs, 1),
            core::TableFormatter::num(eth.opsPerJoule, 0)});
  t.print();

  bench::Verdict v;
  v.check(ib.readLatUs < 30, "IB keeps small reads in the ~15 us regime");
  v.check(eth.readLatUs > 3 * ib.readLatUs,
          "kernel-TCP GigE multiplies small-RPC latency");
  v.check(eth.kops < 0.5 * ib.kops,
          "closed-loop throughput collapses accordingly");
  v.check(eth.opsPerJoule < ib.opsPerJoule,
          "and energy efficiency with it (the companion study's point)");
  return v.exitCode();
}
