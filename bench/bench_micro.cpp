// Micro-benchmarks of the substrate data structures (google-benchmark):
// hash-table ops, log appends and entry reads, cleaner passes, DES event
// throughput, zipfian key generation, end-to-end simulated RPCs.

#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "hash/object_map.hpp"
#include "log/cleaner.hpp"
#include "log/log.hpp"
#include "net/rpc.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "ycsb/workload.hpp"

namespace {

using namespace rc;

/// A never-cleaned log holding one 1000-byte object entry per key in
/// [0, keys), and the map's references to them.
struct IndexedLog {
  log::Log log;
  std::vector<log::LogRef> refs;
  explicit IndexedLog(std::uint64_t keys) : log(params()) {
    for (std::uint64_t k = 0; k < keys; ++k) {
      log::LogEntry e;
      e.tableId = 1;
      e.keyId = k;
      e.version = k + 1;
      e.sizeBytes = 1000;
      refs.push_back(log.append(e, 0));
    }
  }
  static log::LogParams params() {
    log::LogParams p;
    p.capacityBytes = 1ULL << 40;
    return p;
  }
};

void BM_ObjectMapPut(benchmark::State& state) {
  IndexedLog il(100000);
  hash::ObjectMap m(il.log);
  std::uint64_t k = 0;
  for (auto _ : state) {
    const std::uint64_t key = k++ % 100000;
    m.put({1, key}, il.refs[key]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjectMapPut);

void BM_ObjectMapGet(benchmark::State& state) {
  IndexedLog il(100000);
  hash::ObjectMap m(il.log);
  for (std::uint64_t k = 0; k < 100000; ++k) m.put({1, k}, il.refs[k]);
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.get({1, k++ % 100000}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjectMapGet);

/// Appends to a log that is rebuilt, untimed, every kAppendsPerLog
/// appends (about nine 8 MB segments), so memory stays flat whatever the
/// iteration count and the time is the appends'.
void BM_LogAppend(benchmark::State& state) {
  constexpr std::uint64_t kAppendsPerLog = 1 << 16;
  log::LogParams p;
  p.segmentBytes = 8 * 1024 * 1024;
  p.capacityBytes = 1ULL << 40;  // never clean
  std::optional<log::Log> lg(std::in_place, p);
  log::LogEntry e;
  e.tableId = 1;
  e.sizeBytes = 1100;
  std::uint64_t n = 0;
  for (auto _ : state) {
    if (n++ == kAppendsPerLog) {
      state.PauseTiming();
      lg.emplace(p);
      n = 1;
      state.ResumeTiming();
    }
    e.keyId = static_cast<std::uint64_t>(state.iterations());
    e.version = e.keyId + 1;
    benchmark::DoNotOptimize(lg->append(e, 0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1100);
}
BENCHMARK(BM_LogAppend);

/// Reads of random entries over many segments (8,388 entries per 8 MB
/// segment): per access, `Log::hotEntry` finds the segment, then the
/// entry's chunk, then the entry. Each read picks the next ref from the
/// entry it read, so reads do not overlap and the time is their latency.
void BM_LogHotEntryRandom(benchmark::State& state) {
  const auto keys = static_cast<std::uint64_t>(state.range(0));
  IndexedLog il(keys);
  sim::Rng rng(7);
  std::vector<log::LogRef> order(1 << 16);
  for (log::LogRef& r : order) r = il.refs[rng.uniformInt(keys)];
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint64_t v = il.log.hotEntry(order[i]).version;
    benchmark::DoNotOptimize(v);
    i = (i + 1 + (v & 1)) & (order.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogHotEntryRandom)->Arg(100'000)->Arg(1'000'000);

void BM_CleanerPass(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    log::LogParams p;
    p.segmentBytes = 64 * 1024;
    p.capacityBytes = 1ULL << 30;
    log::Log lg(p);
    std::vector<log::LogRef> refs;
    log::LogEntry e;
    e.tableId = 1;
    e.sizeBytes = 1000;
    for (int i = 0; i < 128; ++i) {
      e.keyId = static_cast<std::uint64_t>(i);
      e.version = static_cast<std::uint64_t>(i) + 1;
      refs.push_back(lg.append(e, 0));
    }
    lg.sealHead();
    for (std::size_t i = 0; i < refs.size(); i += 2) lg.markDead(refs[i]);
    log::LogCleaner cleaner(lg, nullptr);
    state.ResumeTiming();
    benchmark::DoNotOptimize(cleaner.cleanOnce(sim::seconds(1)));
  }
}
BENCHMARK(BM_CleanerPass);

void BM_SimEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) sim.schedule(100, tick);
    };
    sim.schedule(100, tick);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimEventThroughput);

void BM_ZipfianNext(benchmark::State& state) {
  ycsb::WorkloadSpec s = ycsb::WorkloadSpec::C(1'000'000);
  s.distribution = ycsb::WorkloadSpec::Distribution::kZipfian;
  ycsb::KeyChooser kc(s, sim::Rng(1));
  for (auto _ : state) benchmark::DoNotOptimize(kc.next());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianNext);

void BM_UniformNext(benchmark::State& state) {
  ycsb::KeyChooser kc(ycsb::WorkloadSpec::C(1'000'000), sim::Rng(1));
  for (auto _ : state) benchmark::DoNotOptimize(kc.next());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UniformNext);

class NopService : public net::RpcService {
 public:
  void handleRpc(const net::RpcRequest&, node::NodeId,
                 Responder respond) override {
    respond(net::RpcResponse{});
  }
};

void BM_SimulatedRpcRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    net::Network network(sim, net::TransportParams::infiniband());
    net::RpcSystem rpc(sim, network);
    NopService svc;
    rpc.bind(2, net::kMasterPort, &svc);
    int done = 0;
    std::function<void()> next = [&] {
      if (done >= 1000) return;
      rpc.call(1, 2, net::kMasterPort, net::RpcRequest{}, sim::seconds(1),
               [&](const net::RpcResponse&) {
                 ++done;
                 next();
               });
    };
    next();
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatedRpcRoundTrip);

}  // namespace

BENCHMARK_MAIN();
