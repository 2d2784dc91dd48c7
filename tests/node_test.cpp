// Unit tests for the CPU scheduler, disk model, node and power substrate.

#include <gtest/gtest.h>

#include "node/cpu_scheduler.hpp"
#include "node/disk.hpp"
#include "node/node.hpp"
#include "power/power_model.hpp"

namespace rc::node {
namespace {

using sim::msec;
using sim::seconds;
using sim::toSeconds;
using sim::usec;

CpuParams quietCpu() {
  CpuParams p;
  p.workerSpinBeforeSleep = 0;  // no spin: exact busy accounting
  p.wakeupLatency = 0;
  return p;
}

TEST(CpuScheduler, PollingCoreBusyWhenOn) {
  sim::Simulation sim;
  CpuScheduler cpu(sim, quietCpu());
  cpu.powerOn();
  auto s = cpu.snapshot();
  sim.runUntil(seconds(4));
  // 1 of 4 cores busy = 25 % — the paper's idle floor (Table I row 0).
  EXPECT_NEAR(cpu.utilisationSince(s, sim.now()), 0.25, 1e-9);
}

TEST(CpuScheduler, OffMeansZeroUtilisation) {
  sim::Simulation sim;
  CpuScheduler cpu(sim, quietCpu());
  auto s = cpu.snapshot();
  sim.runUntil(seconds(1));
  EXPECT_DOUBLE_EQ(cpu.utilisationSince(s, sim.now()), 0.0);
}

TEST(CpuScheduler, RunAccountsBusyTime) {
  sim::Simulation sim;
  CpuScheduler cpu(sim, quietCpu());
  cpu.powerOn();
  auto s = cpu.snapshot();
  bool done = false;
  cpu.run(seconds(1), [&] { done = true; });
  sim.runUntil(seconds(2));
  EXPECT_TRUE(done);
  // poll core 2 s + worker 1 s over 2 s * 4 cores = 3/8.
  EXPECT_NEAR(cpu.utilisationSince(s, sim.now()), 3.0 / 8.0, 1e-9);
}

TEST(CpuScheduler, WorkerPoolLimitsConcurrency) {
  sim::Simulation sim;
  CpuScheduler cpu(sim, quietCpu());
  cpu.powerOn();
  int running = 0;
  int peak = 0;
  for (int i = 0; i < 10; ++i) {
    cpu.acquireWorker([&, i](int w) {
      ++running;
      peak = std::max(peak, running);
      sim.schedule(usec(10), [&, w] {
        --running;
        cpu.releaseWorker(w);
      });
    });
  }
  sim.run();
  EXPECT_EQ(peak, 3);  // 4 cores - 1 polling
  EXPECT_EQ(running, 0);
}

TEST(CpuScheduler, QueuedRequestsRunFifoOnRelease) {
  sim::Simulation sim;
  CpuParams p = quietCpu();
  p.workerThreads = 1;
  p.cores = 2;
  sim::Simulation s2;
  CpuScheduler cpu(sim, p);
  cpu.powerOn();
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    cpu.acquireWorker([&, i](int w) {
      order.push_back(i);
      sim.schedule(usec(5), [&cpu, w] { cpu.releaseWorker(w); });
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CpuScheduler, SpinKeepsWorkerHotThenSleeps) {
  sim::Simulation sim;
  CpuParams p;
  p.workerSpinBeforeSleep = usec(100);
  p.wakeupLatency = 0;
  CpuScheduler cpu(sim, p);
  cpu.powerOn();
  auto s = cpu.snapshot();
  cpu.run(usec(10), [] {});
  sim.runUntil(seconds(1));
  // Poll core + 10 us of work + ~100 us spin tail, then asleep again.
  const double util = cpu.utilisationSince(s, sim.now());
  EXPECT_NEAR(util, 0.25 + (10e-6 + 100e-6) / 4.0, 5e-6);
}

TEST(CpuScheduler, PowerOffDropsQueueAndStopsAccounting) {
  sim::Simulation sim;
  CpuScheduler cpu(sim, quietCpu());
  cpu.powerOn();
  int completions = 0;
  for (int i = 0; i < 5; ++i) {
    cpu.run(seconds(1), [&] { ++completions; });
  }
  sim.runUntil(msec(500));
  cpu.powerOff();
  sim.run();
  EXPECT_EQ(completions, 0);  // all in-flight work died with the process
  auto s = cpu.snapshot();
  sim.runUntil(sim.now() + seconds(1));
  EXPECT_DOUBLE_EQ(cpu.utilisationSince(s, sim.now()), 0.0);
}

TEST(CpuScheduler, EpochChangesOnCrash) {
  sim::Simulation sim;
  CpuScheduler cpu(sim, quietCpu());
  cpu.powerOn();
  const auto e = cpu.epoch();
  cpu.powerOff();
  EXPECT_NE(cpu.epoch(), e);
}

// ----- spin-end ordering contract --------------------------------------------
// A released worker's spin ends at (release + spin, seq reserved at release)
// without an event of its own; these pin that the end still falls exactly
// where a spin-end event would have run.

/// One worker (so the grant shows whether it was still spinning), a 100 us
/// spin and a visible 2 us wakeup. The first grant comes at 2 us, the
/// release at 12 us, so the spin ends at 112 us.
CpuParams oneSpinningWorker() {
  CpuParams p;
  p.cores = 2;
  p.workerThreads = 1;
  p.workerSpinBeforeSleep = usec(100);
  p.wakeupLatency = usec(2);
  return p;
}

struct Grant {
  sim::SimTime at = -1;
  bool synchronous = false;
  bool acquiring = false;
};

/// Acquire from inside an event and note whether the grant was immediate
/// (a spinning worker) or came after the wakeup latency (a sleeping one).
void probeAcquire(sim::Simulation& sim, CpuScheduler& cpu, Grant& g) {
  g.acquiring = true;
  cpu.acquireWorker([&sim, &g](int) {
    g.at = sim.now();
    g.synchronous = g.acquiring;
  });
  g.acquiring = false;
}

TEST(CpuScheduler, AcquireAtSpinEndNsBeforeItsSeqFindsWorkerSpinning) {
  sim::Simulation sim;
  CpuScheduler cpu(sim, oneSpinningWorker());
  cpu.powerOn();
  Grant g;
  // Scheduled before the release, so it sorts ahead of the spin's end.
  sim.scheduleAt(usec(112), [&] { probeAcquire(sim, cpu, g); });
  cpu.acquireWorker([&](int w) {
    sim.schedule(usec(10), [&cpu, w] { cpu.releaseWorker(w); });
  });
  sim.run();
  EXPECT_EQ(g.at, usec(112));
  EXPECT_TRUE(g.synchronous);
}

TEST(CpuScheduler, AcquireAtSpinEndNsAfterItsSeqFindsWorkerAsleep) {
  sim::Simulation sim;
  CpuScheduler cpu(sim, oneSpinningWorker());
  cpu.powerOn();
  Grant g;
  cpu.acquireWorker([&](int w) {
    sim.schedule(usec(10), [&, w] {
      cpu.releaseWorker(w);
      // Scheduled after the release: sorts behind the spin's end.
      sim.schedule(usec(100), [&] { probeAcquire(sim, cpu, g); });
    });
  });
  sim.run();
  EXPECT_EQ(g.at, usec(114));
  EXPECT_FALSE(g.synchronous);
  // Poll core 114 us + worker busy 0..12, spinning 12..112, busy 112..114.
  EXPECT_NEAR(cpu.busyCoreSeconds(sim.now()), (114 + 12 + 100 + 2) * 1e-6,
              1e-12);
}

TEST(CpuScheduler, PowerOffSettlesAnExpiredSpinAtItsEnd) {
  sim::Simulation sim;
  CpuScheduler cpu(sim, oneSpinningWorker());
  cpu.powerOn();
  cpu.acquireWorker([&](int w) {
    sim.schedule(usec(10), [&cpu, w] { cpu.releaseWorker(w); });
  });
  // Nothing touches the scheduler between the spin's end and the crash.
  sim.runUntil(msec(1));
  cpu.powerOff();
  // Poll core 1 ms + worker busy 0..12 us + spinning 12..112 us — the
  // spin must stop counting at 112 us, not at the crash.
  EXPECT_NEAR(cpu.busyCoreSeconds(msec(1)), 1e-3 + 112e-6, 1e-12);
  EXPECT_NEAR(cpu.busyCoreSeconds(msec(2)), 1e-3 + 112e-6, 1e-12);
}

TEST(CpuScheduler, DrainedRunStopsCountingASpinAtItsEnd) {
  sim::Simulation sim;
  CpuScheduler cpu(sim, oneSpinningWorker());
  cpu.powerOn();
  const auto s = cpu.snapshot();
  cpu.acquireWorker([&](int w) {
    sim.schedule(usec(10), [&cpu, w] { cpu.releaseWorker(w); });
  });
  // The release is the last event, so run() stops at 12 us with the spin
  // (ending at 112 us) still unsettled.
  sim.run();
  ASSERT_EQ(sim.now(), usec(12));
  // Poll core to t + worker busy 0..12 us + spinning 12..112 us.
  EXPECT_NEAR(cpu.busyCoreSeconds(usec(60)), 60e-6 + 12e-6 + 48e-6, 1e-12);
  EXPECT_NEAR(cpu.busyCoreSeconds(msec(1)), 1e-3 + 112e-6, 1e-12);
  EXPECT_NEAR(cpu.utilisationSince(s, msec(1)), (1e-3 + 112e-6) / 2e-3,
              1e-9);
  // The spin is still live: an acquire before its end finds it spinning.
  Grant g;
  sim.schedule(usec(50), [&] { probeAcquire(sim, cpu, g); });
  sim.run();
  EXPECT_EQ(g.at, usec(62));
  EXPECT_TRUE(g.synchronous);
}

TEST(Disk, SequentialTransferMatchesBandwidth) {
  sim::Simulation sim;
  DiskParams p;
  p.readMBps = 100;
  p.seekTime = 0;
  Disk disk(sim, p);
  bool done = false;
  disk.read(100'000'000, [&] { done = true; });  // 100 MB at 100 MB/s
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(toSeconds(sim.now()), 1.0, 0.01);
  EXPECT_EQ(disk.bytesRead(), 100'000'000u);
}

TEST(Disk, FirstOpPaysOneSeek) {
  sim::Simulation sim;
  DiskParams p;
  p.readMBps = 100;
  p.seekTime = msec(10);
  Disk disk(sim, p);
  disk.read(1'000'000, [] {});
  sim.run();
  EXPECT_NEAR(toSeconds(sim.now()), 0.02, 0.001);  // 10ms seek + 10ms xfer
}

TEST(Disk, ConcurrentStreamsContend) {
  // One 8 MB stream alone vs. read+write together: the mix must be much
  // slower than bandwidth-only due to per-alternation seeks (Fig. 12).
  DiskParams p;  // defaults: 8+ ms seek, 256 KB chunks

  sim::Simulation alone;
  Disk d1(alone, p);
  d1.read(8'000'000, [] {});
  alone.run();
  const double tAlone = toSeconds(alone.now());

  sim::Simulation mixed;
  Disk d2(mixed, p);
  int done = 0;
  d2.read(8'000'000, [&] { ++done; });
  d2.write(8'000'000, [&] { ++done; });
  mixed.run();
  const double tMixed = toSeconds(mixed.now());
  EXPECT_EQ(done, 2);
  EXPECT_GT(tMixed, 4 * tAlone);  // seek-dominated
}

TEST(Disk, PowerOffDropsQueue) {
  sim::Simulation sim;
  Disk disk(sim, DiskParams{});
  bool done = false;
  disk.write(10'000'000, [&] { done = true; });
  disk.powerOff();
  sim.run();
  EXPECT_FALSE(done);
}

TEST(Disk, TracksReadAndWriteBytesSeparately) {
  sim::Simulation sim;
  Disk disk(sim, DiskParams{});
  disk.read(1000, [] {});
  disk.write(2000, [] {});
  sim.run();
  EXPECT_EQ(disk.bytesRead(), 1000u);
  EXPECT_EQ(disk.bytesWritten(), 2000u);
}

TEST(PowerModel, CalibratedEndpoints) {
  power::PowerModel m;
  // Fitted to the paper: ~50 % CPU -> 92 W, ~98.5 % -> 122 W.
  EXPECT_NEAR(m.watts(0.50), 92.2, 0.5);
  EXPECT_NEAR(m.watts(0.985), 123.0, 1.0);
  EXPECT_NEAR(m.watts(0.25), 76.4, 0.5);  // idle RAMCloud (polling core)
}

TEST(PowerModel, MonotoneAndClamped) {
  power::PowerModel m;
  EXPECT_DOUBLE_EQ(m.watts(-1), m.watts(0));
  EXPECT_DOUBLE_EQ(m.watts(2), m.watts(1));
  double last = 0;
  for (double u = 0; u <= 1.0; u += 0.01) {
    EXPECT_GE(m.watts(u), last);
    last = m.watts(u);
  }
}

TEST(PowerModel, JoulesIsWattsTimesSeconds) {
  power::PowerModel m;
  EXPECT_DOUBLE_EQ(m.joules(0.5, 10), m.watts(0.5) * 10);
}

TEST(Node, PduSamplesOncePerSecond) {
  sim::Simulation sim;
  NodeParams p;
  Node node(sim, 1, p);
  node.startProcess();
  node.startPduSampling();
  sim.runUntil(seconds(10) + msec(1));
  ASSERT_NE(node.pdu(), nullptr);
  EXPECT_EQ(node.pdu()->trace().size(), 10u);
  // Idle process: polling core only -> ~76 W.
  EXPECT_NEAR(node.pdu()->meanWatts(), 76.4, 1.0);
}

TEST(Node, UnmeteredNodeHasNoPdu) {
  sim::Simulation sim;
  NodeParams p;
  p.metered = false;
  Node node(sim, 1, p);
  node.startPduSampling();
  EXPECT_EQ(node.pdu(), nullptr);
}

TEST(Node, EnergyMatchesPowerTimesTime) {
  sim::Simulation sim;
  NodeParams p;
  Node node(sim, 1, p);
  node.startProcess();
  auto s = node.snapshotCpu();
  sim.runUntil(seconds(100));
  // Idle-with-process: P(0.25) for 100 s.
  EXPECT_NEAR(node.energyJoulesSince(s, sim.now()),
              p.power.watts(0.25) * 100.0, 1.0);
}

TEST(Node, CrashDropsToMachineIdlePower) {
  sim::Simulation sim;
  NodeParams p;
  Node node(sim, 1, p);
  node.startProcess();
  node.crashProcess();
  auto s = node.snapshotCpu();
  sim.runUntil(seconds(10));
  EXPECT_NEAR(node.energyJoulesSince(s, sim.now()), p.power.idleWatts * 10,
              0.5);
}

TEST(Node, SampledEnergyAgreesWithContinuous) {
  sim::Simulation sim;
  NodeParams p;
  Node node(sim, 1, p);
  node.startProcess();
  node.startPduSampling();
  auto s = node.snapshotCpu();
  // Some bursty activity.
  for (int i = 0; i < 20; ++i) {
    sim.schedule(msec(100 * i), [&] {
      node.cpu().run(msec(37), [] {});
    });
  }
  sim.runUntil(seconds(10));
  const double exact = node.energyJoulesSince(s, sim.now());
  const double sampled = node.pdu()->sampledEnergyJoules(0, sim.now());
  EXPECT_NEAR(sampled, exact, exact * 0.05);
}

}  // namespace
}  // namespace rc::node
