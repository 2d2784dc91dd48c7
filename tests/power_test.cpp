// Dedicated tests for the power/energy substrate: efficiency metrics, PDU
// sampling windows, suspension accounting.

#include <gtest/gtest.h>

#include "node/node.hpp"
#include "power/pdu.hpp"
#include "power/power_model.hpp"

namespace rc::power {
namespace {

using sim::msec;
using sim::seconds;

TEST(Efficiency, OpsPerJoule) {
  EXPECT_DOUBLE_EQ(efficiency::opsPerJoule(372'000, 122.0), 372'000 / 122.0);
  EXPECT_DOUBLE_EQ(efficiency::opsPerJoule(100, 0), 0);
}

TEST(Efficiency, PaperFig8Definition) {
  // The paper's rf=1 / 40-server point: 237 Kop/s at 103 W/node = 2.3 Kop/J.
  EXPECT_NEAR(efficiency::opsPerJoulePerNode(237'000, 103.0), 2300, 10);
}

TEST(PduSampler, CoversWindowsBackToBack) {
  sim::Simulation sim;
  // Energy callback: 0.5 utilisation in even windows, idle in odd ones.
  int call = 0;
  PduSampler pdu(sim, [&call](sim::SimTime from, sim::SimTime to) {
    const double u = (call++ % 2 == 0) ? 0.5 : 0.0;
    return fittedJoules(u, sim::toSeconds(to - from));
  });
  sim.runUntil(seconds(4) + msec(1));
  ASSERT_EQ(pdu.trace().size(), 4u);
  EXPECT_NEAR(pdu.trace().points()[0].value, fittedWatts(0.5), 1e-9);
  EXPECT_NEAR(pdu.trace().points()[1].value, fittedWatts(0.0), 1e-9);
  // Sampled energy = sum of sample * covered window = continuous integral.
  const double expect = 2 * fittedWatts(0.5) + 2 * fittedWatts(0.0);
  EXPECT_NEAR(pdu.sampledEnergyJoules(0, seconds(4)), expect, 1e-6);
  EXPECT_NEAR(pdu.totalSampledJoules(), expect, 1e-9);
}

TEST(PduSampler, StopTakesFinalFractionalSample) {
  sim::Simulation sim;
  // Constant 100 W node.
  PduSampler pdu(sim, [](sim::SimTime from, sim::SimTime to) {
    return 100.0 * sim::toSeconds(to - from);
  });
  sim.runUntil(seconds(2) + msec(500));
  pdu.stop();
  EXPECT_TRUE(pdu.stopped());
  sim.runUntil(seconds(10));
  // Samples at 1 s, 2 s, plus the fractional 0.5 s window stop() took;
  // nothing accrues after stop.
  ASSERT_EQ(pdu.trace().size(), 3u);
  EXPECT_NEAR(pdu.trace().points()[2].value, 100.0, 1e-9);
  EXPECT_NEAR(pdu.totalSampledJoules(), 100.0 * 2.5, 1e-6);
  // Full-trace window query reproduces the integral despite the short
  // final window (the 0.1 % reconciliation gate relies on this).
  EXPECT_NEAR(pdu.sampledEnergyJoules(0, seconds(10)), 250.0, 1e-6);
}

TEST(PduSampler, StopIsIdempotent) {
  sim::Simulation sim;
  PduSampler pdu(sim, [](sim::SimTime from, sim::SimTime to) {
    return 50.0 * sim::toSeconds(to - from);
  });
  sim.runUntil(seconds(1) + msec(250));
  pdu.stop();
  const double j = pdu.totalSampledJoules();
  const std::size_t points = pdu.trace().size();
  pdu.stop();
  pdu.stop();
  EXPECT_DOUBLE_EQ(pdu.totalSampledJoules(), j);
  EXPECT_EQ(pdu.trace().size(), points);
  EXPECT_NEAR(j, 50.0 * 1.25, 1e-6);
}

TEST(PduSampler, MidWindowStopReconcilesWithContinuousIntegral) {
  sim::Simulation sim;
  node::NodeParams p;
  node::Node n(sim, 1, p);
  n.startProcess();
  n.startPduSampling();
  ASSERT_NE(n.pduBaseline(), nullptr);
  // Stop mid-window: the final sample covers the 0.7 s fraction.
  sim.runUntil(seconds(3) + msec(700));
  n.stopPduSampling();
  const double continuous =
      n.energyJoulesSince(*n.pduBaseline(), sim.now());
  EXPECT_NEAR(n.pdu()->totalSampledJoules(), continuous, 1e-6);
  EXPECT_NEAR(n.pdu()->sampledEnergyJoules(0, sim.now()), continuous, 1e-6);
}

TEST(NodePowerModel, StaticsSumToFittedIntercept) {
  EXPECT_DOUBLE_EQ(kStaticWatts, 60.5);
  EXPECT_DOUBLE_EQ(kStaticWatts, kIdleWatts);
  double sum = 0;
  for (std::size_t c = 0; c < kComponentCount; ++c) {
    sum += staticComponentWatts(static_cast<Component>(c));
  }
  EXPECT_DOUBLE_EQ(sum, 60.5);
}

TEST(NodePowerModel, ComponentSumWithinCalibrationGate) {
  // The per-resource decomposition must stay within 2 % of the fitted
  // whole-node curve P(u) = 60.5 + 63.4u across the utilisation range.
  for (double u = 0; u <= 1.0; u += 0.05) {
    const double component = componentWatts(u);
    const double reference = fittedWatts(u);
    EXPECT_NEAR(component, reference, 0.02 * reference) << "u=" << u;
  }
}

TEST(NodePowerModel, EventEnergiesAreSmallAgainstCpuTerm) {
  // Per-event dynamics at the paper's single-server peak (372 Kop/s of
  // ~130 B RPCs) must stay under ~1 W so calibration holds.
  const double nicW = 372'000 * nicJoules(130);
  const double dramW = 372'000 * dramJoules(130);
  EXPECT_LT(nicW, 1.0);
  EXPECT_LT(dramW, 0.1);
}

TEST(NodePower, SuspensionWindowMixesCorrectly) {
  sim::Simulation sim;
  node::NodeParams p;
  node::Node n(sim, 1, p);
  n.startProcess();
  const auto snap = n.snapshotPower();
  // 5 s running idle (polling core), then 5 s suspended.
  sim.runUntil(seconds(5));
  n.suspendMachine();
  sim.runUntil(seconds(10));
  const double j = n.energyJoulesSince(snap, sim.now());
  const double expect = fittedWatts(0.25) * 5 + node::kSuspendedWatts * 5;
  EXPECT_NEAR(j, expect, 1.0);
  EXPECT_NEAR(n.meanWattsSince(snap, sim.now()), expect / 10, 0.2);
}

TEST(NodePower, ResumeRestoresActiveAccounting) {
  sim::Simulation sim;
  node::NodeParams p;
  node::Node n(sim, 1, p);
  n.startProcess();
  n.suspendMachine();
  sim.runUntil(seconds(5));
  n.resumeMachine();
  EXPECT_TRUE(n.processRunning());
  const auto snap = n.snapshotPower();
  sim.runUntil(seconds(10));
  EXPECT_NEAR(n.meanWattsSince(snap, sim.now()), fittedWatts(0.25), 0.5);
}

TEST(NodePower, SuspendedDrawsSmallFractionOfIdle) {
  EXPECT_LT(node::kSuspendedWatts * 5, kIdleWatts);
}

}  // namespace
}  // namespace rc::power
