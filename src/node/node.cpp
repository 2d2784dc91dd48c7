#include "node/node.hpp"

#include <memory>

namespace rc::node {

Node::Node(sim::Simulation& sim, NodeId id, NodeParams params)
    : sim_(sim),
      id_(id),
      params_(params),
      cpu_(sim, params.cpu),
      disk_(sim, params.disk) {
  suspendedTime_.set(sim_.now(), 0);
  installChargeHooks();
}

void Node::installChargeHooks() {
  cpu_.setChargeMeter(&meter_, power::kCpuActiveWattsPerCore);
  disk_.setChargeMeter(&meter_, power::kDiskActiveWatts);
}

void Node::setEnergyMetering(bool on) {
  meter_.setEnabled(on);
  if (on) {
    installChargeHooks();
  } else {
    cpu_.setChargeMeter(nullptr, 0);
    disk_.setChargeMeter(nullptr, 0);
  }
}

void Node::startProcess() {
  cpu_.powerOn();
  disk_.powerOn();
}

void Node::crashProcess() {
  cpu_.powerOff();
  disk_.powerOff();
}

void Node::suspendMachine() {
  if (suspended_) return;
  crashProcess();
  suspended_ = true;
  suspendedTime_.set(sim_.now(), 1);
}

void Node::resumeMachine() {
  if (!suspended_) return;
  suspended_ = false;
  suspendedTime_.set(sim_.now(), 0);
  startProcess();
}

Node::PowerSnapshot Node::snapshotPower() const {
  PowerSnapshot s;
  s.cpu = cpu_.snapshot();
  s.suspendedSeconds = suspendedTime_.integralTo(sim_.now());
  s.diskBusySeconds = disk_.busySeconds(sim_.now());
  s.meterJoules = meter_.componentTotals();
  return s;
}

std::array<double, power::kComponentCount> Node::componentEnergySince(
    const PowerSnapshot& s, sim::SimTime t) const {
  std::array<double, power::kComponentCount> out{};
  if (t <= s.cpu.time) return out;
  const double wall = sim::toSeconds(t - s.cpu.time);
  const double susp = suspendedTime_.integralTo(t) - s.suspendedSeconds;
  const double active = wall - susp;
  // While suspended the CPU integrator is flat, so utilisation underestimates
  // the active-period value by active/wall; energy uses core-seconds directly
  // to stay exact (the suspended machine draws kSuspendedWatts, all platform).
  const double u = cpu_.utilisationSince(s.cpu, t);
  const double coreSeconds = u * wall * params_.cpu.cores;
  const double diskBusy = disk_.busySeconds(t) - s.diskBusySeconds;
  const auto meterNow = meter_.componentTotals();
  const auto dynSince = [&](power::Component c) {
    return meterNow[static_cast<std::size_t>(c)] -
           s.meterJoules[static_cast<std::size_t>(c)];
  };
  out[static_cast<std::size_t>(power::Component::kCpu)] =
      power::kCpuIdleWatts * active +
      power::kCpuActiveWattsPerCore * coreSeconds;
  out[static_cast<std::size_t>(power::Component::kDram)] =
      power::kDramStaticWatts * active + dynSince(power::Component::kDram);
  out[static_cast<std::size_t>(power::Component::kNic)] =
      power::kNicIdleWatts * active + dynSince(power::Component::kNic);
  out[static_cast<std::size_t>(power::Component::kDisk)] =
      power::kDiskSpindleWatts * active + power::kDiskActiveWatts * diskBusy;
  out[static_cast<std::size_t>(power::Component::kPlatform)] =
      power::kPlatformWatts * active + kSuspendedWatts * susp;
  return out;
}

double Node::energyJoulesSince(const PowerSnapshot& s, sim::SimTime t) const {
  const auto by = componentEnergySince(s, t);
  double j = 0;
  for (double c : by) j += c;
  return j;
}

double Node::meanWattsSince(const PowerSnapshot& s, sim::SimTime t) const {
  if (t <= s.cpu.time) return 0;
  return energyJoulesSince(s, t) / sim::toSeconds(t - s.cpu.time);
}

void Node::startPduSampling() {
  if (!params_.metered || pdu_) return;
  // The sampler pulls the energy delta over each elapsed interval; the
  // lambda keeps its own rolling snapshot, advanced once per sample, so the
  // sum of samples is the continuous integral from the baseline.
  pduBaseline_ = std::make_unique<PowerSnapshot>(snapshotPower());
  auto snap = std::make_shared<PowerSnapshot>(*pduBaseline_);
  pdu_ = std::make_unique<power::PduSampler>(
      sim_, [this, snap](sim::SimTime /*from*/, sim::SimTime to) {
        const double j = energyJoulesSince(*snap, to);
        *snap = snapshotPower();
        return j;
      });
}

void Node::stopPduSampling() {
  if (pdu_) pdu_->stop();
}

double Node::energyJoulesSince(const CpuScheduler::Snapshot& s,
                               sim::SimTime t) const {
  if (t <= s.time) return 0;
  const double u = cpu_.utilisationSince(s, t);
  return power::fittedJoules(u, sim::toSeconds(t - s.time));
}

void Node::registerMetrics(obs::MetricRegistry& reg,
                           const std::string& prefix) {
  // cpu.util and power.watts report the mean over the elapsed window since
  // the previous probe call. The StatsSampler probes once per 1 Hz tick, so
  // these land on exactly the ticks (and values) the PDU sampler reports.
  auto cpuSnap = std::make_shared<CpuScheduler::Snapshot>(cpu_.snapshot());
  reg.probeGauge(prefix + ".cpu.util", "ratio", [this, cpuSnap] {
    const double u = cpu_.utilisationSince(*cpuSnap, sim_.now());
    *cpuSnap = cpu_.snapshot();
    return u;
  });
  auto pwrSnap = std::make_shared<PowerSnapshot>(snapshotPower());
  reg.probeGauge(prefix + ".power.watts", "watts", [this, pwrSnap] {
    const double w = meanWattsSince(*pwrSnap, sim_.now());
    *pwrSnap = snapshotPower();
    return w;
  });
  // Cumulative per-component joules from a fixed origin: monotone counters
  // whose sampler .rate series are the per-component watts timelines that
  // `rcdiag energy` stacks (docs/ENERGY.md).
  auto energyBase = std::make_shared<PowerSnapshot>(snapshotPower());
  for (std::size_t c = 0; c < power::kComponentCount; ++c) {
    const auto comp = static_cast<power::Component>(c);
    reg.probeCounter(
        prefix + ".energy." + power::componentName(comp) + ".joules",
        "joules", [this, energyBase, c] {
          return componentEnergySince(*energyBase, sim_.now())[c];
        });
  }
  reg.probeGauge(prefix + ".cpu.busy_workers", "items", [this] {
    return static_cast<double>(cpu_.busyWorkers());
  });
  reg.probeGauge(prefix + ".cpu.queued_requests", "items", [this] {
    return static_cast<double>(cpu_.queuedRequests());
  });
  reg.probeCounter(prefix + ".disk.read_bytes", "bytes", [this] {
    return static_cast<double>(disk_.bytesRead());
  });
  reg.probeCounter(prefix + ".disk.write_bytes", "bytes", [this] {
    return static_cast<double>(disk_.bytesWritten());
  });
  reg.probeGauge(prefix + ".disk.queue_depth", "items", [this] {
    return static_cast<double>(disk_.queueDepth());
  });
  reg.probeGauge(prefix + ".suspended", "ratio",
                 [this] { return suspended_ ? 1.0 : 0.0; });
}

double Node::currentWatts() const {
  if (suspended_) return kSuspendedWatts;
  if (pdu_ && !pdu_->trace().empty()) {
    return pdu_->trace().points().back().value;
  }
  return power::kStaticWatts;
}

}  // namespace rc::node
