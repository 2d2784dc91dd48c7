#pragma once

#include <algorithm>

namespace rc::power {

/// Linear CPU-utilisation -> wall-power model for one server node.
///
/// Stands in for the Grid'5000 per-node PDU wattmeters. The paper's own data
/// shows node power tracking CPU usage almost linearly; we fit the two
/// endpoints the paper reports for the Nancy nodes (Xeon X3440):
///   ~50 % CPU -> 92 W   (Fig. 1b, 1 server / 1 client, Table I: 49.8 %)
///   ~98.5 % CPU -> 122 W (Fig. 1b, 1 server / 10+ clients, Table I: 98.4 %)
/// giving  P(u) = 60.5 W + 63.4 W * u.
inline constexpr double kIdleWatts = 60.5;     ///< powered on, 0 % CPU
inline constexpr double kDynamicWatts = 63.4;  ///< added at 100 % CPU

/// Instantaneous power of the fitted curve at utilisation u in [0,1].
inline double fittedWatts(double utilisation) {
  const double u = std::clamp(utilisation, 0.0, 1.0);
  return kIdleWatts + kDynamicWatts * u;
}

/// Energy in joules for a period of `seconds` at average utilisation u.
inline double fittedJoules(double utilisation, double seconds) {
  return fittedWatts(utilisation) * seconds;
}

/// Energy-efficiency metrics as the paper defines them.
namespace efficiency {

/// Requests served per joule across the whole cluster (paper Fig. 2).
inline double opsPerJoule(double throughputOpsPerSec, double clusterWatts) {
  return clusterWatts > 0 ? throughputOpsPerSec / clusterWatts : 0;
}

/// The paper's Fig. 8 divides *aggregate* throughput by *per-node* power
/// (its RF=1 points only make sense that way: 237 Kop/s / 103 W = 2.3 Kop/J).
/// We reproduce that definition and flag it in EXPERIMENTS.md.
inline double opsPerJoulePerNode(double throughputOpsPerSec,
                                 double perNodeWatts) {
  return perNodeWatts > 0 ? throughputOpsPerSec / perNodeWatts : 0;
}

}  // namespace efficiency
}  // namespace rc::power
