#include "core/autoscaler.hpp"

#include <algorithm>
#include <map>

namespace rc::core {

Autoscaler::Autoscaler(Cluster& cluster, AutoscalerParams params)
    : cluster_(cluster), params_(params) {
  snaps_.resize(static_cast<std::size_t>(cluster_.serverCount()));
}

Autoscaler::~Autoscaler() = default;

void Autoscaler::start() {
  if (task_) return;
  for (int i = 0; i < cluster_.serverCount(); ++i) {
    snaps_[static_cast<std::size_t>(i)] =
        cluster_.server(i).node->snapshotCpu();
  }
  task_ = std::make_unique<sim::PeriodicTask>(
      cluster_.sim(), params_.interval,
      [this](sim::SimTime now) { tick(now); });
}

void Autoscaler::stop() { task_.reset(); }

void Autoscaler::tick(sim::SimTime now) {
  // Mean CPU across *active* servers over the last interval.
  double cpuSum = 0;
  int active = 0;
  for (int i = 0; i < cluster_.serverCount(); ++i) {
    auto& nd = *cluster_.server(i).node;
    const auto snap = snaps_[static_cast<std::size_t>(i)];
    snaps_[static_cast<std::size_t>(i)] = nd.snapshotCpu();
    if (!cluster_.serverAlive(i)) continue;
    cpuSum += nd.meanUtilisationSince(snap, now);
    ++active;
  }
  if (active == 0) return;
  const double meanCpu = cpuSum / active;
  activeTrace_.add(now, active);

  if (busy_) return;  // one resize at a time

  if (meanCpu > params_.highWaterCpu) {
    coldTicks_ = 0;
    if (++hotTicks_ >= kConfirmTicks) {
      hotTicks_ = 0;
      scaleUp();
    }
  } else if (meanCpu < params_.lowWaterCpu) {
    hotTicks_ = 0;
    if (++coldTicks_ >= kConfirmTicks &&
        active > params_.minActive) {
      coldTicks_ = 0;
      scaleDown();
    }
  } else {
    hotTicks_ = 0;
    coldTicks_ = 0;
  }
}

void Autoscaler::scaleDown() {
  // Drain the active server owning the fewest tablets (cheapest to move).
  int victim = -1;
  std::size_t fewest = ~std::size_t{0};
  for (int i = 0; i < cluster_.serverCount(); ++i) {
    if (!cluster_.serverAlive(i)) continue;
    const auto n = cluster_.coord()
                       .tabletMap()
                       .tabletsOwnedBy(cluster_.serverNodeId(i))
                       .size();
    if (n < fewest) {
      fewest = n;
      victim = i;
    }
  }
  if (victim < 0) return;
  busy_ = true;
  cluster_.drainServer(victim, [this, victim](bool ok) {
    if (ok && cluster_.suspendServer(victim)) ++scaleDowns_;
    busy_ = false;
  });
}

void Autoscaler::scaleUp() {
  int target = -1;
  for (int i = 0; i < cluster_.serverCount(); ++i) {
    if (cluster_.serverSuspended(i)) {
      target = i;
      break;
    }
  }
  if (target < 0) return;  // nothing in standby
  busy_ = true;
  ++scaleUps_;
  cluster_.resumeServer(target);
  rebalanceOnto(target);
}

void Autoscaler::rebalanceOnto(int idx) {
  // Move tablets from the most-loaded owners until `idx` holds a fair
  // share.
  const auto& map = cluster_.coord().tabletMap();
  std::map<server::ServerId, std::vector<server::Tablet>> byOwner;
  std::size_t total = 0;
  for (const auto& e : map.entries()) {
    byOwner[e.tablet.owner].push_back(e.tablet);
    ++total;
  }
  const int active = cluster_.aliveServerCount();
  const std::size_t fairShare =
      active > 0 ? std::max<std::size_t>(1, total / static_cast<std::size_t>(
                                                      active))
                 : 1;

  std::vector<server::Tablet> toMove;
  const node::NodeId dest = cluster_.serverNodeId(idx);
  std::size_t planned = byOwner[dest].size();
  // Greedy: repeatedly take one tablet from the current largest owner.
  while (planned < fairShare) {
    server::ServerId richest = node::kInvalidNode;
    std::size_t most = 0;
    for (const auto& [owner, tablets] : byOwner) {
      if (owner == dest) continue;
      if (tablets.size() > most) {
        most = tablets.size();
        richest = owner;
      }
    }
    if (richest == node::kInvalidNode || most <= 1) break;
    toMove.push_back(byOwner[richest].back());
    byOwner[richest].pop_back();
    ++planned;
  }
  if (toMove.empty()) {
    busy_ = false;
    return;
  }
  auto pending = std::make_shared<int>(static_cast<int>(toMove.size()));
  for (const auto& t : toMove) {
    cluster_.migrateTablet(t, idx, [this, pending](bool) {
      if (--*pending == 0) busy_ = false;
    });
  }
}

}  // namespace rc::core
