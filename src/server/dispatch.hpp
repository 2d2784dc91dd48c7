#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metric_registry.hpp"
#include "sim/inline_task.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "sim/token_bucket.hpp"

namespace rc::server {

/// Admission control at the dispatch queue (CoDel-style): requests are shed
/// with kOverloaded — cheap to reject, one dispatch poll, no worker — when
/// the load estimate has stayed above target for a sustained interval. The
/// load estimate is max(dispatch backlog, peak-hold EWMA of recent request
/// sojourn times), because worker-pool and log-lock queueing dominate
/// dispatch backlog long before the dispatch thread itself saturates.
///
/// Writes shed before reads (writeTarget < readTarget): a shed write costs
/// the client one bounce, while an admitted write holds the log lock and
/// replication pipeline that every other request then queues behind.
/// Priority tenants' targets are scaled up by kPriorityFactor, so
/// best-effort tenants shed first.
struct AdmissionParams {
  bool enabled = true;
  /// Sojourn target above which writes are shed (lowest rung).
  sim::Duration writeTarget = sim::msec(2);
  /// Sojourn target above which reads (and everything else) are shed.
  sim::Duration readTarget = sim::msec(8);
  /// Load must stay above target this long before shedding starts.
  sim::Duration interval = sim::msec(10);
  /// Tenant ids treated as priority class (tiny list, linear scan).
  std::vector<int> priorityTenants;
  /// Upper bound on the retry-after hint returned with kOverloaded.
  sim::Duration maxRetryAfter = sim::msec(50);
};

/// Priority tenants tolerate kPriorityFactor × the sojourn target before
/// shedding.
inline constexpr double kPriorityFactor = 4.0;
/// Lower bound on the retry-after hint returned with kOverloaded.
inline constexpr sim::Duration kMinRetryAfter = sim::msec(1);
/// A QoS throttle after this much clean time starts a new episode (the unit
/// rcdiag report aggregates).
inline constexpr sim::Duration kQosEpisodeGap = sim::msec(100);

struct DispatchParams {
  /// Dispatch-thread cost to poll, classify and hand off one request or
  /// reply. The dispatch core is modelled as always-busy (it polls); this
  /// only bounds its throughput and adds queueing delay under load.
  sim::Duration perItem = sim::nsec(400);
  AdmissionParams admission;
};

/// One tenant's contract at the per-tenant QoS stage (docs/WORKLOADS.md):
/// a token bucket policing the tenant's *admitted* rate on this
/// node, checked before the CoDel gate so a surging tenant is bounced at
/// its own rate instead of inflating everyone's sojourn first.
struct QosTenantPolicy {
  /// Name used in metric paths ("node<N>.dispatch.qos.<name>.*").
  std::string name;
  /// RPC tenant tags sharing this bucket. A tenant's read and update SLO
  /// classes carry distinct tags (dense class id + 1, docs/SLO.md); list
  /// both so the bucket covers the tenant, not one op class.
  std::vector<int> tags;
  /// Admitted requests/sec on this node; <= 0 leaves the tenant unlimited
  /// (every request is counted as offered and admitted).
  double ratePerSec = 0;
  double burst = 64;  ///< bucket depth (requests)
  /// Also a CoDel priority tenant: when the aggregate gate does shed, this
  /// tenant tolerates kPriorityFactor x the sojourn target (sheds last).
  bool priority = false;
};

struct QosParams {
  bool enabled = false;
  std::vector<QosTenantPolicy> tenants;
};

/// The RAMCloud dispatch thread of one server process: a serial hand-off
/// stage in front of the worker pool, shared by the master and backup
/// services on the node. (Its dedicated core's 100 % busy-poll is accounted
/// in node::kPollingCores.)
class Dispatch {
 public:
  Dispatch(sim::Simulation& sim, DispatchParams params)
      : sim_(sim), params_(params) {}

  Dispatch(const Dispatch&) = delete;
  Dispatch& operator=(const Dispatch&) = delete;

  /// Serialise `fn` through the dispatch thread. `extraCost` is additional
  /// dispatch-thread CPU consumed by this item (e.g. backup-write buffer
  /// copies, which RAMCloud services at dispatch priority so replication
  /// can never deadlock against worker-holding updates — this is exactly
  /// the "CPU contention between replication requests and normal requests"
  /// of the paper's Finding 3).
  void enqueue(sim::InlineTask fn, sim::Duration extraCost = 0) {
    if (!alive_) return;
    const sim::SimTime start = std::max(sim_.now(), nextFree_);
    nextFree_ = start + params_.perItem + extraCost;
    ++queued_;
    maxQueueDepth_ = std::max(maxQueueDepth_, queued_);
    // Items wait in the dispatch's own FIFO; the scheduled hand-off event
    // captures only (this, epoch), so it always fits an InlineTask's inline
    // buffer — no nested-closure overflow. Hand-off events fire at strictly
    // increasing times within an epoch, so the front item is always the one
    // whose event is firing.
    items_.push_back(std::move(fn));
    const std::uint64_t epoch = epoch_;
    sim_.scheduleAt(nextFree_, [this, epoch] {
      if (epoch_ != epoch) return;  // crashed/restarted: item was dropped
      if (queued_ > 0) --queued_;
      sim::InlineTask fn = std::move(items_.front());
      items_.pop_front();
      fn();
    });
    ++itemsDispatched_;
  }

  /// Kill the process: queued hand-offs are dropped.
  void crash() {
    alive_ = false;
    ++epoch_;
    queued_ = 0;
    items_.clear();
    resetAdmission();
  }

  void restart() {
    alive_ = true;
    ++epoch_;
    nextFree_ = sim_.now();
    queued_ = 0;
    items_.clear();
    resetAdmission();
  }

  // --- Admission control ---------------------------------------------------

  struct AdmitResult {
    bool admitted = true;
    sim::Duration retryAfter = 0;  // hint for kOverloaded responses
  };

  /// Install (or replace) the per-tenant QoS stage. Callable after
  /// construction, once tenant tags are known (SLO classes declared).
  /// Policies with priority=true are also appended to the CoDel gate's
  /// priorityTenants, so the two layers compose: the bucket polices each
  /// tenant's rate, the sojourn gate protects the aggregate and sheds
  /// best-effort tenants first.
  void configureQos(const QosParams& qos) {
    qosEnabled_ = qos.enabled;
    slots_.clear();
    tagToSlot_.clear();
    for (const QosTenantPolicy& p : qos.tenants) {
      slots_.push_back(std::make_unique<QosSlot>(
          p.name, sim::TokenBucket(p.ratePerSec, p.burst)));
      for (int tag : p.tags) {
        if (tag < 0) continue;
        if (tagToSlot_.size() <= static_cast<std::size_t>(tag)) {
          tagToSlot_.resize(static_cast<std::size_t>(tag) + 1, -1);
        }
        tagToSlot_[static_cast<std::size_t>(tag)] =
            static_cast<int>(slots_.size()) - 1;
      }
      if (p.priority) {
        for (int tag : p.tags) {
          params_.admission.priorityTenants.push_back(tag);
        }
      }
    }
  }

  /// Per-policy counters, indexed as in QosParams::tenants; the cluster's
  /// aggregate probes and rcdiag's episode summary read these.
  struct QosSlot {
    QosSlot(std::string n, sim::TokenBucket b)
        : name(std::move(n)), bucket(std::move(b)) {}
    std::string name;
    sim::TokenBucket bucket;
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t throttled = 0;
    std::uint64_t episodes = 0;
    sim::SimTime lastThrottleAt = -1;
  };
  std::size_t qosSlotCount() const { return slots_.size(); }
  const QosSlot& qosSlot(std::size_t i) const { return *slots_[i]; }

  /// Fired when a tenant's first throttle after a clean gap starts a new
  /// throttle episode (the cluster journals it).
  std::function<void(const std::string& tenantName)> onQosEpisode;

  /// Admission decision for one data-plane request. Call before enqueue();
  /// control-plane, replication, ping and tx-decision traffic must bypass
  /// this entirely (shedding a lock-release would wedge the lock table).
  /// The per-tenant QoS bucket is checked first — policing one tenant must
  /// not wait for the aggregate sojourn gate to notice pressure.
  AdmitResult admit(bool isWrite, int tenant) {
    if (!alive_) return {};
    if (qosEnabled_ && tenant >= 0 &&
        static_cast<std::size_t>(tenant) < tagToSlot_.size() &&
        tagToSlot_[static_cast<std::size_t>(tenant)] >= 0) {
      QosSlot& s =
          *slots_[static_cast<std::size_t>(
              tagToSlot_[static_cast<std::size_t>(tenant)])];
      ++s.offered;
      const sim::SimTime now = sim_.now();
      if (!s.bucket.tryAcquire(now)) {
        ++s.throttled;
        if (s.lastThrottleAt < 0 || now - s.lastThrottleAt > kQosEpisodeGap) {
          ++s.episodes;
          if (onQosEpisode) onQosEpisode(s.name);
        }
        s.lastThrottleAt = now;
        return {false, std::clamp(s.bucket.timeToToken(now), kMinRetryAfter,
                                  params_.admission.maxRetryAfter)};
      }
      ++s.admitted;
    }
    if (!params_.admission.enabled) return {};
    const sim::SimTime now = sim_.now();
    const sim::Duration est = loadEstimate(now);
    const AdmissionParams& a = params_.admission;
    // The sustained-above gate runs against the lowest rung (writeTarget):
    // transient bursts shorter than `interval` are absorbed, CoDel-style.
    if (est <= a.writeTarget) {
      aboveSince_ = -1;
      setOverloaded(false);
      return {};
    }
    if (aboveSince_ < 0) aboveSince_ = now;
    if (now - aboveSince_ < a.interval) return {};
    sim::Duration target = isWrite ? a.writeTarget : a.readTarget;
    if (isPriority(tenant)) {
      target = static_cast<sim::Duration>(static_cast<double>(target) *
                                          kPriorityFactor);
    }
    if (est <= target) return {};
    setOverloaded(true);
    ++shedTotal_;
    if (isWrite) {
      ++shedWrites_;
    } else {
      ++shedReads_;
    }
    noteShedTenant(tenant);
    return {false, std::clamp(est, kMinRetryAfter, a.maxRetryAfter)};
  }

  /// Report the dispatch-to-completion sojourn of a finished request. This
  /// is the admission signal: worker-pool and log-lock queueing show up
  /// here, invisible to backlogDelay().
  void noteSojourn(sim::Duration d) {
    if (!params_.admission.enabled) return;
    decayTo(sim_.now());
    const double s = static_cast<double>(std::max<sim::Duration>(d, 0));
    // Peak-hold blend: jump to spikes immediately, relax via EWMA + the
    // idle half-life in decayTo(). Keeps the estimate honest when the
    // worker pool is wedged and completions become rare.
    sojournEwma_ = std::max(s, sojournEwma_ * (1.0 - kEwmaAlpha) +
                                   s * kEwmaAlpha);
  }

  /// Current load estimate (ns): max of dispatch backlog and the decayed
  /// sojourn EWMA.
  sim::Duration loadEstimate(sim::SimTime now) {
    decayTo(now);
    return std::max(backlogDelay(), static_cast<sim::Duration>(sojournEwma_));
  }

  /// True while the node is actively shedding — degradation hooks (cleaner
  /// deferral, repair-backoff stretch, exemplar brownout) key off this.
  bool underPressure() const { return overloaded_; }

  /// Fired on every shedding-state transition (enter=true / exit=false).
  std::function<void(bool)> onOverloadState;

  std::uint64_t shedTotal() const { return shedTotal_; }
  std::uint64_t shedReads() const { return shedReads_; }
  std::uint64_t shedWrites() const { return shedWrites_; }
  std::uint64_t overloadEnters() const { return overloadEnters_; }

  bool alive() const { return alive_; }
  std::uint64_t itemsDispatched() const { return itemsDispatched_; }

  /// Items accepted but not yet handed off to their service stage.
  std::uint64_t queueDepth() const { return queued_; }
  std::uint64_t maxQueueDepth() const { return maxQueueDepth_; }

  /// Current backlog expressed as time until the dispatch thread is free.
  sim::Duration backlogDelay() const {
    return std::max<sim::Duration>(0, nextFree_ - sim_.now());
  }

  /// Register this dispatch stage's metrics under `prefix`
  /// (e.g. "node3.dispatch").
  void registerMetrics(obs::MetricRegistry& reg, const std::string& prefix) {
    reg.probeCounter(prefix + ".items", "ops", [this] {
      return static_cast<double>(itemsDispatched_);
    });
    reg.probeGauge(prefix + ".queue_depth", "items",
                   [this] { return static_cast<double>(queued_); });
    reg.probeGauge(prefix + ".backlog_us", "us",
                   [this] { return sim::toMicros(backlogDelay()); });
  }

  /// Register admission/shed metrics under `prefix` (e.g. "node3.dispatch").
  /// Per-tenant shed counters appear lazily under `prefix + ".shed.tenant<k>"`
  /// the first time tenant k is shed.
  void registerOverloadMetrics(obs::MetricRegistry& reg,
                               const std::string& prefix) {
    metricReg_ = &reg;
    metricPrefix_ = prefix;
    reg.probeCounter(prefix + ".shed.total", "ops", [this] {
      return static_cast<double>(shedTotal_);
    });
    reg.probeCounter(prefix + ".shed.reads", "ops", [this] {
      return static_cast<double>(shedReads_);
    });
    reg.probeCounter(prefix + ".shed.writes", "ops", [this] {
      return static_cast<double>(shedWrites_);
    });
    reg.probeCounter(prefix + ".shed.overload_enters", "count", [this] {
      return static_cast<double>(overloadEnters_);
    });
    reg.probeGauge(prefix + ".shed.overloaded", "bool",
                   [this] { return overloaded_ ? 1.0 : 0.0; });
    reg.probeGauge(prefix + ".load_estimate_us", "us", [this] {
      return sim::toMicros(std::max(
          backlogDelay(), static_cast<sim::Duration>(sojournEwma_)));
    });
  }

  /// Register the per-tenant QoS counters under
  /// `prefix + ".qos.<policy-name>.{offered,admitted,throttled,episodes}"`.
  /// Call after configureQos; slots are heap-stable so the probe lambdas
  /// may capture them directly.
  void registerQosMetrics(obs::MetricRegistry& reg,
                          const std::string& prefix) {
    for (const auto& slot : slots_) {
      const QosSlot* s = slot.get();
      const std::string base = prefix + ".qos." + s->name;
      reg.probeCounter(base + ".offered", "ops",
                       [s] { return static_cast<double>(s->offered); });
      reg.probeCounter(base + ".admitted", "ops",
                       [s] { return static_cast<double>(s->admitted); });
      reg.probeCounter(base + ".throttled", "ops",
                       [s] { return static_cast<double>(s->throttled); });
      reg.probeCounter(base + ".episodes", "count",
                       [s] { return static_cast<double>(s->episodes); });
    }
  }

 private:
  static constexpr double kEwmaAlpha = 0.2;

  bool isPriority(int tenant) const {
    for (int t : params_.admission.priorityTenants) {
      if (t == tenant) return true;
    }
    return false;
  }

  /// Halve the sojourn EWMA once per admission interval of elapsed time, so
  /// a quiet node forgets its last storm.
  void decayTo(sim::SimTime now) {
    const sim::Duration interval = params_.admission.interval;
    if (interval <= 0 || now <= lastDecay_) {
      if (lastDecay_ == 0) lastDecay_ = now;
      return;
    }
    const auto halvings = (now - lastDecay_) / interval;
    if (halvings <= 0) return;
    lastDecay_ += halvings * interval;
    if (halvings >= 60) {
      sojournEwma_ = 0;
    } else {
      sojournEwma_ *= 1.0 / static_cast<double>(1ULL << halvings);
    }
  }

  void setOverloaded(bool v) {
    if (overloaded_ == v) return;
    overloaded_ = v;
    if (v) ++overloadEnters_;
    if (onOverloadState) onOverloadState(v);
  }

  void noteShedTenant(int tenant) {
    auto [it, inserted] = shedByTenant_.try_emplace(tenant, 0);
    ++it->second;
    if (inserted && metricReg_ != nullptr) {
      const std::uint64_t* cell = &it->second;
      metricReg_->probeCounter(
          metricPrefix_ + ".shed.tenant" + std::to_string(tenant), "ops",
          [cell] { return static_cast<double>(*cell); });
    }
  }

  void resetAdmission() {
    sojournEwma_ = 0;
    aboveSince_ = -1;
    lastDecay_ = sim_.now();
    setOverloaded(false);
  }

  sim::Simulation& sim_;
  DispatchParams params_;
  std::deque<sim::InlineTask> items_;
  sim::SimTime nextFree_ = 0;
  bool alive_ = true;
  std::uint64_t epoch_ = 0;
  std::uint64_t itemsDispatched_ = 0;
  std::uint64_t queued_ = 0;
  std::uint64_t maxQueueDepth_ = 0;

  // Admission state. shedByTenant_ is a std::map so per-tenant counter cells
  // are stable pointers and iteration order is deterministic.
  double sojournEwma_ = 0;
  sim::SimTime aboveSince_ = -1;
  sim::SimTime lastDecay_ = 0;
  bool overloaded_ = false;
  std::uint64_t shedTotal_ = 0;
  std::uint64_t shedReads_ = 0;
  std::uint64_t shedWrites_ = 0;
  std::uint64_t overloadEnters_ = 0;
  std::map<int, std::uint64_t> shedByTenant_;
  obs::MetricRegistry* metricReg_ = nullptr;
  std::string metricPrefix_;

  // Per-tenant QoS stage (configureQos). tagToSlot_ is a dense tag->index
  // table (tags are small SLO-class ids); slots are heap-allocated so the
  // metric probes hold stable pointers.
  bool qosEnabled_ = false;
  std::vector<std::unique_ptr<QosSlot>> slots_;
  std::vector<int> tagToSlot_;
};

}  // namespace rc::server
