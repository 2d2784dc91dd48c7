#include "ycsb/op_core.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace rc::ycsb {

OpCore::OpCore(sim::Simulation& sim, client::RamCloudClient& client,
               std::uint64_t tableId, WorkloadSpec spec, LoadParams load,
               OpParams ops, sim::Rng rng)
    : sim_(sim),
      client_(client),
      tableId_(tableId),
      spec_(std::move(spec)),
      load_(std::move(load)),
      ops_(std::move(ops)),
      rng_(rng),
      keys_(spec_, rng_.fork(1)) {}

void OpCore::setSloTracker(obs::SloTracker* slo) {
  slo_ = slo;
  readClass_ = updateClass_ = -1;
  if (slo_ == nullptr || load_.tenant.empty()) return;
  readClass_ = slo_->classId(load_.tenant + "/read");
  updateClass_ = slo_->classId(load_.tenant + "/update");
  // Tag outgoing RPCs so server-side flight stamps attribute to us. 0 is
  // reserved for "untagged"; shift the dense class id by one.
  const int base = readClass_ >= 0 ? readClass_ : updateClass_;
  if (base >= 0) client_.setTenant(static_cast<std::uint16_t>(base + 1));
}

OpCore::OpKind OpCore::pickOp() {
  // Transfers are drawn independently of the workload mix so enabling them
  // does not change the relative read/update/insert proportions.
  if (ops_.transferProportion > 0 &&
      rng_.uniformDouble() < ops_.transferProportion) {
    return OpKind::kTransfer;
  }
  double r = rng_.uniformDouble();
  if (r < spec_.readProportion) return OpKind::kRead;
  r -= spec_.readProportion;
  if (r < spec_.updateProportion) return OpKind::kUpdate;
  r -= spec_.updateProportion;
  if (r < spec_.insertProportion) return OpKind::kInsert;
  return OpKind::kReadModifyWrite;
}

std::uint64_t OpCore::pickKey() {
  // The chooser draws an index into the keyspace grown by completed
  // inserts; indices past the preloaded records map onto this driver's
  // insert range.
  const std::uint64_t keyspace = spec_.recordCount + inserted_;
  auto resolve = [this](std::uint64_t idx) {
    return idx < spec_.recordCount
               ? idx
               : load_.insertKeyBase + (idx - spec_.recordCount);
  };
  std::uint64_t k = resolve(keys_.next(keyspace));
  if (ops_.keyPredicate) {
    // Rejection sampling; give up after a bounded number of draws so a
    // pathological predicate cannot wedge the simulation.
    for (int tries = 0; tries < 10'000 && !ops_.keyPredicate(k); ++tries) {
      k = resolve(keys_.next(keyspace));
    }
  }
  return k;
}

void OpCore::issue(sim::SimTime intent, sim::SimTime origin,
                   const std::function<void()>& then) {
  const std::uint64_t gen = generation_;
  const OpKind op = pickOp();
  // Per-op tenant tag: reads and updates land in their own SLO class, so
  // server-side energy charges split by op class too (docs/ENERGY.md).
  // Safe to flip per op even with many ops in flight: RPCs snapshot the
  // tag at issue time. The class ids are -1 unless a tracker resolved them.
  const int cls = op == OpKind::kRead ? readClass_ : updateClass_;
  if (cls >= 0) client_.setTenant(static_cast<std::uint16_t>(cls + 1));
  std::uint64_t key = 0;  // transfers pick their own account pair below
  if (op == OpKind::kInsert) {
    key = load_.insertKeyBase + insertsIssued_++;
  } else if (op != OpKind::kTransfer) {
    key = pickKey();
  }

  ++inFlight_;
  // Every path settles exactly once through here; an op of an older
  // generation leaves the in-flight count but is not accounted.
  auto complete = [this, gen, op, intent, origin, then](net::Status status,
                                                       sim::Duration) {
    --inFlight_;
    if (generation_ != gen) return;
    account(op, status, intent, origin);
    if (then) then();
  };

  switch (op) {
    case OpKind::kRead:
      client_.read(tableId_, key, std::move(complete));
      break;
    case OpKind::kUpdate:
    case OpKind::kInsert:
      client_.write(tableId_, key, spec_.valueBytes, std::move(complete));
      break;
    case OpKind::kReadModifyWrite:
      if (ops_.transactionalRmw) {
        // Conditioned RMW as a single-key minitransaction: the prepare
        // round re-validates the read version, so a concurrent writer
        // aborts us instead of being silently overwritten.
        const std::uint64_t txId = client_.txBegin();
        client_.txRead(
            txId, tableId_, key,
            [this, gen, txId, key, complete = std::move(complete)](
                net::Status s, std::uint64_t, sim::Duration) mutable {
              if (generation_ != gen) return complete(s, 0);
              client_.txWrite(txId, tableId_, key, spec_.valueBytes);
              client_.txCommit(txId, std::move(complete));
            });
        break;
      }
      // Read then write the same key; one logical op.
      client_.read(
          tableId_, key,
          [this, gen, key, complete = std::move(complete)](
              net::Status s, sim::Duration) mutable {
            if (generation_ != gen || s != net::Status::kOk) {
              return complete(s, 0);
            }
            client_.write(tableId_, key, spec_.valueBytes, std::move(complete));
          });
      break;
    case OpKind::kTransfer: {
      // Atomic two-key transfer between distinct accounts: read both
      // (joining the optimistic read set), rewrite both, commit. Either
      // both keys advance together or neither does — the chaos harness's
      // atomicity checker verifies exactly that via onTransferComplete.
      const std::uint64_t n =
          std::max<std::uint64_t>(2, ops_.transferAccounts);
      const std::uint64_t a = ops_.transferKeyBase + rng_.uniformInt(n);
      std::uint64_t b = ops_.transferKeyBase + rng_.uniformInt(n - 1);
      if (b >= a) ++b;
      const std::uint64_t txId = client_.txBegin();
      auto pendingReads = std::make_shared<int>(2);
      auto readDone = [this, gen, txId, a, b,
                       complete = std::move(complete), pendingReads](
                          net::Status s, std::uint64_t,
                          sim::Duration) mutable {
        // A failed read just leaves that side unconditioned (blind
        // write); atomicity still holds, only conflict detection
        // weakens for this attempt.
        if (--*pendingReads > 0) return;
        if (generation_ != gen) return complete(s, 0);
        client_.txWrite(txId, tableId_, a, spec_.valueBytes);
        client_.txWrite(txId, tableId_, b, spec_.valueBytes);
        client_.txCommit(txId, [this, a, b, complete = std::move(complete)](
                                   net::Status s2, sim::Duration d) {
          // The checker must see every outcome, even if this driver was
          // stopped while the commit was in flight.
          if (onTransferComplete) onTransferComplete(a, b, s2);
          complete(s2, d);
        });
      };
      client_.txRead(txId, tableId_, a, readDone);
      client_.txRead(txId, tableId_, b, std::move(readDone));
      break;
    }
  }
}

void OpCore::account(OpKind op, net::Status status, sim::SimTime intent,
                     sim::SimTime origin) {
  const bool isRead = op == OpKind::kRead;
  const bool isTx = op == OpKind::kTransfer ||
                    (op == OpKind::kReadModifyWrite && ops_.transactionalRmw);
  const sim::Duration latency = sim_.now() - origin;
  const int cls = isRead ? readClass_ : updateClass_;
  if (status == net::Status::kOk) {
    if (cls >= 0) {
      // Stage decomposition of the op's final RPC attempt, when the trace
      // captured one (timeouts leave lastOp invalid).
      const auto& last = client_.lastOp();
      slo_->record(cls, last.valid ? last.node : -1, last.valid ? last.span : 0,
                   sim_.now() - intent, last.valid ? &last.detail : nullptr);
    }
    ++stats_.opsCompleted;
    (isRead ? stats_.readLatency : stats_.updateLatency).add(latency);
    switch (op) {
      case OpKind::kRead: ++stats_.reads; break;
      case OpKind::kUpdate: ++stats_.updates; break;
      case OpKind::kInsert:
        ++stats_.inserts;
        ++inserted_;
        break;
      case OpKind::kReadModifyWrite: ++stats_.readModifyWrites; break;
      case OpKind::kTransfer: ++stats_.transfers; break;
    }
  } else if (isTx && status == net::Status::kTxConflict) {
    // A definite abort is a clean concurrency outcome, not a failure; the
    // op simply doesn't count toward a closed loop's target.
    ++stats_.txAborted;
  } else if (isTx) {
    // Commit outcome unknown to this driver (e.g. a participant crashed
    // mid-commit); orphan resolution settles it server-side.
    ++stats_.txUnknown;
  } else {
    ++stats_.failures;
  }
  if (onOpComplete) onOpComplete(sim_.now(), latency, isRead);
}

}  // namespace rc::ycsb
