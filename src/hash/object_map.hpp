#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "log/log.hpp"

namespace rc::hash {

/// A (table, key) pair — the unit of addressing in RAMCloud.
struct Key {
  std::uint64_t tableId = 0;
  std::uint64_t keyId = 0;

  bool operator==(const Key&) const = default;
};

/// 64-bit mix (splitmix64 finaliser) over both components. The same hash
/// routes requests to tablets, so it is exposed here.
std::uint64_t keyHash(const Key& k);

/// Where an object currently lives, read from its log entry.
struct ObjectLocation {
  log::LogRef ref;
  std::uint64_t version = 0;
  std::uint32_t sizeBytes = 0;
};

/// Open-addressing hash table from Key to the object's entry in one log.
///
/// Linear probing with backshift-free tombstones and amortised growth at
/// load factor 0.7. As in RAMCloud's in-DRAM index (Rumble et al., FAST
/// '14), a slot holds only a log reference plus spare hash bits: the key,
/// version and size live in the referenced entry, and a probe whose hash
/// bits match confirms the key there. Every reference in the map resolves
/// to an entry of `log` holding its key.
class ObjectMap {
 public:
  explicit ObjectMap(const log::Log& log, std::size_t initialBuckets = 64);

  /// Point `k` at `ref`, an object entry for `k` already appended to the
  /// log, in one probe. Returns the location `k` had before (the entry the
  /// new one supersedes), or nullopt if `k` was newly inserted.
  std::optional<ObjectLocation> put(const Key& k, log::LogRef ref);

  /// nullopt if absent.
  std::optional<ObjectLocation> get(const Key& k) const;

  /// Re-point `k` at `newRef` if its entry still has `version` (the cleaner
  /// copied that entry to `newRef`). Returns true if the slot moved.
  bool relocate(const Key& k, std::uint64_t version, log::LogRef newRef);

  /// Returns true if the key was present.
  bool erase(const Key& k);

  /// Hint that `k` will be looked up soon: start pulling its home bucket
  /// into cache (RAMCloud's HashTable::prefetchBucket). No effect on
  /// contents.
  void prefetch(const Key& k) const {
    __builtin_prefetch(&slots_[homeSlot(keyHash(k))]);
  }
  /// Second stage of the same hint, once the bucket is likely cached: start
  /// pulling the entry of the first slot whose hash bits match `k`'s.
  void prefetchEntry(const Key& k) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t bucketCount() const { return slots_.size(); }
  double loadFactor() const {
    return slots_.empty()
               ? 0.0
               : static_cast<double>(size_ + tombstones_) /
                     static_cast<double>(slots_.size());
  }

  /// Visit every live entry in slot order: a function of the sequence of
  /// puts and erases alone (migration batches follow it).
  void forEach(const std::function<void(const Key&, const ObjectLocation&)>&
                   fn) const;

 private:
  /// The state is encoded in the reference: a valid one is in use; an
  /// invalid one is empty (index 0) or a tombstone (index 1).
  struct Slot {
    log::LogRef ref;
    std::uint32_t hashBits = 0;  ///< low 32 bits of keyHash(key)

    bool used() const { return ref.valid(); }
    bool emptySlot() const { return !used() && ref.index == 0; }
  };
  static_assert(sizeof(Slot) <= 16, "ObjectMap slot must stay <= 16 B");
  static constexpr log::LogRef kTombstone{log::kInvalidSegment, 1};

  void grow();
  /// Where a key with hash `h` starts its probe sequence. Table sizes stay
  /// below 2^32, so the stored low hash bits suffice.
  std::size_t homeSlot(std::uint64_t h) const {
    return static_cast<std::size_t>(h) & (slots_.size() - 1);
  }
  /// Where a probe stopped: `k`'s own slot (with its entry) or, if `k` is
  /// absent, the empty slot or tombstone an insert would take.
  struct Found {
    std::size_t slot;
    const log::HotEntry* entry;  ///< nullptr if `k` is absent
  };
  Found probe(const Key& k, std::uint64_t h, bool forInsert) const;

  const log::Log& log_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace rc::hash
