#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "log/segment.hpp"

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

/// Where an object currently lives.
struct ObjectLocation {
  log::LogRef ref;
  std::uint64_t version = 0;
  std::uint32_t sizeBytes = 0;
  /// ObjectMap keeps its slot's state in this byte, which would otherwise
  /// be padding. 0 (the default) is "in use"; nothing else reads it.
  std::uint8_t slotState = 0;
};

/// Open-addressing hash table from Key to ObjectLocation.
///
/// Linear probing with backshift-free tombstones and amortised growth at
/// load factor 0.7 — modelled on RAMCloud's in-DRAM index (their real table
/// stores 47-bit log references in cache-line buckets; the semantics that
/// matter here are identical).
class ObjectMap {
 public:
  explicit ObjectMap(std::size_t initialBuckets = 64);

  /// Insert or overwrite in one probe. Returns the location `k` had before
  /// (the entry the caller's new one supersedes), or nullopt if `k` was
  /// newly inserted.
  std::optional<ObjectLocation> put(const Key& k, const ObjectLocation& loc);

  /// nullptr if absent.
  const ObjectLocation* get(const Key& k) const;
  ObjectLocation* getMutable(const Key& k);

  /// Returns true if the key was present.
  bool erase(const Key& k);

  /// Hint that `k` will be looked up soon: start pulling its home bucket
  /// into cache (RAMCloud's HashTable::prefetchBucket). No effect on
  /// contents.
  void prefetch(const Key& k) const {
    __builtin_prefetch(&slots_[homeSlot(k)]);
  }

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
  /// puts and erases alone (migration batches and scans follow it).
  void forEach(const std::function<void(const Key&, const ObjectLocation&)>&
                   fn) const;

 private:
  // Values of ObjectLocation::slotState. kUsed is 0 so a location a caller
  // writes through getMutable() keeps its slot in use.
  static constexpr std::uint8_t kUsed = 0;
  static constexpr std::uint8_t kEmpty = 1;
  static constexpr std::uint8_t kTombstone = 2;
  // The location comes first so the state byte (its last field) sits right
  // before the key: a probe's state-and-key test reads 20 contiguous bytes.
  struct Slot {
    ObjectLocation loc{log::LogRef{}, 0, 0, kEmpty};
    Key key;
    std::uint8_t state() const { return loc.slotState; }
  };
  static_assert(sizeof(Slot) <= 40, "ObjectMap slot must stay <= 40 B");

  void grow();
  /// Where `k`'s probe sequence starts.
  std::size_t homeSlot(const Key& k) const {
    return static_cast<std::size_t>(keyHash(k)) & (slots_.size() - 1);
  }
  std::size_t probe(const Key& k, bool forInsert) const;

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace rc::hash
