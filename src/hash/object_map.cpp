#include "hash/object_map.hpp"

#include <bit>
#include <cassert>

namespace rc::hash {

std::uint64_t keyHash(const Key& k) {
  auto mix = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  return mix(mix(k.tableId) ^ (k.keyId + 0x632be59bd9b4e019ULL));
}

ObjectMap::ObjectMap(const log::Log& log, std::size_t initialBuckets)
    : log_(log) {
  slots_.resize(std::bit_ceil(std::max<std::size_t>(initialBuckets, 8)));
}

ObjectMap::Found ObjectMap::probe(const Key& k, std::uint64_t h,
                                  bool forInsert) const {
  const std::size_t mask = slots_.size() - 1;
  const auto bits = static_cast<std::uint32_t>(h);
  std::size_t i = homeSlot(h);
  std::size_t firstTombstone = slots_.size();  // sentinel: none seen
  for (std::size_t step = 0; step < slots_.size(); ++step) {
    const Slot& s = slots_[i];
    if (s.used()) {
      if (s.hashBits == bits) {
        const log::HotEntry& e = log_.hotEntry(s.ref);
        if (e.keyId == k.keyId && e.tableId == k.tableId) return {i, &e};
      }
    } else if (s.emptySlot()) {
      if (forInsert && firstTombstone != slots_.size()) {
        return {firstTombstone, nullptr};
      }
      return {i, nullptr};
    } else if (forInsert && firstTombstone == slots_.size()) {
      firstTombstone = i;
    }
    i = (i + 1) & mask;
  }
  // Table full of used+tombstone slots; growth policy prevents this.
  assert(firstTombstone != slots_.size());
  return {firstTombstone, nullptr};
}

void ObjectMap::grow() {
  // Re-placing each slot at the first empty one from its home, in old slot
  // order, is what re-putting every key would do: no key is compared, so
  // the log is not read.
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  assert(slots_.size() <= (std::size_t{1} << 32) && "hash bits too few");
  tombstones_ = 0;
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (!s.used()) continue;
    std::size_t i = homeSlot(s.hashBits);
    while (slots_[i].used()) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

std::optional<ObjectLocation> ObjectMap::put(const Key& k, log::LogRef ref) {
  assert(log_.hotEntry(ref).type == log::EntryType::kObject &&
         log_.hotEntry(ref).tableId == k.tableId &&
         log_.hotEntry(ref).keyId == k.keyId);
  if (static_cast<double>(size_ + tombstones_ + 1) >
      0.7 * static_cast<double>(slots_.size())) {
    grow();
  }
  // An insert probe stops at `k`'s own slot if it is present.
  const std::uint64_t h = keyHash(k);
  const Found f = probe(k, h, /*forInsert=*/true);
  Slot& s = slots_[f.slot];
  std::optional<ObjectLocation> displaced;
  if (f.entry != nullptr) {
    displaced = ObjectLocation{s.ref, f.entry->version, f.entry->sizeBytes};
  } else {
    if (!s.emptySlot()) --tombstones_;
    ++size_;
  }
  s.ref = ref;
  s.hashBits = static_cast<std::uint32_t>(h);
  return displaced;
}

std::optional<ObjectLocation> ObjectMap::get(const Key& k) const {
  const Found f = probe(k, keyHash(k), /*forInsert=*/false);
  if (f.entry == nullptr) return std::nullopt;
  return ObjectLocation{slots_[f.slot].ref, f.entry->version,
                        f.entry->sizeBytes};
}

bool ObjectMap::relocate(const Key& k, std::uint64_t version,
                         log::LogRef newRef) {
  const Found f = probe(k, keyHash(k), /*forInsert=*/false);
  if (f.entry == nullptr || f.entry->version != version) return false;
  slots_[f.slot].ref = newRef;
  return true;
}

bool ObjectMap::erase(const Key& k) {
  const Found f = probe(k, keyHash(k), /*forInsert=*/false);
  if (f.entry == nullptr) return false;
  slots_[f.slot].ref = kTombstone;
  --size_;
  ++tombstones_;
  return true;
}

void ObjectMap::prefetchEntry(const Key& k) const {
  const std::uint64_t h = keyHash(k);
  const auto bits = static_cast<std::uint32_t>(h);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = homeSlot(h);
  for (std::size_t step = 0; step < slots_.size(); ++step) {
    const Slot& s = slots_[i];
    if (s.used()) {
      if (s.hashBits == bits) {
        log_.prefetch(s.ref);
        return;
      }
    } else if (s.emptySlot()) {
      return;
    }
    i = (i + 1) & mask;
  }
}

void ObjectMap::forEach(
    const std::function<void(const Key&, const ObjectLocation&)>& fn) const {
  for (const Slot& s : slots_) {
    if (!s.used()) continue;
    const log::HotEntry& e = log_.hotEntry(s.ref);
    fn(Key{e.tableId, e.keyId}, ObjectLocation{s.ref, e.version, e.sizeBytes});
  }
}

}  // namespace rc::hash
