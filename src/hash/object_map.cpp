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

ObjectMap::ObjectMap(std::size_t initialBuckets) {
  slots_.resize(std::bit_ceil(std::max<std::size_t>(initialBuckets, 8)));
}

std::size_t ObjectMap::probe(const Key& k, bool forInsert) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = homeSlot(k);
  std::size_t firstTombstone = slots_.size();  // sentinel: none seen
  for (std::size_t step = 0; step < slots_.size(); ++step) {
    const Slot& s = slots_[i];
    if (s.state == SlotState::kEmpty) {
      if (forInsert && firstTombstone != slots_.size()) return firstTombstone;
      return i;
    }
    if (s.state == SlotState::kTombstone) {
      if (forInsert && firstTombstone == slots_.size()) firstTombstone = i;
    } else if (s.key == k) {
      return i;
    }
    i = (i + 1) & mask;
  }
  // Table full of used+tombstone slots; growth policy prevents this.
  assert(firstTombstone != slots_.size());
  return firstTombstone;
}

void ObjectMap::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.clear();
  slots_.resize(old.size() * 2);
  size_ = 0;
  tombstones_ = 0;
  for (const Slot& s : old) {
    if (s.state == SlotState::kUsed) put(s.key, s.loc);
  }
}

bool ObjectMap::put(const Key& k, const ObjectLocation& loc) {
  if (static_cast<double>(size_ + tombstones_ + 1) >
      0.7 * static_cast<double>(slots_.size())) {
    grow();
  }
  const std::size_t i = probe(k, /*forInsert=*/true);
  Slot& s = slots_[i];
  const bool fresh = s.state != SlotState::kUsed || !(s.key == k);
  if (s.state == SlotState::kTombstone) --tombstones_;
  if (fresh) ++size_;
  s.state = SlotState::kUsed;
  s.key = k;
  s.loc = loc;
  return fresh;
}

const ObjectLocation* ObjectMap::get(const Key& k) const {
  const std::size_t i = probe(k, /*forInsert=*/false);
  const Slot& s = slots_[i];
  if (s.state == SlotState::kUsed && s.key == k) return &s.loc;
  return nullptr;
}

ObjectLocation* ObjectMap::getMutable(const Key& k) {
  return const_cast<ObjectLocation*>(
      static_cast<const ObjectMap*>(this)->get(k));
}

bool ObjectMap::erase(const Key& k) {
  const std::size_t i = probe(k, /*forInsert=*/false);
  Slot& s = slots_[i];
  if (s.state == SlotState::kUsed && s.key == k) {
    s.state = SlotState::kTombstone;
    --size_;
    ++tombstones_;
    return true;
  }
  return false;
}

void ObjectMap::forEach(
    const std::function<void(const Key&, const ObjectLocation&)>& fn) const {
  for (const Slot& s : slots_) {
    if (s.state == SlotState::kUsed) fn(s.key, s.loc);
  }
}

}  // namespace rc::hash
