// Unit and property tests for the object map (hash-table index).

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "hash/object_map.hpp"
#include "log/cleaner.hpp"
#include "sim/rng.hpp"

namespace rc::hash {
namespace {

/// The log a map under test points into: every put takes a real entry.
struct Entries {
  log::Log log{params()};

  static log::LogParams params() {
    log::LogParams p;
    p.segmentBytes = 64 * 1024;
    p.capacityBytes = 1ULL << 32;
    return p;
  }
  /// Append an object entry for `k` and return where it landed.
  log::LogRef add(const Key& k, std::uint64_t version,
                  std::uint32_t sizeBytes = 1000) {
    log::LogEntry e;
    e.tableId = k.tableId;
    e.keyId = k.keyId;
    e.version = version;
    e.sizeBytes = sizeBytes;
    return log.append(e, 0);
  }
};

TEST(KeyHash, DeterministicAndSpread) {
  EXPECT_EQ(keyHash({1, 2}), keyHash({1, 2}));
  EXPECT_NE(keyHash({1, 2}), keyHash({2, 1}));
  EXPECT_NE(keyHash({1, 2}), keyHash({1, 3}));
}

TEST(KeyHash, UniformAcrossRanges) {
  // Split the hash space in 8; a uniform keyset must land evenly.
  std::vector<int> buckets(8, 0);
  for (std::uint64_t k = 0; k < 80000; ++k) {
    ++buckets[keyHash({1, k}) >> 61];
  }
  for (int c : buckets) EXPECT_NEAR(c, 10000, 600);
}

TEST(ObjectMap, PutGetRoundTrip) {
  Entries es;
  ObjectMap m(es.log);
  EXPECT_FALSE(m.put({1, 10}, es.add({1, 10}, 1)).has_value());  // fresh
  const auto got = m.get({1, 10});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 1u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(ObjectMap, MissingKeyIsNull) {
  Entries es;
  ObjectMap m(es.log);
  EXPECT_FALSE(m.get({1, 99}).has_value());
}

TEST(ObjectMap, OverwriteKeepsSizeAndUpdates) {
  Entries es;
  ObjectMap m(es.log);
  EXPECT_FALSE(m.put({1, 10}, es.add({1, 10}, 1)).has_value());
  es.log.sealHead();  // the overwrite lands in a second segment
  const log::LogRef second = es.add({1, 10}, 7);
  const auto displaced = m.put({1, 10}, second);
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(displaced->version, 1u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.get({1, 10})->version, 7u);
  EXPECT_EQ(m.get({1, 10})->ref.segment, second.segment);
  EXPECT_NE(displaced->ref.segment, second.segment);
}

TEST(ObjectMap, EraseRemoves) {
  Entries es;
  ObjectMap m(es.log);
  m.put({1, 10}, es.add({1, 10}, 1));
  EXPECT_TRUE(m.erase({1, 10}));
  EXPECT_FALSE(m.get({1, 10}).has_value());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.erase({1, 10}));
}

TEST(ObjectMap, ReinsertAfterEraseWorks) {
  Entries es;
  ObjectMap m(es.log);
  m.put({1, 10}, es.add({1, 10}, 1));
  m.erase({1, 10});
  EXPECT_FALSE(m.put({1, 10}, es.add({1, 10}, 3)).has_value());
  EXPECT_EQ(m.get({1, 10})->version, 3u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(ObjectMap, GrowsPastInitialCapacity) {
  Entries es;
  ObjectMap m(es.log, 8);
  for (std::uint64_t k = 0; k < 10000; ++k) m.put({1, k}, es.add({1, k}, k));
  EXPECT_EQ(m.size(), 10000u);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ASSERT_TRUE(m.get({1, k}).has_value()) << k;
    EXPECT_EQ(m.get({1, k})->version, k);
  }
  EXPECT_LE(m.loadFactor(), 0.7 + 1e-9);
}

TEST(ObjectMap, RelocateMovesTheSlotOnlyOnAVersionMatch) {
  Entries es;
  ObjectMap m(es.log);
  const log::LogRef original = es.add({1, 1}, 1);
  m.put({1, 1}, original);
  es.log.sealHead();
  // The cleaner's copy of the entry: same key and version, new place.
  const log::LogRef moved = es.add({1, 1}, 1);
  ASSERT_NE(moved.segment, original.segment);
  // A copy of an older version (the key was overwritten since) is ignored.
  EXPECT_FALSE(m.relocate({1, 1}, 0, moved));
  EXPECT_EQ(m.get({1, 1})->ref, original);
  EXPECT_FALSE(m.relocate({1, 2}, 1, moved));  // absent key
  EXPECT_TRUE(m.relocate({1, 1}, 1, moved));
  EXPECT_EQ(m.get({1, 1})->ref.segment, moved.segment);
  EXPECT_EQ(m.size(), 1u);
}

TEST(ObjectMap, DistinguishesTables) {
  Entries es;
  ObjectMap m(es.log);
  m.put({1, 5}, es.add({1, 5}, 1));
  m.put({2, 5}, es.add({2, 5}, 2));
  EXPECT_EQ(m.get({1, 5})->version, 1u);
  EXPECT_EQ(m.get({2, 5})->version, 2u);
}

TEST(ObjectMap, ForEachVisitsAllLiveEntries) {
  Entries es;
  ObjectMap m(es.log);
  for (std::uint64_t k = 0; k < 100; ++k) m.put({1, k}, es.add({1, k}, k));
  m.erase({1, 50});
  int visited = 0;
  bool saw50 = false;
  m.forEach([&](const Key& k, const ObjectLocation&) {
    ++visited;
    if (k.keyId == 50) saw50 = true;
  });
  EXPECT_EQ(visited, 99);
  EXPECT_FALSE(saw50);
}

TEST(ObjectMap, PutReturnsTheDisplacedLocation) {
  Entries es;
  ObjectMap m(es.log);
  es.add({1, 3}, 1);  // so the first entry is not at index 0
  const ObjectLocation first{es.add({1, 10}, 23, 1234), 23, 1234};
  EXPECT_FALSE(m.put({1, 10}, first.ref).has_value());
  const auto displaced = m.put({1, 10}, es.add({1, 10}, 24));
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(displaced->ref, first.ref);
  EXPECT_EQ(displaced->version, first.version);
  EXPECT_EQ(displaced->sizeBytes, first.sizeBytes);
  EXPECT_EQ(m.get({1, 10})->version, 24u);
  EXPECT_EQ(m.size(), 1u);
  // A key erased in between is not displaced: its slot is a tombstone.
  m.erase({1, 10});
  EXPECT_FALSE(m.put({1, 10}, es.add({1, 10}, 25)).has_value());
}

TEST(ObjectMap, PutReusesATombstoneSlot) {
  Entries es;
  ObjectMap m(es.log, 64);
  for (std::uint64_t k = 0; k < 20; ++k) m.put({1, k}, es.add({1, k}, k));
  const double full = m.loadFactor();
  m.erase({1, 7});
  EXPECT_DOUBLE_EQ(m.loadFactor(), full);  // the tombstone still counts
  // Re-inserting takes the tombstone back instead of a fresh slot.
  EXPECT_FALSE(m.put({1, 7}, es.add({1, 7}, 70)).has_value());
  EXPECT_DOUBLE_EQ(m.loadFactor(), full);
  EXPECT_EQ(m.get({1, 7})->version, 70u);
  EXPECT_EQ(m.size(), 20u);
}

TEST(ObjectMap, ForEachOrderIsPinnedAcrossTwoGrows) {
  // Migration batches and scans follow forEach order, so it must depend on
  // the put/erase sequence alone. 14 keys grow an 8-slot map twice (at the
  // 6th and the 12th put).
  Entries es;
  ObjectMap m(es.log, 8);
  for (std::uint64_t k = 0; k < 14; ++k) m.put({7, k}, es.add({7, k}, k));
  EXPECT_EQ(m.bucketCount(), 32u);
  m.erase({7, 3});
  m.erase({7, 9});
  m.put({7, 9}, es.add({7, 9}, 99));
  std::vector<std::uint64_t> order;
  m.forEach([&](const Key& k, const ObjectLocation&) {
    order.push_back(k.keyId);
  });
  const std::vector<std::uint64_t> pinned{9, 0, 13, 1, 6, 7, 11,
                                          5, 12, 8, 10, 2, 4};
  EXPECT_EQ(order, pinned);
}

TEST(ObjectMap, TellsApartKeysWhoseLowHashBitsCollide) {
  // A slot keeps only the low 32 bits of keyHash; these two keys share
  // them, so only the key stored in each slot's log entry separates them.
  const Key a{1, 17'718};
  const Key b{1, 96'941};
  ASSERT_EQ(static_cast<std::uint32_t>(keyHash(a)),
            static_cast<std::uint32_t>(keyHash(b)));
  ASSERT_NE(keyHash(a), keyHash(b));
  Entries es;
  ObjectMap m(es.log, 8);
  EXPECT_FALSE(m.put(a, es.add(a, 1)).has_value());
  EXPECT_FALSE(m.put(b, es.add(b, 2)).has_value());  // not a's slot
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.get(a)->version, 1u);
  EXPECT_EQ(m.get(b)->version, 2u);
  const auto displaced = m.put(b, es.add(b, 3));
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(displaced->version, 2u);
  EXPECT_TRUE(m.erase(a));
  EXPECT_FALSE(m.get(a).has_value());
  EXPECT_EQ(m.get(b)->version, 3u);
  EXPECT_FALSE(m.relocate(a, 1, es.add(a, 1)));
}

TEST(ObjectMap, NoSlotResolvesToAFreedSegmentAfterCleaning) {
  // Overwrite half the keys so the sealed segments are partly dead, clean
  // every one of them, and check each slot against the surviving log.
  Entries es;
  ObjectMap m(es.log, 8);
  log::LogCleaner cleaner(es.log,
                          [&m](const log::LogEntry& e, log::LogRef newRef) {
                            m.relocate({e.tableId, e.keyId}, e.version,
                                       newRef);
                          });
  std::unordered_map<std::uint64_t, std::uint64_t> latest;
  std::uint64_t version = 0;
  auto write = [&](std::uint64_t key) {
    const Key k{1, key};
    latest[key] = ++version;
    if (const auto old = m.put(k, es.add(k, version))) {
      es.log.markDead(old->ref);
    }
  };
  for (std::uint64_t key = 0; key < 500; ++key) write(key);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t key = 0; key < 500; key += 2) write(key);
  }
  es.log.sealHead();
  std::vector<log::SegmentId> victims;
  for (const auto& [id, seg] : es.log.segments()) victims.push_back(id);
  ASSERT_GT(victims.size(), 3u);
  for (const log::SegmentId id : victims) cleaner.cleanSegment(id, 0);
  EXPECT_EQ(cleaner.stats().segmentsFreed, victims.size());
  for (const log::SegmentId id : victims) {
    EXPECT_EQ(es.log.segment(id), nullptr) << id;
  }

  std::size_t visited = 0;
  m.forEach([&](const Key& k, const ObjectLocation& loc) {
    ++visited;
    const log::Segment* seg = es.log.segment(loc.ref.segment);
    ASSERT_NE(seg, nullptr) << "key " << k.keyId;
    const log::HotEntry& e = seg->hotEntries()[loc.ref.index];
    EXPECT_TRUE(e.live) << k.keyId;
    EXPECT_EQ(e.keyId, k.keyId);
    EXPECT_EQ(loc.version, latest.at(k.keyId));
  });
  EXPECT_EQ(visited, latest.size());
  for (const auto& [key, v] : latest) {
    const auto loc = m.get({1, key});
    ASSERT_TRUE(loc.has_value()) << key;
    EXPECT_EQ(loc->version, v);
  }
}

// ---- Property: random op stream agrees with std::unordered_map oracle.
// gtest names each case after the raw bytes of its parameter, so the struct
// must have no padding: uninitialised padding made the names differ per run.
struct PropParam {
  std::uint64_t seed;
  std::int64_t ops;
  std::uint64_t keySpace;
};
static_assert(sizeof(PropParam) == 24, "no padding in test names");

class ObjectMapProperty : public ::testing::TestWithParam<PropParam> {};

TEST_P(ObjectMapProperty, AgreesWithOracle) {
  const auto [seed, ops, keySpace] = GetParam();
  sim::Rng rng(seed);
  Entries es;
  ObjectMap m(es.log, 8);
  struct H {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(keyHash(k));
    }
  };
  std::unordered_map<Key, std::uint64_t, H> oracle;

  for (int i = 0; i < ops; ++i) {
    const Key k{1 + rng.uniformInt(3), rng.uniformInt(keySpace)};
    const auto action = rng.uniformInt(10);
    if (action < 6) {  // put
      // A random version a log entry can store (48 bits).
      const std::uint64_t v = rng.next64() >> 16;
      m.put(k, es.add(k, v, 100));
      oracle[k] = v;
    } else if (action < 8) {  // erase
      const bool a = m.erase(k);
      const bool b = oracle.erase(k) > 0;
      ASSERT_EQ(a, b);
    } else {  // get
      const auto got = m.get(k);
      auto it = oracle.find(k);
      ASSERT_EQ(got.has_value(), it != oracle.end());
      if (got) {
        ASSERT_EQ(got->version, it->second);
      }
    }
  }
  ASSERT_EQ(m.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    const auto got = m.get(k);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->version, v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ObjectMapProperty,
    ::testing::Values(PropParam{1, 20000, 64}, PropParam{2, 20000, 4096},
                      PropParam{3, 50000, 256}, PropParam{4, 5000, 16},
                      PropParam{99, 30000, 100000}));

}  // namespace
}  // namespace rc::hash
