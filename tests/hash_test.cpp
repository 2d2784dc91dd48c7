// Unit and property tests for the object map (hash-table index).

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "hash/object_map.hpp"
#include "sim/rng.hpp"

namespace rc::hash {
namespace {

ObjectLocation loc(std::uint32_t seg, std::uint32_t idx, std::uint64_t v) {
  return ObjectLocation{log::LogRef{seg, idx}, v, 1000};
}

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
  ObjectMap m;
  EXPECT_FALSE(m.put({1, 10}, loc(1, 0, 1)).has_value());  // fresh insert
  const auto* got = m.get({1, 10});
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->version, 1u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(ObjectMap, MissingKeyIsNull) {
  ObjectMap m;
  EXPECT_EQ(m.get({1, 99}), nullptr);
}

TEST(ObjectMap, OverwriteKeepsSizeAndUpdates) {
  ObjectMap m;
  EXPECT_FALSE(m.put({1, 10}, loc(1, 0, 1)).has_value());
  const auto displaced = m.put({1, 10}, loc(2, 5, 7));
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(displaced->version, 1u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.get({1, 10})->version, 7u);
  EXPECT_EQ(m.get({1, 10})->ref.segment, 2u);
}

TEST(ObjectMap, EraseRemoves) {
  ObjectMap m;
  m.put({1, 10}, loc(1, 0, 1));
  EXPECT_TRUE(m.erase({1, 10}));
  EXPECT_EQ(m.get({1, 10}), nullptr);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.erase({1, 10}));
}

TEST(ObjectMap, ReinsertAfterEraseWorks) {
  ObjectMap m;
  m.put({1, 10}, loc(1, 0, 1));
  m.erase({1, 10});
  EXPECT_FALSE(m.put({1, 10}, loc(3, 3, 3)).has_value());
  EXPECT_EQ(m.get({1, 10})->version, 3u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(ObjectMap, GrowsPastInitialCapacity) {
  ObjectMap m(8);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    m.put({1, k}, loc(1, static_cast<std::uint32_t>(k), k));
  }
  EXPECT_EQ(m.size(), 10000u);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(m.get({1, k}), nullptr) << k;
    EXPECT_EQ(m.get({1, k})->version, k);
  }
  EXPECT_LE(m.loadFactor(), 0.7 + 1e-9);
}

TEST(ObjectMap, GetMutableAllowsInPlaceUpdate) {
  ObjectMap m;
  m.put({1, 1}, loc(1, 0, 1));
  m.getMutable({1, 1})->ref = log::LogRef{9, 9};
  EXPECT_EQ(m.get({1, 1})->ref.segment, 9u);
}

TEST(ObjectMap, DistinguishesTables) {
  ObjectMap m;
  m.put({1, 5}, loc(1, 0, 1));
  m.put({2, 5}, loc(2, 0, 2));
  EXPECT_EQ(m.get({1, 5})->version, 1u);
  EXPECT_EQ(m.get({2, 5})->version, 2u);
}

TEST(ObjectMap, ForEachVisitsAllLiveEntries) {
  ObjectMap m;
  for (std::uint64_t k = 0; k < 100; ++k) m.put({1, k}, loc(1, 0, k));
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
  ObjectMap m;
  const ObjectLocation first{log::LogRef{4, 17}, 23, 1234};
  EXPECT_FALSE(m.put({1, 10}, first).has_value());
  const auto displaced = m.put({1, 10}, loc(5, 2, 24));
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(displaced->ref, first.ref);
  EXPECT_EQ(displaced->version, first.version);
  EXPECT_EQ(displaced->sizeBytes, first.sizeBytes);
  EXPECT_EQ(m.get({1, 10})->version, 24u);
  EXPECT_EQ(m.size(), 1u);
  // A key erased in between is not displaced: its slot is a tombstone.
  m.erase({1, 10});
  EXPECT_FALSE(m.put({1, 10}, loc(6, 0, 25)).has_value());
}

TEST(ObjectMap, PutReusesATombstoneSlot) {
  ObjectMap m(64);
  for (std::uint64_t k = 0; k < 20; ++k) m.put({1, k}, loc(1, 0, k));
  const double full = m.loadFactor();
  m.erase({1, 7});
  EXPECT_DOUBLE_EQ(m.loadFactor(), full);  // the tombstone still counts
  // Re-inserting takes the tombstone back instead of a fresh slot.
  EXPECT_FALSE(m.put({1, 7}, loc(2, 0, 70)).has_value());
  EXPECT_DOUBLE_EQ(m.loadFactor(), full);
  EXPECT_EQ(m.get({1, 7})->version, 70u);
  EXPECT_EQ(m.size(), 20u);
}

TEST(ObjectMap, ForEachOrderIsPinnedAcrossTwoGrows) {
  // Migration batches and scans follow forEach order, so it must depend on
  // the put/erase sequence alone. 14 keys grow an 8-slot map twice (at the
  // 6th and the 12th put).
  ObjectMap m(8);
  for (std::uint64_t k = 0; k < 14; ++k) m.put({7, k}, loc(1, 0, k));
  EXPECT_EQ(m.bucketCount(), 32u);
  m.erase({7, 3});
  m.erase({7, 9});
  m.put({7, 9}, loc(1, 0, 99));
  std::vector<std::uint64_t> order;
  m.forEach([&](const Key& k, const ObjectLocation&) {
    order.push_back(k.keyId);
  });
  const std::vector<std::uint64_t> pinned{9, 0, 13, 1, 6, 7, 11,
                                          5, 12, 8, 10, 2, 4};
  EXPECT_EQ(order, pinned);
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
  ObjectMap m(8);
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
      const std::uint64_t v = rng.next64();
      m.put(k, ObjectLocation{log::LogRef{1, 0}, v, 100});
      oracle[k] = v;
    } else if (action < 8) {  // erase
      const bool a = m.erase(k);
      const bool b = oracle.erase(k) > 0;
      ASSERT_EQ(a, b);
    } else {  // get
      const auto* got = m.get(k);
      auto it = oracle.find(k);
      ASSERT_EQ(got != nullptr, it != oracle.end());
      if (got != nullptr) {
        ASSERT_EQ(got->version, it->second);
      }
    }
  }
  ASSERT_EQ(m.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    const auto* got = m.get(k);
    ASSERT_NE(got, nullptr);
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
