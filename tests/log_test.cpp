// Unit and property tests for the log-structured memory and its cleaner.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <unordered_map>

#include "core/cluster.hpp"
#include "log/cleaner.hpp"
#include "log/log.hpp"
#include "server/backup_service.hpp"
#include "server/master_service.hpp"
#include "sim/rng.hpp"

namespace rc::log {
namespace {

LogEntry object(std::uint64_t key, std::uint32_t size, std::uint64_t version) {
  LogEntry e;
  e.tableId = 1;
  e.keyId = key;
  e.sizeBytes = size;
  e.version = version;
  return e;
}

LogParams smallLog(std::uint64_t segBytes = 1024,
                   std::uint64_t capacity = 16 * 1024) {
  LogParams p;
  p.segmentBytes = segBytes;
  p.capacityBytes = capacity;
  return p;
}

TEST(Segment, AppendTracksBytesAndLiveness) {
  Segment s(1, 1000, 0);
  EXPECT_TRUE(s.hasRoom(400));
  const auto i0 = s.append(object(1, 400, 1));
  const auto i1 = s.append(object(2, 400, 2));
  EXPECT_FALSE(s.hasRoom(400));
  EXPECT_EQ(s.appendedBytes(), 800u);
  EXPECT_EQ(s.liveBytes(), 800u);
  s.markDead(i0);
  EXPECT_EQ(s.liveBytes(), 400u);
  EXPECT_DOUBLE_EQ(s.utilisation(), 0.5);
  s.markDead(i0);  // idempotent
  EXPECT_EQ(s.liveBytes(), 400u);
  EXPECT_EQ(s.entry(i1).keyId, 2u);
}

TEST(Segment, SealedRefusesAppends) {
  Segment s(1, 1000, 0);
  s.seal();
  EXPECT_FALSE(s.hasRoom(1));
}

// Table id and version share one 64-bit word of the hot entry; size, type
// and liveness share one 32-bit word.
static_assert(sizeof(HotEntry) == 24);
static_assert(kMaxEntryBytes == (1u << 28) - 1);
static_assert(kMaxTableId == (1u << 16) - 1);
static_assert(kMaxVersion == (1ULL << 48) - 1);
static_assert(kMaxCompletionRpcSeq == (1ULL << 55) - 1);

TEST(Segment, RefusesAnEntryTooLargeToRecordAndNeverTruncates) {
  Segment s(1, 1ULL << 30, 0);
  EXPECT_THROW(s.append(object(1, kMaxEntryBytes + 1, 1)), std::length_error);
  EXPECT_THROW(s.append(object(2, 0xffff'ffffu, 2)), std::length_error);
  EXPECT_EQ(s.entryCount(), 0u);
  EXPECT_EQ(s.appendedBytes(), 0u);
  EXPECT_EQ(s.liveBytes(), 0u);
  // The largest recordable size reads back whole.
  const auto i = s.append(object(3, kMaxEntryBytes, 3));
  EXPECT_EQ(s.hotEntries()[i].sizeBytes, kMaxEntryBytes);
  EXPECT_EQ(s.entry(i).sizeBytes, kMaxEntryBytes);
  EXPECT_EQ(s.appendedBytes(), kMaxEntryBytes);

  // A log with segments that could hold it refuses it before rolling.
  Log log(smallLog(1ULL << 30, 1ULL << 32));
  log.append(object(4, 100, 4), 0);
  EXPECT_THROW(log.append(object(5, kMaxEntryBytes + 1, 5), 0),
               std::invalid_argument);
  EXPECT_EQ(log.segments().size(), 1u);
  EXPECT_EQ(log.appendedBytes(), 100u);
}

/// One past each stored field's limit, each on a record that is otherwise
/// storable.
std::vector<LogEntry> onePastEachLimit() {
  LogEntry table = object(10, 100, 1);
  table.tableId = kMaxTableId + 1;
  LogEntry version = object(11, 100, kMaxVersion + 1);
  LogEntry version64 = object(12, 100, ~0ULL);
  LogEntry seq = object(13, 100, 1);
  seq.type = EntryType::kCompletion;
  seq.clientId = 1;
  seq.rpcSeq = kMaxCompletionRpcSeq + 1;
  LogEntry seq64 = seq;
  seq64.rpcSeq = ~0ULL;
  return {table, version, version64, seq, seq64};
}

TEST(Segment, RefusesAFieldBeyondItsStoredWidthAndChangesNothing) {
  Segment s(1, 1ULL << 20, 0);
  s.append(object(1, 100, 5));
  for (const LogEntry& e : onePastEachLimit()) {
    SCOPED_TRACE(::testing::Message() << "key " << e.keyId);
    EXPECT_THROW(s.append(e), std::length_error);
    EXPECT_EQ(s.entryCount(), 1u);
    EXPECT_EQ(s.appendedBytes(), 100u);
    EXPECT_EQ(s.liveBytes(), 100u);
  }

  Log log(smallLog(1 << 20, 1 << 24));
  log.append(object(1, 100, 5), 0);
  for (const LogEntry& e : onePastEachLimit()) {
    SCOPED_TRACE(::testing::Message() << "key " << e.keyId);
    EXPECT_THROW(log.append(e, 0), std::invalid_argument);
    EXPECT_EQ(log.segments().size(), 1u);
    EXPECT_EQ(log.head()->entryCount(), 1u);
    EXPECT_EQ(log.appendedBytes(), 100u);
    EXPECT_EQ(log.liveBytes(), 100u);
  }
  // The refused versions did not move the version counter either.
  EXPECT_EQ(log.nextVersion(), 6u);
}

TEST(Segment, EntryAddressIsStableAcrossAppends) {
  Segment s(1, 1ULL << 30, 0);
  const auto i = s.append(object(7, 100, 3));
  const HotEntry& held = s.hotEntries()[i];
  for (std::uint64_t k = 0; k < 1000; ++k) s.append(object(100 + k, 100, 4));
  EXPECT_EQ(&s.hotEntries()[i], &held);
  EXPECT_EQ(held.keyId, 7u);
  EXPECT_EQ(held.version, 3u);
  EXPECT_EQ(held.sizeBytes, 100u);
  EXPECT_TRUE(held.live);
  EXPECT_EQ(held.type, EntryType::kObject);
}

TEST(Log, RollsHeadWhenFull) {
  Log log(smallLog());
  int sealed = 0;
  int opened = 0;
  log.onSegmentSealed = [&](Segment&) { ++sealed; };
  log.onSegmentOpened = [&](Segment&) { ++opened; };
  for (int i = 0; i < 10; ++i) {
    log.append(object(static_cast<std::uint64_t>(i), 300, 1), 0);
  }
  // 3 entries of 300 B fit in a 1024 B segment.
  EXPECT_EQ(opened, 4);
  EXPECT_EQ(sealed, 3);
  EXPECT_EQ(log.segments().size(), 4u);
}

TEST(Log, EntryAtResolvesRefs) {
  Log log(smallLog());
  const LogRef ref = log.append(object(7, 100, 3), 0);
  EXPECT_EQ(log.entryAt(ref).keyId, 7u);
  EXPECT_EQ(log.entryAt(ref).version, 3u);
}

TEST(Log, MarkDeadUpdatesGlobalLiveBytes) {
  Log log(smallLog());
  const LogRef a = log.append(object(1, 100, 1), 0);
  log.append(object(2, 100, 2), 0);
  EXPECT_EQ(log.liveBytes(), 200u);
  log.markDead(a);
  EXPECT_EQ(log.liveBytes(), 100u);
}

TEST(Log, OversizeEntryThrows) {
  Log log(smallLog(512));
  EXPECT_THROW(log.append(object(1, 600, 1), 0), std::invalid_argument);
}

TEST(Log, SegmentIdBaseGivesDisjointRanges) {
  LogParams a = smallLog();
  a.segmentIdBase = 1000;
  Log log(a);
  const LogRef r = log.append(object(1, 10, 1), 0);
  EXPECT_EQ(r.segment, 1000u);
}

TEST(Log, AdoptForeignSegment) {
  Log donorLog(smallLog());
  donorLog.append(object(5, 100, 1), 0);
  donorLog.sealHead();
  ASSERT_EQ(donorLog.segments().size(), 1u);
  auto seg = donorLog.segments().begin()->second;

  LogParams p = smallLog();
  p.segmentIdBase = 500;
  Log host(p);
  host.adopt(seg);
  EXPECT_NE(host.segment(1), nullptr);
  EXPECT_EQ(host.liveBytes(), 100u);
}

TEST(Log, NeedsCleaningAboveThreshold) {
  LogParams p = smallLog(1024, 4096);  // 4 segments max
  p.cleanerThreshold = 0.5;
  Log log(p);
  EXPECT_FALSE(log.needsCleaning());
  for (int i = 0; i < 9; ++i) {
    log.append(object(static_cast<std::uint64_t>(i), 300, 1), 0);
  }
  EXPECT_TRUE(log.needsCleaning());  // 3 segments allocated > 2
}

TEST(Cleaner, ReclaimsDeadOnlySegment) {
  Log log(smallLog());
  std::vector<LogRef> refs;
  for (int i = 0; i < 3; ++i) {
    refs.push_back(log.append(object(static_cast<std::uint64_t>(i), 300, 1), 0));
  }
  log.sealHead();
  for (const auto& r : refs) log.markDead(r);
  LogCleaner cleaner(log, nullptr);
  const auto reclaimed = cleaner.cleanOnce(sim::seconds(10));
  EXPECT_EQ(reclaimed, 900u);
  EXPECT_EQ(cleaner.stats().bytesRelocated, 0u);
  EXPECT_EQ(log.segment(1), nullptr);
}

TEST(Cleaner, RelocatesLiveEntriesAndNotifies) {
  Log log(smallLog());
  const LogRef a = log.append(object(1, 300, 1), 0);
  const LogRef b = log.append(object(2, 300, 2), 0);
  log.append(object(3, 300, 3), 0);
  log.sealHead();
  log.markDead(a);

  std::map<std::uint64_t, LogRef> relocated;
  LogCleaner cleaner(log, [&](const LogEntry& e, LogRef nr) {
    relocated[e.keyId] = nr;
  });
  cleaner.cleanSegment(b.segment, sim::seconds(1));
  EXPECT_EQ(relocated.size(), 2u);  // keys 2 and 3 moved, key 1 was dead
  EXPECT_EQ(log.entryAt(relocated[2]).version, 2u);
  EXPECT_EQ(log.liveBytes(), 600u);
}

TEST(Cleaner, SelectsLowestUtilisationVictim) {
  Log log(smallLog());
  // Segment 1: all dead. Segment 2: all live.
  std::vector<LogRef> first;
  for (int i = 0; i < 3; ++i) {
    first.push_back(log.append(object(static_cast<std::uint64_t>(i), 300, 1), 0));
  }
  for (int i = 3; i < 6; ++i) {
    log.append(object(static_cast<std::uint64_t>(i), 300, 1), 0);
  }
  log.sealHead();
  for (const auto& r : first) log.markDead(r);
  LogCleaner cleaner(log, nullptr);
  EXPECT_EQ(cleaner.selectVictim(sim::seconds(5)), first[0].segment);
}

TEST(Cleaner, GreedyIgnoresAgeCostBenefitUsesIt) {
  // Two sealed segments with equal utilisation but different ages: greedy
  // is indifferent (picks the first-best), cost-benefit must prefer the
  // OLDER one (stable data pays off longer).
  Log log(smallLog());
  const LogRef oldA = log.append(object(1, 300, 1), /*now=*/0);
  log.append(object(2, 300, 2), 0);
  log.append(object(3, 300, 3), 0);
  // Second segment created much later.
  const LogRef newA = log.append(object(4, 300, 4), sim::seconds(100));
  log.append(object(5, 300, 5), sim::seconds(100));
  log.append(object(6, 300, 6), sim::seconds(100));
  log.sealHead();
  log.markDead(oldA);
  log.markDead(newA);  // both segments now at 2/3 utilisation

  LogCleaner costBenefit(log, nullptr, CleanerPolicy::kCostBenefit);
  EXPECT_EQ(costBenefit.selectVictim(sim::seconds(200)), oldA.segment);

  LogCleaner greedy(log, nullptr, CleanerPolicy::kGreedy);
  // Greedy scores both equally (same utilisation); it must still pick a
  // valid victim.
  const SegmentId g = greedy.selectVictim(sim::seconds(200));
  EXPECT_TRUE(g == oldA.segment || g == newA.segment);
}

TEST(Cleaner, WriteAmplificationStat) {
  Log log(smallLog());
  const LogRef a = log.append(object(1, 300, 1), 0);
  log.append(object(2, 300, 2), 0);
  log.append(object(3, 300, 3), 0);
  log.sealHead();
  log.markDead(a);
  LogCleaner cleaner(log, nullptr);
  cleaner.cleanSegment(a.segment, sim::seconds(1));
  // 600 B relocated for 900 B reclaimed.
  EXPECT_NEAR(cleaner.stats().writeAmplification(), 600.0 / 900.0, 1e-9);
}

TEST(Cleaner, SkipsUnsealedHead) {
  Log log(smallLog());
  log.append(object(1, 100, 1), 0);
  LogCleaner cleaner(log, nullptr);
  EXPECT_EQ(cleaner.selectVictim(sim::seconds(1)), kInvalidSegment);
  EXPECT_EQ(cleaner.cleanOnce(sim::seconds(1)), 0u);
}

TEST(Cleaner, DropsTombstoneWhenObjectSegmentGone) {
  Log log(smallLog());
  const LogRef obj = log.append(object(1, 300, 1), 0);
  LogEntry tomb;
  tomb.tableId = 1;
  tomb.keyId = 1;
  tomb.sizeBytes = 60;
  tomb.version = 2;
  tomb.type = EntryType::kTombstone;
  tomb.refSegment = obj.segment;
  log.append(tomb, 0);
  log.append(object(9, 600, 3), 0);  // roll to next segment soon
  log.append(object(10, 600, 4), 0);
  log.sealHead();

  // Kill the object, clean its segment away, then clean the tombstone's
  // segment: the tombstone must be dropped, not relocated.
  log.markDead(obj);
  LogCleaner cleaner(log, nullptr);
  cleaner.cleanSegment(obj.segment, sim::seconds(1));
  EXPECT_EQ(cleaner.stats().tombstonesDropped, 1u);
}

// ---- Round trips of every record type. A segment stores each record as a
// 32-byte hot entry plus, for completion and tx records, an entry in the
// completion or the tx side store; every boundary that hands records on
// (segment reads, the cleaner, backup filtering, recovery replay, migration
// batches) must give back every field it was given. The record sets span
// more than one chunk of the hot store and of each side store.

/// Compares every LogEntry field; `live` only when asked (recovery and
/// migration re-append copies as live and may mark them dead afterwards).
void expectSameRecord(const LogEntry& want, const LogEntry& got,
                      bool compareLive = true) {
  SCOPED_TRACE(::testing::Message()
               << "type " << static_cast<int>(want.type) << " key "
               << want.keyId);
  EXPECT_EQ(got.tableId, want.tableId);
  EXPECT_EQ(got.keyId, want.keyId);
  EXPECT_EQ(got.version, want.version);
  EXPECT_EQ(got.clientId, want.clientId);
  EXPECT_EQ(got.rpcSeq, want.rpcSeq);
  EXPECT_EQ(got.txId, want.txId);
  EXPECT_EQ(got.txExpectedVersion, want.txExpectedVersion);
  EXPECT_EQ(got.sizeBytes, want.sizeBytes);
  EXPECT_EQ(got.refSegment, want.refSegment);
  EXPECT_EQ(got.txPendingBytes, want.txPendingBytes);
  EXPECT_EQ(got.type, want.type);
  if (compareLive) {
    EXPECT_EQ(got.live, want.live);
  }
  EXPECT_EQ(got.opStatus, want.opStatus);
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.txCommit, want.txCommit);
  ASSERT_EQ(got.txParticipants == nullptr, want.txParticipants == nullptr);
  if (want.txParticipants) {
    EXPECT_EQ(*got.txParticipants, *want.txParticipants);
  }
}

/// One record of each type on `keys[0..4]`, every field its type uses set
/// to a distinct non-default value. Versions come from `nextVersion`. Sizes
/// follow the master's record-size constants so migration rebuilds the same
/// records.
std::vector<LogEntry> oneOfEachType(std::uint64_t tableId,
                                    const std::vector<std::uint64_t>& keys,
                                    SegmentId tombstoneRef,
                                    const std::function<std::uint64_t()>&
                                        nextVersion) {
  auto base = [&](std::size_t i, EntryType type, std::uint32_t size) {
    LogEntry e;
    e.tableId = tableId;
    e.keyId = keys[i];
    e.version = nextVersion();
    e.type = type;
    e.sizeBytes = size;
    return e;
  };
  LogEntry obj = base(0, EntryType::kObject,
                      1000 + server::kObjectOverheadBytes);

  LogEntry tomb = base(1, EntryType::kTombstone, server::kTombstoneBytes);
  tomb.refSegment = tombstoneRef;

  LogEntry done = base(2, EntryType::kCompletion,
                       server::kCompletionRecordBytes);
  done.clientId = 0x5151;
  done.rpcSeq = 17;
  done.opStatus = 3;
  done.found = false;

  LogEntry prep = base(3, EntryType::kTxPrepare,
                       server::kTxPrepareRecordBytes);
  prep.clientId = 0x6262;
  prep.rpcSeq = 29;
  prep.opStatus = 0;
  prep.txId = 0x7a7a;
  prep.txPendingBytes = 777;
  prep.txExpectedVersion = prep.version;  // a vote on the current version
  prep.txParticipants = std::make_shared<
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>>(
      std::vector<std::pair<std::uint64_t, std::uint64_t>>{
          {tableId, keys[3]}, {tableId, keys[4]}});

  LogEntry dec = base(4, EntryType::kTxDecision,
                      server::kCompletionRecordBytes);
  dec.clientId = 0x8383;
  dec.rpcSeq = 41;
  dec.opStatus = 0;
  dec.txId = 0x9b9b;
  dec.txCommit = true;
  return {obj, tomb, done, prep, dec};
}

std::function<std::uint64_t()> counterFrom(std::uint64_t first) {
  return [v = first]() mutable { return v++; };
}

/// Rounds of oneOfEachType: enough that a segment holding them all spans
/// two chunks of the hot, the completion and the tx store.
constexpr std::size_t kRounds = Segment::kChunkEntries + 8;

/// kRounds record sets, round r on keys[5r .. 5r+4]. Each round's side
/// fields differ, so a record read from the wrong store entry shows.
std::vector<LogEntry> manyOfEachType(std::uint64_t tableId,
                                     const std::vector<std::uint64_t>& keys,
                                     SegmentId tombstoneRef,
                                     const std::function<std::uint64_t()>&
                                         nextVersion) {
  std::vector<LogEntry> out;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const std::vector<std::uint64_t> roundKeys(keys.begin() + 5 * r,
                                               keys.begin() + 5 * r + 5);
    for (LogEntry& e :
         oneOfEachType(tableId, roundKeys, tombstoneRef, nextVersion)) {
      if (e.clientId != 0) e.rpcSeq += 100 * r;
      if (e.txId != 0) e.txId += r;
      if (e.type == EntryType::kCompletion) e.found = r % 2 == 1;
      out.push_back(std::move(e));
    }
  }
  return out;
}

std::vector<std::uint64_t> keyRange(std::uint64_t first, std::size_t n) {
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = first + i;
  return keys;
}

TEST(LogRecord, EveryTypeRoundTripsThroughSegmentCleanerAndBackupFilter) {
  Log log(smallLog(4 << 20, 64 << 20));
  // The tombstone's object lives in another segment that outlives the
  // cleaning, so the cleaner relocates the tombstone rather than drop it.
  const LogRef anchor = log.append(object(999'999, 300, 1), 0);
  log.sealHead();
  const auto records = manyOfEachType(1, keyRange(1, 5 * kRounds),
                                      anchor.segment, counterFrom(2));
  std::vector<LogRef> refs;
  for (const LogEntry& e : records) refs.push_back(log.append(e, 0));
  log.sealHead();

  // Segment read, through both Log and Segment.
  const Segment* seg = log.segment(refs[0].segment);
  ASSERT_NE(seg, nullptr);
  ASSERT_EQ(refs.back().segment, refs[0].segment);
  for (std::size_t i = 0; i < records.size(); ++i) {
    expectSameRecord(records[i], log.entryAt(refs[i]));
    expectSameRecord(records[i], seg->entry(refs[i].index));
    EXPECT_EQ(seg->hotEntries()[refs[i].index].sizeBytes,
              records[i].sizeBytes);
  }

  // Backup filtering hands recovery the same records, in log order.
  server::PartitionSpec all;
  server::Tablet t;
  t.tableId = 1;
  all.ranges.push_back(t);
  {
    core::ClusterParams p;
    p.servers = 2;
    p.clients = 0;
    p.replicationFactor = 0;
    core::Cluster c(p);
    auto* bs = c.server(1).backup.get();
    const auto shared = log.sharedSegment(refs[0].segment);
    bs->bulkInstallFrame(c.serverNodeId(0), shared, shared->appendedBytes(),
                         true, false);
    const auto filtered =
        bs->filteredEntries(c.serverNodeId(0), shared->id(), all);
    ASSERT_EQ(filtered.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      expectSameRecord(records[i], filtered[i]);
    }
  }

  // Cleaner relocation: the callback and the relocated copy both see every
  // field.
  std::map<std::uint64_t, std::pair<LogEntry, LogRef>> moved;  // by key
  LogCleaner cleaner(log, [&](const LogEntry& e, LogRef nr) {
    moved.emplace(e.keyId, std::make_pair(e, nr));
  });
  cleaner.cleanSegment(refs[0].segment, sim::seconds(1));
  EXPECT_EQ(cleaner.stats().tombstonesDropped, 0u);
  ASSERT_EQ(moved.size(), records.size());
  for (const LogEntry& want : records) {
    const auto& [seen, nr] = moved.at(want.keyId);
    expectSameRecord(want, seen);
    expectSameRecord(want, log.entryAt(nr));
  }
}

TEST(LogRecord, EveryFieldRoundTripsAtItsLargestStorableValue) {
  Log log(smallLog(1 << 20, 1 << 24));
  std::vector<LogEntry> records;
  LogEntry obj = object(~0ULL, 100, kMaxVersion);
  obj.tableId = kMaxTableId;
  records.push_back(obj);
  // Every opStatus the 8-bit field holds, with both values of found.
  for (unsigned status = 0; status < 256; ++status) {
    for (const bool found : {false, true}) {
      LogEntry done = obj;
      done.keyId = 2 * status + (found ? 1 : 0);
      done.type = EntryType::kCompletion;
      done.sizeBytes = server::kCompletionRecordBytes;
      done.clientId = ~0ULL;
      done.rpcSeq = kMaxCompletionRpcSeq - status;
      done.opStatus = static_cast<std::uint8_t>(status);
      done.found = found;
      records.push_back(done);
    }
  }
  // A tx record keeps a full 64-bit rpcSeq.
  LogEntry dec = obj;
  dec.keyId = 1'000;
  dec.type = EntryType::kTxDecision;
  dec.sizeBytes = server::kCompletionRecordBytes;
  dec.clientId = ~0ULL;
  dec.rpcSeq = ~0ULL;
  dec.txId = ~0ULL;
  dec.txCommit = true;
  records.push_back(dec);

  std::vector<LogRef> refs;
  for (const LogEntry& e : records) refs.push_back(log.append(e, 0));
  log.sealHead();
  const Segment* seg = log.segment(refs[0].segment);
  ASSERT_NE(seg, nullptr);
  ASSERT_EQ(refs.back().segment, refs[0].segment);
  for (std::size_t i = 0; i < records.size(); ++i) {
    expectSameRecord(records[i], seg->entry(refs[i].index));
    const HotEntry& h = seg->hotEntries()[refs[i].index];
    EXPECT_EQ(h.tableId, kMaxTableId);
    EXPECT_EQ(h.version, kMaxVersion);
  }

  server::PartitionSpec all;
  server::Tablet t;
  t.tableId = kMaxTableId;
  all.ranges.push_back(t);
  core::ClusterParams p;
  p.servers = 2;
  p.clients = 0;
  p.replicationFactor = 0;
  core::Cluster c(p);
  auto* bs = c.server(1).backup.get();
  const auto shared = log.sharedSegment(refs[0].segment);
  bs->bulkInstallFrame(c.serverNodeId(0), shared, shared->appendedBytes(),
                       true, false);
  const auto filtered =
      bs->filteredEntries(c.serverNodeId(0), shared->id(), all);
  ASSERT_EQ(filtered.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    expectSameRecord(records[i], filtered[i]);
  }
}

/// The entry of `want`'s type, table, key and version in any live server's
/// log other than `skip`; fails the test unless there is exactly one.
LogEntry findCopy(core::Cluster& c, const LogEntry& want, int skip) {
  std::vector<LogEntry> found;
  for (int i = 0; i < c.serverCount(); ++i) {
    if (i == skip || !c.serverAlive(i)) continue;
    for (const auto& [id, seg] : c.server(i).master->log().segments()) {
      const auto& hot = seg->hotEntries();
      for (std::uint32_t j = 0; j < hot.size(); ++j) {
        if (hot[j].type == want.type && hot[j].tableId == want.tableId &&
            hot[j].keyId == want.keyId && hot[j].version == want.version) {
          found.push_back(seg->entry(j));
        }
      }
    }
  }
  EXPECT_EQ(found.size(), 1u) << "copies of type "
                              << static_cast<int>(want.type);
  return found.empty() ? LogEntry{} : found.front();
}

/// Keys of `table` that server `idx` owns, starting the search at `from`.
std::vector<std::uint64_t> keysOwnedBy(core::Cluster& c, int idx,
                                       std::uint64_t table, std::uint64_t from,
                                       std::size_t n) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = from; keys.size() < n; ++k) {
    if (c.server(idx).master->ownsKey(table, k)) keys.push_back(k);
  }
  return keys;
}

TEST(LogRecord, EveryTypeRoundTripsThroughRecoveryReplay) {
  core::ClusterParams p;
  p.servers = 4;
  p.clients = 0;
  p.replicationFactor = 2;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  c.bulkLoad(table, 400, 1000);
  auto& m0 = *c.server(0).master;
  Log& log = m0.log();

  // Keys beyond the bulk-loaded range, so replay sees one record per key.
  log.sealHead();
  const auto records =
      manyOfEachType(table, keysOwnedBy(c, 0, table, 10'000, 5 * kRounds),
                     log.segments().begin()->first,
                     [&log] { return log.nextVersion(); });
  for (const LogEntry& e : records) log.append(e, c.sim().now());
  log.sealHead();  // replicates the tail to the backups
  c.sim().runFor(sim::seconds(1));

  c.crashServer(0);
  for (int i = 0; i < 3000 && c.coord().recoveryLog().empty(); ++i) {
    c.sim().runFor(sim::msec(10));
  }
  ASSERT_FALSE(c.coord().recoveryLog().empty());
  ASSERT_TRUE(c.coord().recoveryLog().front().succeeded);
  for (const LogEntry& want : records) {
    expectSameRecord(want, findCopy(c, want, 0), /*compareLive=*/false);
  }
}

TEST(LogRecord, MigratedTypesRoundTripThroughAMigrationBatch) {
  // A migration batch carries objects, held tx locks' prepare records and
  // retained completion records (not tombstones or decisions).
  core::ClusterParams p;
  p.servers = 3;
  p.clients = 0;
  p.replicationFactor = 0;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  c.bulkLoad(table, 300, 1000);
  auto& m0 = *c.server(0).master;
  Log& log = m0.log();

  // The object is a bulk-loaded one; the completion and prepare records are
  // installed the way recovery installs them.
  const std::uint64_t objKey = keysOwnedBy(c, 0, table, 0, 1)[0];
  const LogEntry obj =
      log.entryAt(m0.objectMap().get(hash::Key{table, objKey})->ref);
  const auto crafted =
      manyOfEachType(table, keysOwnedBy(c, 0, table, 10'000, 5 * kRounds),
                     kInvalidSegment, [&log] { return log.nextVersion(); });
  std::vector<LogEntry> want{obj};
  for (std::size_t r = 0; r < kRounds; ++r) {
    const LogEntry& done = crafted[5 * r + 2];
    const LogEntry& prep = crafted[5 * r + 3];
    server::UnackedRpcResults::Result rr;
    rr.status = done.opStatus;
    rr.version = done.version;
    rr.found = done.found;
    rr.tableId = done.tableId;
    rr.keyId = done.keyId;
    rr.record = log.append(done, c.sim().now());
    ASSERT_TRUE(
        m0.unackedRpcResults().recover(done.clientId, done.rpcSeq, rr));
    ASSERT_TRUE(m0.installRecoveredTxLock(
        prep, log.append(prep, c.sim().now()), /*ownedByUnacked=*/false));
    want.push_back(done);
    want.push_back(prep);
  }

  const auto tablets = c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(0));
  ASSERT_EQ(tablets.size(), 1u);
  bool ok = false;
  c.migrateTablet(tablets[0], 1, [&ok](bool r) { ok = r; });
  // Compare before the orphan sweep (1 s) can resolve the crafted lock.
  for (int i = 0; i < 500 && !ok; ++i) c.sim().runFor(sim::msec(1));
  ASSERT_TRUE(ok);
  for (const LogEntry& w : want) {
    expectSameRecord(w, findCopy(c, w, 0), /*compareLive=*/false);
  }
}

// ---- Property: cleaning never loses live data. A model key-value map is
// mutated alongside the log; after heavy cleaning every live key's entry
// must still be resolvable with the right version.
class CleanerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CleanerProperty, NoLiveDataLostUnderChurn) {
  sim::Rng rng(GetParam());
  LogParams p;
  p.segmentBytes = 8 * 1024;
  p.capacityBytes = 64 * 1024;
  p.cleanerThreshold = 0.6;
  Log log(p);

  struct Loc {
    LogRef ref;
    std::uint64_t version;
  };
  std::unordered_map<std::uint64_t, Loc> model;

  LogCleaner cleaner(log, [&](const LogEntry& e, LogRef nr) {
    auto it = model.find(e.keyId);
    if (it != model.end() && it->second.version == e.version) {
      it->second.ref = nr;
    }
  });

  std::uint64_t version = 1;
  for (int op = 0; op < 5000; ++op) {
    const std::uint64_t key = rng.uniformInt(64);
    const auto size = static_cast<std::uint32_t>(100 + rng.uniformInt(400));
    const LogRef ref = log.append(object(key, size, version), op);
    if (auto it = model.find(key); it != model.end()) {
      log.markDead(it->second.ref);
    }
    model[key] = Loc{ref, version};
    ++version;

    while (log.needsCleaning()) {
      if (cleaner.cleanOnce(op) == 0) break;
    }
  }

  for (const auto& [key, loc] : model) {
    const LogEntry& e = log.entryAt(loc.ref);
    EXPECT_EQ(e.keyId, key);
    EXPECT_EQ(e.version, loc.version);
    EXPECT_TRUE(e.live);
  }
  // And the log stayed within its memory budget.
  EXPECT_LE(log.memoryInUse(), p.capacityBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CleanerProperty,
                         ::testing::Values(1, 7, 42, 99, 12345));

}  // namespace
}  // namespace rc::log
