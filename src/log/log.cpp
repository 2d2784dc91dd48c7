#include "log/log.hpp"

#include <cassert>
#include <stdexcept>

namespace rc::log {

Log::Log(LogParams params)
    : params_(params), nextSegmentId_(params.segmentIdBase) {}

Segment& Log::openNewHead(sim::SimTime now) {
  const SegmentId id = nextSegmentId_++;
  auto seg = std::make_shared<Segment>(id, params_.segmentBytes, now);
  Segment& ref = *seg;
  insert(std::move(seg));
  head_ = &ref;
  if (onSegmentOpened) onSegmentOpened(ref);
  return ref;
}

void Log::insert(std::shared_ptr<Segment> seg) {
  const SegmentId id = seg->id();
  if (!segments_.emplace(id, seg).second) return;  // ids never collide
  const std::size_t page = pageOf(id);
  if (page >= pages_.size()) pages_.resize(page + 1);
  auto& slots = pages_[page];
  const std::size_t off = id & kPageMask;
  if (off >= slots.size()) slots.resize(off + 1);
  slots[off] = std::move(seg);
}

std::shared_ptr<const Segment> Log::sharedSegment(SegmentId id) const {
  const Segment* seg = segment(id);
  return seg == nullptr ? nullptr : pages_[pageOf(id)][id & kPageMask];
}

void Log::adopt(std::shared_ptr<Segment> seg) {
  if (!seg) return;
  if (head_ == seg.get()) head_ = nullptr;
  appendedBytes_ += seg->appendedBytes();
  liveBytes_ += seg->liveBytes();
  const Segment::HotEntries& entries = seg->hotEntries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    noteVersion(entries[i].version);
  }
  insert(std::move(seg));
}

LogRef Log::append(const LogEntry& e, sim::SimTime now) {
  if (e.sizeBytes > params_.segmentBytes) {
    throw std::invalid_argument("log entry larger than a segment");
  }
  if (const char* why = unstorableField(e)) throw std::invalid_argument(why);
  if (head_ == nullptr) {
    openNewHead(now);
  } else if (!head_->hasRoom(e.sizeBytes)) {
    head_->seal();
    Segment* sealed = head_;
    head_ = nullptr;
    if (onSegmentSealed) onSegmentSealed(*sealed);
    openNewHead(now);
  }
  const std::uint32_t idx = head_->append(e);
  appendedBytes_ += e.sizeBytes;
  if (e.live) liveBytes_ += e.sizeBytes;
  noteVersion(e.version);
  return LogRef{head_->id(), idx};
}

void Log::markDead(LogRef ref) {
  Segment* seg = segment(ref.segment);
  if (seg == nullptr) return;  // segment already cleaned
  const std::uint32_t freed = seg->markDead(ref.index);
  assert(liveBytes_ >= freed);
  liveBytes_ -= freed;
}

LogEntry Log::entryAt(LogRef ref) const {
  const Segment* seg = segment(ref.segment);
  if (seg == nullptr) throw std::out_of_range("entryAt: freed segment");
  return seg->entry(ref.index);
}

void Log::freeSegment(SegmentId id) {
  auto it = segments_.find(id);
  if (it == segments_.end()) return;
  Segment& seg = *it->second;
  assert(seg.liveBytes() == 0 && "freeing a segment with live data");
  appendedBytes_ -= seg.appendedBytes();
  if (head_ == it->second.get()) head_ = nullptr;
  pages_[pageOf(id)][id & kPageMask].reset();
  segments_.erase(it);
}

void Log::sealHead() {
  if (head_ == nullptr) return;
  head_->seal();
  Segment* sealed = head_;
  head_ = nullptr;
  if (onSegmentSealed) onSegmentSealed(*sealed);
}

}  // namespace rc::log
