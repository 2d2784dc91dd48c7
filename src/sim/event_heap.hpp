#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_task.hpp"
#include "sim/time.hpp"

namespace rc::sim {

/// Identifier of a scheduled event; usable to cancel it.
using EventId = std::uint64_t;

constexpr EventId kInvalidEvent = 0;

/// Indexed 4-ary min-heap of timer events, keyed on (time, seq).
///
/// seq is a monotone scheduling counter, so ties on time break in FIFO
/// scheduling order. That ordering contract is what keeps every seeded run
/// bit-identical. A subsystem that replaces per-request timers with one
/// lazily armed timer (RpcSystem's deadline queues) reserves the seq its
/// timer *would* have taken (reserveSeq) and later pushes the timer under
/// exactly that seq (pushAtSeq), so it still sorts where the eager timer
/// sat.
///
/// Callbacks are constructed directly in a chunked slot arena and run in
/// place: a chunk never moves, so a running callback may schedule any
/// number of further events without invalidating itself. The heap array
/// holds only (time, seq, slot) triples; each slot's generation and heap
/// position live in a flat side table, which makes cancel() an O(log n)
/// eager removal. A 4-ary layout halves the tree depth of a binary heap
/// and keeps the children compared per level within one cache line.
///
/// EventIds encode (generation << 32 | slot); generations bump on every
/// slot reuse, so cancelling an id that already ran is a harmless no-op.
class EventHeap {
 public:
  struct Item {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Consume the next seq without pushing an event (see pushAtSeq).
  std::uint64_t reserveSeq() { return nextSeq_++; }

  /// Insert a callback at `time`; FIFO among equal times.
  template <typename F>
  EventId push(SimTime time, F&& cb) {
    return pushAtSeq(time, nextSeq_++, std::forward<F>(cb));
  }

  /// Insert a callback under a seq obtained from reserveSeq(). Every
  /// (time, seq) key in the heap must be unique.
  template <typename F>
  EventId pushAtSeq(SimTime time, std::uint64_t seq, F&& cb) {
    const std::uint32_t slot = acquireSlot();
    task(slot).emplace(std::forward<F>(cb));
    const std::size_t i = heap_.size();
    heap_.push_back(Item{time, seq, slot});
    meta_[slot].pos = static_cast<std::int32_t>(i);
    siftUp(i);
    return makeId(meta_[slot].gen, slot);
  }

  /// Remove a pending event. Returns false (no-op) if the id already ran
  /// (or is running), was already cancelled, or never existed.
  bool cancel(EventId id) {
    const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= meta_.size()) return false;
    const Meta& m = meta_[slot];
    if (m.gen != gen || m.pos < 0) return false;
    removeAt(static_cast<std::size_t>(m.pos));
    release(slot);
    return true;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Precondition: !empty().
  SimTime topTime() const { return heap_[0].time; }

  /// Unlink the earliest event from the heap; precondition: !empty(). Its
  /// callback stays in its slot: run it with task(slot), then release(slot).
  Item popTop() {
    const Item top = heap_[0];
    removeAt(0);
    return top;
  }

  /// The callback stored in `slot`; the reference stays valid until the
  /// slot is released, however many events are pushed meanwhile.
  InlineTask& task(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  /// Destroy a popped event's callback and recycle its slot.
  void release(std::uint32_t slot) {
    task(slot).reset();
    Meta& m = meta_[slot];
    m.pos = -1;
    if (++m.gen == 0) m.gen = 1;  // keep ids != kInvalidEvent
    free_.push_back(slot);
  }

 private:
  static constexpr std::uint32_t kChunkBits = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  struct Meta {
    std::uint32_t gen = 1;
    std::int32_t pos = -1;
  };

  static EventId makeId(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  static bool before(const Item& a, const Item& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::uint32_t acquireSlot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    const auto slot = static_cast<std::uint32_t>(meta_.size());
    if ((slot & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<InlineTask[]>(kChunkSize));
    }
    meta_.emplace_back();
    return slot;
  }

  void place(std::size_t i, const Item& item) {
    heap_[i] = item;
    meta_[item.slot].pos = static_cast<std::int32_t>(i);
  }

  void removeAt(std::size_t i) {
    const std::size_t last = heap_.size() - 1;
    meta_[heap_[i].slot].pos = -1;
    if (i != last) {
      const Item moved = heap_[last];
      heap_.pop_back();
      place(i, moved);
      if (i > 0 && before(heap_[i], heap_[(i - 1) / 4])) {
        siftUp(i);
      } else {
        siftDown(i);
      }
    } else {
      heap_.pop_back();
    }
  }

  void siftUp(std::size_t i) {
    const Item item = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(item, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, item);
  }

  void siftDown(std::size_t i) {
    const Item item = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], item)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, item);
  }

  std::vector<Item> heap_;
  std::vector<Meta> meta_;
  std::vector<std::unique_ptr<InlineTask[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint64_t nextSeq_ = 1;
};

}  // namespace rc::sim
