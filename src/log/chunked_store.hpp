#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace rc::log {

/// An append-only sequence kept in fixed chunks of `kChunk` elements.
/// Appending never moves an element, so a reference to one stays valid for
/// the store's lifetime, and spare capacity is at most one partly filled
/// chunk (a doubling vector carries up to its whole size, and copies every
/// element each time it grows). Indexing costs one more load than a
/// vector's: the chunk's address.
template <typename T, std::size_t kChunk>
class ChunkedStore {
  static_assert(kChunk > 0 && (kChunk & (kChunk - 1)) == 0,
                "chunk length must be a power of two");

 public:
  std::size_t size() const { return size_; }

  const T& operator[](std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }
  T& operator[](std::size_t i) { return chunks_[i / kChunk][i % kChunk]; }

  /// Appends `v` and returns its index.
  std::size_t push_back(T v) {
    if (size_ % kChunk == 0) chunks_.emplace_back().reserve(kChunk);
    // Initialise the slot, then assign: copying a bit-field struct straight
    // into raw capacity reads the slot first, and a read is what first
    // touches a fresh page, which then faults twice (zero page, then copy).
    chunks_.back().emplace_back() = std::move(v);
    return size_++;
  }

 private:
  std::vector<std::vector<T>> chunks_;  ///< each reserved at exactly kChunk
  std::size_t size_ = 0;
};

}  // namespace rc::log
