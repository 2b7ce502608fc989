// Bounded lock-free multi-producer ring (Vyukov-style): the commit
// pipeline's one submit queue.
//
// Each cell carries an atomic sequence number: a producer claims a slot
// with one CAS on the tail and publishes by bumping the cell sequence. The
// claim order is the ring order, and the single consumer (the pipeline's
// Aggregator) pops strictly in that order, waiting at a claimed but not yet
// published head cell. So the order of successful claims *is* the write
// sequence: position p is the p-th write ever submitted, and nothing
// downstream reorders. Nothing ever blocks inside the queue, so a full
// ring surfaces as TryPush == false and the caller decides how to wait (the
// submit path yields: a full ring means the consumer is already behind,
// which is exactly the condition Ginja's Safety bound is about to convert
// into back-pressure anyway).
//
// The algorithm is MPMC-safe; we only rely on the MPSC subset.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace ginja {

template <typename T>
class MpscRing {
 public:
  // `capacity` is rounded up to a power of two (minimum 4).
  explicit MpscRing(std::size_t capacity) {
    std::size_t cap = 4;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  // Moves from `item` only on success; false when the ring is full. On
  // success, `pos_out` (when non-null) receives the claimed position: the
  // number of pushes claimed before this one.
  bool TryPush(T& item, std::size_t* pos_out = nullptr) {
    Cell* cell;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                                 static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->item = std::move(item);
    cell->seq.store(pos + 1, std::memory_order_release);
    if (pos_out != nullptr) *pos_out = pos;
    return true;
  }

  // Single-consumer pop; false when empty (or when the head slot's producer
  // has claimed but not yet published — the caller simply retries later).
  bool TryPop(T& out) {
    Cell* cell = &cells_[head_ & mask_];
    const std::size_t seq = cell->seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) -
            static_cast<std::intptr_t>(head_ + 1) !=
        0) {
      return false;
    }
    out = std::move(cell->item);
    cell->seq.store(head_ + mask_ + 1, std::memory_order_release);
    ++head_;
    return true;
  }

  // Positions claimed so far: every successful TryPush, counting those
  // still mid-publish. Any thread may call it; a producer always sees its
  // own claims.
  std::size_t Claimed() const {
    return tail_.load(std::memory_order_acquire);
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T item;
  };

  static constexpr std::size_t kCacheLine = 64;

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  // producers
  alignas(kCacheLine) std::size_t head_ = 0;              // consumer only
};

}  // namespace ginja
