// FencedStore — epoch-fencing decorator modelling S3 conditional writes.
//
// Failover correctness (see ginja/failover.h) hinges on the old primary
// never publishing another object once a standby has promoted. The
// HeartbeatWriter notices the bumped `meta/epoch` only at its next beat —
// a window in which the zombie's already-queued PUTs would still land.
// Real object stores close that window with conditional requests (S3
// If-None-Match); this decorator models the same contract locally:
//
//   * a FenceToken carries the highest epoch anyone has observed — the
//     promoting standby Raise()s it as part of Promote();
//   * a FencedStore wraps the primary's store with the epoch that primary
//     believes it owns. Every mutation (Put, Delete) re-checks the token
//     and returns ABORTED once a higher epoch exists.
//
// Reads (Get/List) pass through — a zombie may still observe, never
// mutate.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "cloud/object_store.h"

namespace ginja {

// The shared fencing epoch: a monotonic maximum. Thread-safe.
class FenceToken {
 public:
  // Records `epoch` if it is higher than anything seen so far.
  void Raise(std::uint64_t epoch) {
    std::uint64_t cur = epoch_.load(std::memory_order_relaxed);
    while (cur < epoch &&
           !epoch_.compare_exchange_weak(cur, epoch,
                                         std::memory_order_acq_rel)) {
    }
  }

  std::uint64_t current() const { return epoch_.load(std::memory_order_acquire); }

 private:
  std::atomic<std::uint64_t> epoch_{0};
};

using FenceTokenPtr = std::shared_ptr<FenceToken>;

class FencedStore : public ObjectStore {
 public:
  // `writer_epoch` is the epoch the wrapped writer believes it owns;
  // mutations fail with ABORTED once token->current() exceeds it.
  FencedStore(ObjectStorePtr inner, FenceTokenPtr token,
              std::uint64_t writer_epoch);

  Status Put(std::string_view name, ByteView data) override;
  Result<Bytes> Get(std::string_view name) override;
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override;
  Result<std::vector<ObjectMeta>> List(std::string_view prefix,
                                       std::string_view start_after) override;
  Status Delete(std::string_view name) override;

  bool fenced() const { return token_->current() > writer_epoch_; }
  std::uint64_t writer_epoch() const { return writer_epoch_; }

  // Mutations rejected because the fence was raised.
  std::uint64_t rejected_ops() const { return rejected_.load(); }

 private:
  Status CheckFence();  // Ok, or ABORTED with the epochs in the message

  ObjectStorePtr inner_;
  FenceTokenPtr token_;
  std::uint64_t writer_epoch_;
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace ginja
