// Cloud object-storage abstraction.
//
// Ginja deliberately assumes nothing beyond the four REST verbs every
// object store offers (paper §5): PUT, GET, LIST, DELETE. Concrete backends
// in this repo: an in-memory store, an on-disk store, and decorators that
// add latency, metering (for the cost model), fault injection, and
// multi-cloud replication. All are safe for concurrent use — Ginja uploads
// from several CommitThreads in parallel.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace ginja {

struct ObjectMeta {
  std::string name;
  std::uint64_t size = 0;
};

class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  // Creates or overwrites an object.
  virtual Status Put(std::string_view name, ByteView data) = 0;

  virtual Result<Bytes> Get(std::string_view name) = 0;

  // Lists objects whose names start with `prefix`, in lexicographic order.
  virtual Result<std::vector<ObjectMeta>> List(std::string_view prefix) = 0;

  // Cursor form: only names strictly after `start_after` (lexicographic)
  // are returned — S3's ListObjectsV2 `start-after` knob. Incremental
  // consumers (the warm standby's tail poll) pass the key they have
  // already consumed up to, so a steady-state pass costs O(new objects)
  // instead of re-listing the whole bucket. The base implementation
  // filters a full List; backends with an ordered index override it to
  // seek. NOTE: WAL timestamps are encoded without zero padding, so a
  // cursor must be derived from the *next expected* key, not the last key
  // seen — "WAL/10..." sorts before "WAL/9..." (see StandbyReplica).
  virtual Result<std::vector<ObjectMeta>> List(std::string_view prefix,
                                               std::string_view start_after);

  // Deleting a missing object succeeds (S3 semantics).
  virtual Status Delete(std::string_view name) = 0;
};

using ObjectStorePtr = std::shared_ptr<ObjectStore>;

}  // namespace ginja
