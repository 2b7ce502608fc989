// ReplicatedStore — multi-cloud replication (DepSky-style, paper §6:
// "our system supports the replication of objects in multiple clouds, for
// tolerating provider-scale failures").
//
// Writes go to all replicas and succeed when a configurable quorum of them
// acknowledges; reads try replicas in order and return the first success;
// LIST returns the union (an object is visible if any replica has it);
// DELETE is attempted everywhere and succeeds if a quorum does.
#pragma once

#include <vector>

#include "cloud/object_store.h"

namespace ginja {

class ReplicatedStore : public ObjectStore {
 public:
  // quorum in [1, replicas.size()]; defaults to all (safest: an object is
  // durable in every cloud before the commit pipeline acknowledges it).
  explicit ReplicatedStore(std::vector<ObjectStorePtr> replicas, int quorum = 0);

  Status Put(std::string_view name, ByteView data) override;
  Result<Bytes> Get(std::string_view name) override;
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override;
  Result<std::vector<ObjectMeta>> List(std::string_view prefix,
                                       std::string_view start_after) override;
  Status Delete(std::string_view name) override;

  int quorum() const { return quorum_; }
  std::size_t replica_count() const { return replicas_.size(); }

 private:
  std::vector<ObjectStorePtr> replicas_;
  int quorum_;
};

}  // namespace ginja
