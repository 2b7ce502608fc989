#include "cloud/replicated_store.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace ginja {

ReplicatedStore::ReplicatedStore(std::vector<ObjectStorePtr> replicas, int quorum)
    : replicas_(std::move(replicas)),
      quorum_(quorum <= 0 ? static_cast<int>(replicas_.size()) : quorum) {
  assert(!replicas_.empty());
  assert(quorum_ >= 1 && quorum_ <= static_cast<int>(replicas_.size()));
}

Status ReplicatedStore::Put(std::string_view name, ByteView data) {
  int acks = 0;
  Status last_error = Status::Unavailable("no replica reachable");
  for (auto& replica : replicas_) {
    Status st = replica->Put(name, data);
    if (st.ok()) {
      ++acks;
    } else {
      last_error = st;
    }
  }
  return acks >= quorum_ ? Status::Ok() : last_error;
}

Result<Bytes> ReplicatedStore::Get(std::string_view name) {
  Status last_error = Status::NotFound(std::string(name));
  for (auto& replica : replicas_) {
    Result<Bytes> r = replica->Get(name);
    if (r.ok()) return r;
    last_error = r.status();
  }
  return last_error;
}

Result<std::vector<ObjectMeta>> ReplicatedStore::List(std::string_view prefix) {
  return List(prefix, {});
}

Result<std::vector<ObjectMeta>> ReplicatedStore::List(
    std::string_view prefix, std::string_view start_after) {
  std::map<std::string, std::uint64_t> merged;
  bool any_ok = false;
  Status last_error = Status::Unavailable("no replica reachable");
  for (auto& replica : replicas_) {
    Result<std::vector<ObjectMeta>> r = replica->List(prefix, start_after);
    if (!r.ok()) {
      last_error = r.status();
      continue;
    }
    any_ok = true;
    for (auto& meta : *r) merged.emplace(meta.name, meta.size);
  }
  if (!any_ok) return last_error;
  std::vector<ObjectMeta> out;
  out.reserve(merged.size());
  for (auto& [name, size] : merged) out.push_back({name, size});
  return out;
}

Status ReplicatedStore::Delete(std::string_view name) {
  int acks = 0;
  Status last_error = Status::Unavailable("no replica reachable");
  for (auto& replica : replicas_) {
    Status st = replica->Delete(name);
    if (st.ok()) ++acks;
    else last_error = st;
  }
  return acks >= quorum_ ? Status::Ok() : last_error;
}

}  // namespace ginja
