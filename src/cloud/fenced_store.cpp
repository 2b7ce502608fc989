#include "cloud/fenced_store.h"

#include <string>

namespace ginja {

FencedStore::FencedStore(ObjectStorePtr inner, FenceTokenPtr token,
                         std::uint64_t writer_epoch)
    : inner_(std::move(inner)),
      token_(std::move(token)),
      writer_epoch_(writer_epoch) {}

Status FencedStore::CheckFence() {
  const std::uint64_t current = token_->current();
  if (current <= writer_epoch_) return Status::Ok();
  ++rejected_;
  return Status::Aborted("fenced: writer epoch " +
                         std::to_string(writer_epoch_) +
                         " superseded by epoch " + std::to_string(current));
}

Status FencedStore::Put(std::string_view name, ByteView data) {
  GINJA_RETURN_IF_ERROR(CheckFence());
  return inner_->Put(name, data);
}

Result<Bytes> FencedStore::Get(std::string_view name) {
  return inner_->Get(name);
}

Result<std::vector<ObjectMeta>> FencedStore::List(std::string_view prefix) {
  return inner_->List(prefix);
}

Result<std::vector<ObjectMeta>> FencedStore::List(std::string_view prefix,
                                                  std::string_view start_after) {
  return inner_->List(prefix, start_after);
}

Status FencedStore::Delete(std::string_view name) {
  GINJA_RETURN_IF_ERROR(CheckFence());
  return inner_->Delete(name);
}

}  // namespace ginja
