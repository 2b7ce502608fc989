#include "cloud/object_store.h"

namespace ginja {

Result<std::vector<ObjectMeta>> ObjectStore::List(std::string_view prefix,
                                                  std::string_view start_after) {
  auto all = List(prefix);
  if (!all.ok() || start_after.empty()) return all;
  std::vector<ObjectMeta> out;
  out.reserve(all->size());
  for (auto& meta : *all) {
    if (meta.name > start_after) out.push_back(std::move(meta));
  }
  return out;
}

}  // namespace ginja
