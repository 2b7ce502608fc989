// Object store backed by a local directory — persists objects across runs
// so the examples can demonstrate real crash-and-recover flows. Object
// names map to file paths ('/' in names becomes a subdirectory).
#pragma once

#include <filesystem>
#include <mutex>

#include "cloud/object_store.h"

namespace ginja {

class DiskStore : public ObjectStore {
 public:
  // Creates `root` if needed.
  explicit DiskStore(std::filesystem::path root);

  Status Put(std::string_view name, ByteView data) override;
  Result<Bytes> Get(std::string_view name) override;
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override;
  Result<std::vector<ObjectMeta>> List(std::string_view prefix,
                                       std::string_view start_after) override;
  Status Delete(std::string_view name) override;

  const std::filesystem::path& root() const { return root_; }

 private:
  std::filesystem::path PathFor(std::string_view name) const;

  std::filesystem::path root_;
  mutable std::mutex mu_;
};

}  // namespace ginja
