#include "cloud/disk_store.h"

#include <algorithm>
#include <fstream>

namespace ginja {

namespace fs = std::filesystem;

DiskStore::DiskStore(fs::path root) : root_(std::move(root)) {
  fs::create_directories(root_);
}

fs::path DiskStore::PathFor(std::string_view name) const {
  return root_ / fs::path(name);
}

Status DiskStore::Put(std::string_view name, ByteView data) {
  std::lock_guard<std::mutex> lock(mu_);
  const fs::path path = PathFor(name);
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  // Write to a temp file and rename, so a crashed Put never leaves a
  // half-written object visible (object stores are atomic per PUT).
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp.string());
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out) return Status::IoError("short write to " + tmp.string());
  }
  fs::rename(tmp, path, ec);
  if (ec) return Status::IoError("rename failed: " + ec.message());
  return Status::Ok();
}

Result<Bytes> DiskStore::Get(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const fs::path path = PathFor(name);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound(std::string(name));
  const auto size = in.tellg();
  in.seekg(0);
  Bytes data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  if (!in) return Status::IoError("short read from " + path.string());
  return data;
}

Result<std::vector<ObjectMeta>> DiskStore::List(std::string_view prefix) {
  return List(prefix, {});
}

Result<std::vector<ObjectMeta>> DiskStore::List(std::string_view prefix,
                                                std::string_view start_after) {
  // The directory walk is unavoidable (no ordered index on disk), but the
  // cursor still prunes the sort + ObjectMeta construction to new names.
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ObjectMeta> out;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root_, ec);
       it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    std::string name = fs::relative(it->path(), root_).generic_string();
    if (name.size() >= 4 && name.ends_with(".tmp")) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (!start_after.empty() && name <= start_after) continue;
    out.push_back({std::move(name), it->file_size()});
  }
  if (ec) return Status::IoError(ec.message());
  std::sort(out.begin(), out.end(),
            [](const ObjectMeta& a, const ObjectMeta& b) { return a.name < b.name; });
  return out;
}

Status DiskStore::Delete(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  fs::remove(PathFor(name), ec);
  return Status::Ok();  // S3 semantics: deleting a missing object succeeds
}

}  // namespace ginja
