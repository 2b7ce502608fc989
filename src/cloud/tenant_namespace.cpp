#include "cloud/tenant_namespace.h"

#include <utility>

namespace ginja {

TenantNamespace::TenantNamespace(ObjectStorePtr inner, std::string prefix)
    : inner_(std::move(inner)), prefix_(std::move(prefix)) {}

std::string TenantNamespace::Prefix(std::string_view tenant_id) {
  return "t/" + std::string(tenant_id) + "/";
}

std::string TenantNamespace::Scoped(std::string_view name) const {
  std::string scoped;
  scoped.reserve(prefix_.size() + name.size());
  scoped.append(prefix_);
  scoped.append(name);
  return scoped;
}

Status TenantNamespace::Put(std::string_view name, ByteView data) {
  return inner_->Put(Scoped(name), data);
}

Result<Bytes> TenantNamespace::Get(std::string_view name) {
  return inner_->Get(Scoped(name));
}

Result<std::vector<ObjectMeta>> TenantNamespace::List(std::string_view prefix) {
  auto inner = inner_->List(Scoped(prefix));
  if (!inner.ok()) return inner.status();
  std::vector<ObjectMeta> out;
  out.reserve(inner->size());
  for (auto& meta : *inner) {
    // Defensive: a backend could return keys outside the asked prefix;
    // never leak another tenant's (or an unscoped) name upward.
    if (meta.name.compare(0, prefix_.size(), prefix_) != 0) continue;
    out.push_back({meta.name.substr(prefix_.size()), meta.size});
  }
  return out;
}

Result<std::vector<ObjectMeta>> TenantNamespace::List(
    std::string_view prefix, std::string_view start_after) {
  if (start_after.empty()) return List(prefix);
  auto inner = inner_->List(Scoped(prefix), Scoped(start_after));
  if (!inner.ok()) return inner.status();
  std::vector<ObjectMeta> out;
  out.reserve(inner->size());
  for (auto& meta : *inner) {
    // Defensive: a backend could return keys outside the asked prefix;
    // never leak another tenant's (or an unscoped) name upward.
    if (meta.name.compare(0, prefix_.size(), prefix_) != 0) continue;
    out.push_back({meta.name.substr(prefix_.size()), meta.size});
  }
  return out;
}

Status TenantNamespace::Delete(std::string_view name) {
  return inner_->Delete(Scoped(name));
}

}  // namespace ginja
