#include "cloud/faulty_store.h"

namespace ginja {

FaultyStore::FaultyStore(ObjectStorePtr inner, std::uint64_t seed)
    : inner_(std::move(inner)), rng_(seed) {}

FaultyStore::~FaultyStore() {
  if (registry_) registry_->Unregister(this);
}

void FaultyStore::RegisterMetrics(MetricsRegistry* registry) {
  if (registry_) registry_->Unregister(this);
  registry_ = registry;
  if (!registry_) return;
  registry_->RegisterGauge(this, "ginja_cloud_outage", {}, [this] {
    return available_.load() ? 0.0 : 1.0;
  });
  registry_->RegisterGauge(this, "ginja_cloud_injected_failures", {}, [this] {
    return static_cast<double>(injected_failures_.load());
  });
  registry_->RegisterGauge(this, "ginja_cloud_failure_probability", {},
                           [this] { return failure_probability_.load(); });
}

bool FaultyStore::ShouldFail() {
  if (!available_.load()) {
    ++injected_failures_;
    return true;
  }
  int n = fail_next_.load();
  while (n > 0) {
    if (fail_next_.compare_exchange_weak(n, n - 1)) {
      ++injected_failures_;
      return true;
    }
  }
  const double p = failure_probability_.load();
  if (p > 0) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    if (rng_.NextDouble() < p) {
      ++injected_failures_;
      return true;
    }
  }
  return false;
}

Status FaultyStore::Put(std::string_view name, ByteView data) {
  if (ShouldFail()) return Status::Unavailable("injected PUT failure");
  return inner_->Put(name, data);
}

Result<Bytes> FaultyStore::Get(std::string_view name) {
  if (ShouldFail()) return Status::Unavailable("injected GET failure");
  return inner_->Get(name);
}

Result<std::vector<ObjectMeta>> FaultyStore::List(std::string_view prefix) {
  if (ShouldFail()) return Status::Unavailable("injected LIST failure");
  return inner_->List(prefix);
}

Result<std::vector<ObjectMeta>> FaultyStore::List(std::string_view prefix,
                                                  std::string_view start_after) {
  if (ShouldFail()) return Status::Unavailable("injected LIST failure");
  return inner_->List(prefix, start_after);
}

Status FaultyStore::Delete(std::string_view name) {
  if (ShouldFail()) return Status::Unavailable("injected DELETE failure");
  return inner_->Delete(name);
}

}  // namespace ginja
