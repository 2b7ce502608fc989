#include "cloud/metered_store.h"

#include <algorithm>

namespace ginja {

namespace {
constexpr double kMicrosPerMonth = 30.0 * 24 * 60 * 60 * 1e6;
constexpr double kBytesPerGb = 1024.0 * 1024 * 1024;
}  // namespace

MeteredStore::MeteredStore(ObjectStorePtr inner, std::shared_ptr<Clock> clock,
                           std::shared_ptr<LatencyModel> latency)
    : inner_(std::move(inner)),
      clock_(std::move(clock)),
      latency_(std::move(latency)),
      last_accrual_micros_(clock_->NowMicros()),
      start_micros_(last_accrual_micros_) {}

void MeteredStore::AccrueStorageLocked(std::uint64_t now) {
  if (now > last_accrual_micros_) {
    const double gb = static_cast<double>(usage_.current_storage_bytes) / kBytesPerGb;
    usage_.gb_micros += gb * static_cast<double>(now - last_accrual_micros_);
    last_accrual_micros_ = now;
  }
}

Status MeteredStore::Put(std::string_view name, ByteView data) {
  std::uint64_t latency_us = 0;
  if (latency_) {
    latency_us = latency_->PutLatencyMicros(data.size());
    latency_->Sleep(latency_us);
  }
  Status st = inner_->Put(name, data);
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    AccrueStorageLocked(clock_->NowMicros());
    ++usage_.puts;
    usage_.bytes_uploaded += data.size();
    auto [it, inserted] = object_sizes_.try_emplace(std::string(name), data.size());
    if (!inserted) {
      usage_.current_storage_bytes -= it->second;
      it->second = data.size();
    }
    usage_.current_storage_bytes += data.size();
    put_latency_.Record(static_cast<double>(latency_us));
    put_object_size_.Record(static_cast<double>(data.size()));
  }
  return st;
}

Result<Bytes> MeteredStore::Get(std::string_view name) {
  Result<Bytes> r = inner_->Get(name);
  std::uint64_t latency_us = 0;
  if (latency_) {
    latency_us = latency_->GetLatencyMicros(r.ok() ? r->size() : 0);
    latency_->Sleep(latency_us);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++usage_.gets;
  if (r.ok()) usage_.bytes_downloaded += r->size();
  get_latency_.Record(static_cast<double>(latency_us));
  return r;
}

Result<std::vector<ObjectMeta>> MeteredStore::List(std::string_view prefix) {
  return List(prefix, {});
}

Result<std::vector<ObjectMeta>> MeteredStore::List(std::string_view prefix,
                                                   std::string_view start_after) {
  // A cursor pass is still one LIST request on the bill, but its latency
  // scales with the (usually tiny) result count, which is the point.
  Result<std::vector<ObjectMeta>> r = inner_->List(prefix, start_after);
  if (latency_) {
    latency_->Sleep(latency_->ListLatencyMicros(r.ok() ? r->size() : 0));
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++usage_.lists;
  return r;
}

Status MeteredStore::Delete(std::string_view name) {
  if (latency_) latency_->Sleep(latency_->DeleteLatencyMicros());
  Status st = inner_->Delete(name);
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    AccrueStorageLocked(clock_->NowMicros());
    ++usage_.deletes;
    auto it = object_sizes_.find(name);
    if (it != object_sizes_.end()) {
      usage_.current_storage_bytes -= it->second;
      object_sizes_.erase(it);
    }
  }
  return st;
}

UsageReport MeteredStore::Usage() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto* self = const_cast<MeteredStore*>(this);
  self->AccrueStorageLocked(clock_->NowMicros());
  return usage_;
}

MeteredStore::~MeteredStore() {
  if (registry_) registry_->Unregister(this);
}

double MeteredStore::AccruedCost(const PriceBook& prices) const {
  const UsageReport u = Usage();
  const double request_cost = static_cast<double>(u.puts) * prices.per_put +
                              static_cast<double>(u.gets) * prices.per_get +
                              static_cast<double>(u.lists) * prices.per_put +
                              static_cast<double>(u.deletes) * prices.per_delete;
  const double egress_cost =
      static_cast<double>(u.bytes_downloaded) / kBytesPerGb * prices.egress_gb;
  const double ingress_cost =
      static_cast<double>(u.bytes_uploaded) / kBytesPerGb * prices.ingress_gb;
  // gb_micros / kMicrosPerMonth is GB-months actually held so far.
  const double storage_cost =
      u.gb_micros / kMicrosPerMonth * prices.storage_gb_month;
  return request_cost + egress_cost + ingress_cost + storage_cost;
}

void MeteredStore::RegisterMetrics(MetricsRegistry* registry,
                                   const PriceBook& prices,
                                   MetricLabels labels) {
  if (registry_) registry_->Unregister(this);
  registry_ = registry;
  if (!registry_) return;
  registry_->RegisterGauge(this, "ginja_cloud_puts", labels, [this] {
    return static_cast<double>(Usage().puts);
  });
  registry_->RegisterGauge(this, "ginja_cloud_gets", labels, [this] {
    return static_cast<double>(Usage().gets);
  });
  registry_->RegisterGauge(this, "ginja_cloud_deletes", labels, [this] {
    return static_cast<double>(Usage().deletes);
  });
  registry_->RegisterGauge(this, "ginja_cloud_bytes_uploaded", labels, [this] {
    return static_cast<double>(Usage().bytes_uploaded);
  });
  registry_->RegisterGauge(this, "ginja_cloud_bytes_downloaded", labels,
                           [this] {
                             return static_cast<double>(
                                 Usage().bytes_downloaded);
                           });
  registry_->RegisterGauge(this, "ginja_cloud_storage_bytes", labels, [this] {
    return static_cast<double>(Usage().current_storage_bytes);
  });
  MetricLabels cost_labels = labels;
  cost_labels.emplace_back("provider", prices.provider);
  std::sort(cost_labels.begin(), cost_labels.end());
  registry_->RegisterGauge(this, "ginja_cost_accrued_dollars",
                           std::move(cost_labels),
                           [this, prices] { return AccruedCost(prices); });
}

double MeteredStore::MonthlyCost(const PriceBook& prices,
                                 double window_micros) const {
  const UsageReport u = Usage();
  if (window_micros <= 0) return 0;
  const double months = window_micros / kMicrosPerMonth;
  // Requests and egress observed in the window, extrapolated to one month;
  // storage billed at average occupancy.
  const double request_cost = static_cast<double>(u.puts) * prices.per_put +
                              static_cast<double>(u.gets) * prices.per_get +
                              static_cast<double>(u.lists) * prices.per_put +
                              static_cast<double>(u.deletes) * prices.per_delete;
  const double egress_cost =
      static_cast<double>(u.bytes_downloaded) / kBytesPerGb * prices.egress_gb;
  const double storage_cost = u.AverageGb(window_micros) * prices.storage_gb_month;
  return (request_cost + egress_cost) / months + storage_cost;
}

}  // namespace ginja
