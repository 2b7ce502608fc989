// MeteredStore — decorator that accounts every operation and byte so a run
// can be priced with a PriceBook. Also integrates storage occupancy over
// model time (GB-months) the way S3 bills it.
#pragma once

#include <map>
#include <mutex>

#include "cloud/latency_model.h"
#include "cloud/object_store.h"
#include "cloud/price_book.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace ginja {

struct UsageReport {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t lists = 0;
  std::uint64_t deletes = 0;
  std::uint64_t bytes_uploaded = 0;
  std::uint64_t bytes_downloaded = 0;
  std::uint64_t current_storage_bytes = 0;
  double gb_micros = 0;  // ∫ storage dt, in GB·µs of model time

  // Average GB held over the observation window.
  double AverageGb(double window_micros) const {
    return window_micros <= 0 ? 0 : gb_micros / window_micros;
  }
};

class MeteredStore : public ObjectStore {
 public:
  // `clock` supplies the model time base for the storage integral;
  // `latency` (optional) makes each operation sleep for its modeled
  // duration and records it into the latency histograms.
  MeteredStore(ObjectStorePtr inner, std::shared_ptr<Clock> clock,
               std::shared_ptr<LatencyModel> latency = nullptr);

  Status Put(std::string_view name, ByteView data) override;
  Result<Bytes> Get(std::string_view name) override;
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override;
  Result<std::vector<ObjectMeta>> List(std::string_view prefix,
                                       std::string_view start_after) override;
  Status Delete(std::string_view name) override;

  UsageReport Usage() const;

  // Prices the usage so far. `window_micros` is the observation window in
  // model time; storage is billed at its average occupancy over that window
  // extrapolated to a month.
  double MonthlyCost(const PriceBook& prices, double window_micros) const;

  // Dollars actually accrued so far — the bill-to-date, NOT extrapolated:
  // requests + egress at list price plus the storage integral's GB-month
  // fraction. This is what the ginja_cost_accrued_dollars gauge exposes.
  double AccruedCost(const PriceBook& prices) const;

  // Registers usage gauges (requests, bytes, storage, accrued dollars under
  // `prices`) into `registry`; undone automatically by the destructor.
  // `labels` is attached to every series (e.g. {tenant=<id>} for a fleet
  // member's per-tenant cost gauges).
  void RegisterMetrics(MetricsRegistry* registry, const PriceBook& prices,
                       MetricLabels labels = {});

  ~MeteredStore() override;

  const Histogram& put_latency() const { return put_latency_; }
  const Histogram& get_latency() const { return get_latency_; }
  const Meter& put_object_size() const { return put_object_size_; }

  // Model-time at construction; subtract from clock().NowMicros() for the
  // observation window.
  std::uint64_t start_micros() const { return start_micros_; }
  Clock& clock() { return *clock_; }

 private:
  void AccrueStorageLocked(std::uint64_t now);

  ObjectStorePtr inner_;
  std::shared_ptr<Clock> clock_;
  std::shared_ptr<LatencyModel> latency_;

  mutable std::mutex mu_;
  UsageReport usage_;
  std::map<std::string, std::uint64_t, std::less<>> object_sizes_;
  std::uint64_t last_accrual_micros_;
  std::uint64_t start_micros_;

  Histogram put_latency_;
  Histogram get_latency_;
  Meter put_object_size_;
  MetricsRegistry* registry_ = nullptr;  // set by RegisterMetrics
};

}  // namespace ginja
