// FaultyStore — failure-injection decorator for resilience tests.
//
// Supports (1) a per-operation transient failure probability, (2) a hard
// outage switch that makes every call return UNAVAILABLE (models a cloud
// outage, paper §2/§9 motivation), and (3) "fail the next N ops" for
// deterministic tests of retry and blocking paths.
#pragma once

#include <atomic>
#include <mutex>

#include "cloud/object_store.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace ginja {

class FaultyStore : public ObjectStore {
 public:
  explicit FaultyStore(ObjectStorePtr inner, std::uint64_t seed = 7);

  Status Put(std::string_view name, ByteView data) override;
  Result<Bytes> Get(std::string_view name) override;
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override;
  Result<std::vector<ObjectMeta>> List(std::string_view prefix,
                                       std::string_view start_after) override;
  Status Delete(std::string_view name) override;

  void SetFailureProbability(double p) { failure_probability_ = p; }
  void SetAvailable(bool available) { available_ = available; }
  void FailNextOps(int n) { fail_next_ = n; }

  std::uint64_t injected_failures() const { return injected_failures_; }

  // Outage/backoff state gauges (ginja_cloud_outage = 1 during a hard
  // outage, injected-failure count, current failure probability); undone
  // automatically by the destructor.
  void RegisterMetrics(MetricsRegistry* registry);

  ~FaultyStore() override;

 private:
  // Returns true if this op should fail.
  bool ShouldFail();

  ObjectStorePtr inner_;
  std::atomic<double> failure_probability_{0.0};
  std::atomic<bool> available_{true};
  std::atomic<int> fail_next_{0};
  std::atomic<std::uint64_t> injected_failures_{0};
  std::mutex rng_mu_;
  SplitMix64 rng_;
  MetricsRegistry* registry_ = nullptr;  // set by RegisterMetrics
};

}  // namespace ginja
