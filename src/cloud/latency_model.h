// Latency model for the simulated cloud — calibrated against paper Table 3.
//
// Table 3 reports PUT latencies for objects of 26 kB .. 10 MB uploaded from
// the authors' Lisbon lab to S3 US-East. A linear fit latency = base +
// size × per-kB reproduces those points within ~10%:
//   PostgreSQL plain:  386 kB → 692 ms, 3018 kB → 2880 ms, 10081 kB → 7707 ms
//   fit: base ≈ 410 ms, ≈ 0.72 ms/kB  (~1.4 MB/s sustained upload)
// The `Ec2Colocated` preset models a VM in the same region as the bucket
// (paper §8.3/Fig. 7): sub-10 ms base, ~100 MB/s.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "common/clock.h"
#include "common/rng.h"

namespace ginja {

struct LatencyParams {
  double put_base_us = 0;
  double put_us_per_kb = 0;
  double get_base_us = 0;
  double get_us_per_kb = 0;
  double list_base_us = 0;
  double list_us_per_object = 0;
  double delete_base_us = 0;
  // Multiplicative jitter: each latency is scaled by a factor drawn from a
  // Gaussian(1, jitter_stddev), clamped to [0.5, 2].
  double jitter_stddev = 0.1;

  // Lisbon → S3 US-East, fitted to Table 3.
  static LatencyParams WanS3();
  // VM colocated with the bucket (same region / free fast path).
  static LatencyParams Ec2Colocated();
  // Zero latency — unit tests that only exercise logic.
  static LatencyParams Instant();
};

// Computes (and optionally sleeps for) operation latencies. Thread-safe.
class LatencyModel {
 public:
  LatencyModel(LatencyParams params, std::shared_ptr<Clock> clock,
               std::uint64_t seed = 42);

  // Returns the model latency for the op in microseconds.
  std::uint64_t PutLatencyMicros(std::uint64_t bytes);
  std::uint64_t GetLatencyMicros(std::uint64_t bytes);
  std::uint64_t ListLatencyMicros(std::uint64_t num_objects);
  std::uint64_t DeleteLatencyMicros();

  // Sleeps on the model's clock (which may be scaled).
  void Sleep(std::uint64_t micros) { clock_->SleepMicros(micros); }

  const LatencyParams& params() const { return params_; }
  Clock& clock() { return *clock_; }

 private:
  double Jitter();

  LatencyParams params_;
  std::shared_ptr<Clock> clock_;
  std::mutex mu_;
  SplitMix64 rng_;
};

}  // namespace ginja
