#include "cloud/latency_model.h"

#include <algorithm>

namespace ginja {

LatencyParams LatencyParams::WanS3() {
  LatencyParams p;
  p.put_base_us = 410'000;    // ~410 ms request overhead + TLS + first byte
  p.put_us_per_kb = 720;      // ~1.4 MB/s sustained upload
  p.get_base_us = 150'000;    // downloads were ~4x faster in 2017 practice
  p.get_us_per_kb = 180;
  p.list_base_us = 120'000;
  p.list_us_per_object = 50;
  p.delete_base_us = 80'000;
  p.jitter_stddev = 0.10;
  return p;
}

LatencyParams LatencyParams::Ec2Colocated() {
  LatencyParams p;
  p.put_base_us = 8'000;
  p.put_us_per_kb = 12;       // ~85 MB/s
  p.get_base_us = 6'000;
  p.get_us_per_kb = 50;       // ~20 MB/s effective, per the paper's Fig. 7 gap
  p.list_base_us = 10'000;
  p.list_us_per_object = 10;
  p.delete_base_us = 5'000;
  p.jitter_stddev = 0.05;
  return p;
}

LatencyParams LatencyParams::Instant() { return LatencyParams{}; }

LatencyModel::LatencyModel(LatencyParams params, std::shared_ptr<Clock> clock,
                           std::uint64_t seed)
    : params_(params), clock_(std::move(clock)), rng_(seed) {}

double LatencyModel::Jitter() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::clamp(rng_.NextGaussian(1.0, params_.jitter_stddev), 0.5, 2.0);
}

std::uint64_t LatencyModel::PutLatencyMicros(std::uint64_t bytes) {
  const double kb = static_cast<double>(bytes) / 1024.0;
  return static_cast<std::uint64_t>(
      (params_.put_base_us + kb * params_.put_us_per_kb) * Jitter());
}

std::uint64_t LatencyModel::GetLatencyMicros(std::uint64_t bytes) {
  const double kb = static_cast<double>(bytes) / 1024.0;
  return static_cast<std::uint64_t>(
      (params_.get_base_us + kb * params_.get_us_per_kb) * Jitter());
}

std::uint64_t LatencyModel::ListLatencyMicros(std::uint64_t num_objects) {
  return static_cast<std::uint64_t>(
      (params_.list_base_us +
       static_cast<double>(num_objects) * params_.list_us_per_object) *
      Jitter());
}

std::uint64_t LatencyModel::DeleteLatencyMicros() {
  return static_cast<std::uint64_t>(params_.delete_base_us * Jitter());
}

}  // namespace ginja
