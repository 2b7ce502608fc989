#include "workloads.h"

#include "probes.h"

namespace perfbench {

ginja::GinjaConfig DeployedConfig() {
  ginja::GinjaConfig config;
  config.batch = 100;
  config.safety = 1000;
  config.batch_timeout_us = 1'000'000;
  config.envelope.compress = true;
  config.envelope.encrypt = true;
  config.recovery_prefetch = kMaxLoadThreads;
  return config;
}

const std::vector<LayerMetricSpec>& PerLayerMetrics() {
  static const std::vector<LayerMetricSpec> kSpecs = {
      {"db.txn_self_us", "us"},
      {"db.redo_s", "s"},
      {"fs.writes_per_txn", "count"},
      {"fs.intercept_self_us_per_txn", "us"},
      {"fs.local_write_us_per_txn", "us"},
      {"ginja.event_us_per_txn", "us"},
      {"ginja.event_us_p50", "us"},
      {"ginja.event_us_p99", "us"},
      {"ginja.blocked_waits_per_ktxn", "count"},
      {"rpo.exposure_p99_writes", "count"},
      {"commit.writes_per_batch", "count"},
      {"commit.closed_full_ratio", "ratio"},
      {"commit.coalesce_ratio", "ratio"},
      {"commit.upload_retries", "count"},
      {"checkpoint.count", "count"},
      {"checkpoint.dumps", "count"},
      {"checkpoint.kb_per_txn", "kB"},
      {"checkpoint.deletes", "count"},
      {"checkpoint.time_share", "ratio"},
      {"codec.encode_mb_s", "MB/s"},
      {"codec.decode_mb_s", "MB/s"},
      {"codec.ratio", "ratio"},
      {"cloud.put_count", "count"},
      {"cloud.get_count", "count"},
      {"cloud.put_us_p50", "us"},
      {"cloud.put_us_p99", "us"},
      {"cloud.get_us_p50", "us"},
      {"cloud.get_us_p99", "us"},
      {"cloud.put_kb_p50", "kB"},
      {"cloud.put_busy_frac", "ratio"},
      {"cloud.get_busy_frac", "ratio"},
      {"cloud.put_inflight_p99", "count"},
      {"cloud.list_count", "count"},
      {"cloud.delete_count", "count"},
      {"cloud.failed_ops", "count"},
      {"cost.usd_per_month", "USD"},
      {"s3.request_us_p50", "us"},
      {"s3.request_us_p99", "us"},
      {"s3.backend_us_p50", "us"},
      {"s3.wire_self_us_p50", "us"},
      {"s3.requests", "count"},
      {"s3.rejected", "count"},
      {"recover.fetch_apply_s", "s"},
      {"recover.objects", "count"},
      {"recover.mb", "MB"},
      {"bench.generator_late_ms_p99", "ms"},
      {"bench.cpu_s_per_model_s", "ratio"},
      {"bench.trace_overhead_pct", "%"},
  };
  return kSpecs;
}

void FillAbsentLayers(Outcome& outcome, const std::string& why) {
  for (const LayerMetricSpec& spec : PerLayerMetrics()) {
    bool present = false;
    for (const Metric& m : outcome.per_layer) present |= m.name == spec.name;
    if (!present) outcome.LayerMetric(spec.name, 0, spec.unit, why);
  }
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

CodecCheck CheckStoredObjects(ginja::ObjectStore& store,
                              const ginja::Envelope& envelope, bool time_encode) {
  CodecCheck c;
  auto listed = store.List("");
  if (!listed.ok()) {
    c.failures = 1;
    return c;
  }
  for (const ginja::ObjectMeta& meta : *listed) {
    if (!meta.name.starts_with("WAL/") && !meta.name.starts_with("DB/")) continue;
    ++c.objects;
    auto blob = store.Get(meta.name);
    if (!blob.ok()) {
      ++c.failures;
      continue;
    }
    const std::uint64_t t0 = NowNs();
    auto plain = envelope.Decode(ginja::View(*blob));
    const std::uint64_t t1 = NowNs();
    if (!plain.ok()) {
      ++c.failures;
      continue;
    }
    c.decode_s += static_cast<double>(t1 - t0) / 1e9;
    c.stored_bytes += blob->size();
    c.plain_bytes += plain->size();
    if (time_encode) {
      const std::uint64_t e0 = NowNs();
      const ginja::Bytes again = envelope.Encode(ginja::View(*plain), c.objects);
      c.encode_s += static_cast<double>(NowNs() - e0) / 1e9;
      if (again.empty()) ++c.failures;
    }
  }
  return c;
}

void ReportCodec(Outcome& outcome, const CodecCheck& codec) {
  const double mb = static_cast<double>(codec.plain_bytes) / 1e6;
  outcome.LayerMetric("codec.encode_mb_s", codec.encode_s > 0 ? mb / codec.encode_s : 0,
                      "MB/s");
  outcome.LayerMetric("codec.decode_mb_s", codec.decode_s > 0 ? mb / codec.decode_s : 0,
                      "MB/s");
  outcome.LayerMetric("codec.ratio",
                      codec.stored_bytes > 0 ? static_cast<double>(codec.plain_bytes) /
                                                   static_cast<double>(codec.stored_bytes)
                                             : 0,
                      "ratio");
}

}  // namespace perfbench
