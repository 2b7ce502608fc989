// recover / recover_wan: cold recovery of a bucket written by TPC-C.
//
// Set-up builds the bucket from a fixed number of seeded TPC-C
// transactions: populate, Boot, run (checkpointing on a fixed transaction
// count), clean Stop. The measured loop then recovers it into an empty
// file system again and again:
//   recover      Ginja::Recover through S3Client → HttpSocketClient → TCP
//                loopback → HttpSocketServer → S3Server → MemoryStore on a
//                real clock, then Database::Open redo;
//   recover_wan  Ginja::Recover through MeteredStore(WanS3) in model time.
// This is the read side of what tpcc writes: LIST, GET, decode, apply,
// redo, and for `recover` SigV4 + HTTP under load.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "bench_stats.h"
#include "cloud/latency_model.h"
#include "cloud/memory_store.h"
#include "cloud/metered_store.h"
#include "cloud/s3/http_socket.h"
#include "cloud/s3/s3_client.h"
#include "cloud/s3/s3_server.h"
#include "common/codec/codec_pool.h"
#include "db/database.h"
#include "fs/mem_fs.h"
#include "ginja/ginja.h"
#include "probes.h"
#include "workload/tpcc.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kWarehouses = 2;
constexpr int kTpccScale = 50;
constexpr int kBucketTxns = 4000;
constexpr int kCheckpointEveryTxns = 1500;
// Model µs per wall µs for recover_wan: decode and apply are CPU work that
// the scale inflates, so it stays low (see the CPU-share guard).
constexpr double kTimeScale = 2.5;
constexpr double kMaxCpuShare = 0.5;
constexpr char kBucket[] = "perfbench";

struct PrimaryState {
  std::map<std::string, std::uint64_t> rows;  // per table, at clean stop
  // Database::Open does not restore CommittedTxns, so the WAL end stands
  // in for it: every committed txn's records must be recovered.
  ginja::Lsn wal_end = 0;
};

struct Bucket {
  std::shared_ptr<ginja::MemoryStore> store;
  PrimaryState primary;
  std::vector<double> pending;  // PendingWrites samples while writing it
};

// Populate, Boot, run kBucketTxns seeded transactions, clean Stop.
std::unique_ptr<Bucket> BuildBucket(const ginja::GinjaConfig& config,
                                    std::uint64_t seed, std::string* error) {
  auto bucket = std::make_unique<Bucket>();
  auto clock = std::make_shared<ginja::RealClock>();
  auto local = std::make_shared<ginja::MemFs>();
  auto intercept = std::make_shared<ginja::InterceptFs>(local, clock, 0);
  const ginja::DbLayout layout = ginja::DbLayout::Postgres();
  ginja::Database db(intercept, layout);
  ginja::TpccConfig tpcc_config;
  tpcc_config.warehouses = kWarehouses;
  tpcc_config.scale = kTpccScale;
  tpcc_config.seed = DeriveSeed(seed, 1);
  ginja::TpccWorkload tpcc(&db, tpcc_config);
  ginja::Status st = db.Create();
  if (st.ok()) st = tpcc.Populate();
  if (st.ok()) st = db.Checkpoint();
  if (!st.ok()) {
    *error = "populate: " + st.ToString();
    return nullptr;
  }
  bucket->store = std::make_shared<ginja::MemoryStore>();
  ginja::Ginja ginja(local, bucket->store, clock, layout, config);
  st = ginja.Boot();
  if (!st.ok()) {
    *error = "boot: " + st.ToString();
    return nullptr;
  }
  intercept->SetListener(&ginja);

  std::atomic<bool> done{false};
  std::thread sampler([&] {
    while (!done.load()) {
      bucket->pending.push_back(static_cast<double>(ginja.PendingWrites()));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ginja::SplitMix64 rng(DeriveSeed(seed, 100));
  for (int i = 1; i <= kBucketTxns && st.ok(); ++i) {
    st = tpcc.Execute(tpcc.PickType(rng), rng);
    if (st.code() == ginja::ErrorCode::kAborted) st = ginja::Status::Ok();
    if (st.ok() && i % kCheckpointEveryTxns == 0) st = db.Checkpoint();
  }
  done.store(true);
  sampler.join();
  intercept->SetListener(nullptr);
  ginja.Stop();
  if (!st.ok()) {
    *error = "txn: " + st.ToString();
    return nullptr;
  }
  for (const std::string& table : db.TableNames()) {
    bucket->primary.rows[table] = db.RowCount(table);
  }
  bucket->primary.wal_end = db.WalEndLsn();
  return bucket;
}

struct OneRecovery {
  bool ok = false;
  std::string error;
  double recover_s = 0;  // Recover (+ redo on the wire path), workload clock
  double redo_s = 0;
  double recover_cpu_s = 0;  // process CPU during Ginja::Recover
  ginja::RecoveryReport report;
};

// Opens the recovered image and compares it with the primary at stop.
std::string CheckRecovered(const ginja::VfsPtr& target, const PrimaryState& primary,
                           double* redo_s) {
  ginja::Database db(target, ginja::DbLayout::Postgres());
  const std::uint64_t t0 = NowNs();
  ginja::Status st;
  {
    ScopedSpan span(Layer::kRedo);
    st = db.Open();
  }
  *redo_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (!st.ok()) return "Database::Open: " + st.ToString();
  for (const auto& [table, rows] : primary.rows) {
    if (db.RowCount(table) != rows) {
      return "table " + table + " has " + std::to_string(db.RowCount(table)) +
             " rows, primary had " + std::to_string(rows);
    }
  }
  if (db.WalEndLsn() != primary.wal_end) {
    return "WAL ends at " + std::to_string(db.WalEndLsn()) + ", primary at " +
           std::to_string(primary.wal_end);
  }
  return "";
}

OneRecovery Recover(const ginja::ObjectStorePtr& store,
                    const ginja::GinjaConfig& config,
                    const std::shared_ptr<ginja::Clock>& clock, bool model_time,
                    const PrimaryState& primary) {
  OneRecovery r;
  auto target = std::make_shared<ginja::MemFs>();
  const std::uint64_t t0 = NowNs();
  const double cpu0 = ProcessCpuSeconds();
  ginja::Status st;
  {
    ScopedSpan span(Layer::kRecover);
    st = ginja::Ginja::Recover(store, config, ginja::DbLayout::Postgres(), target,
                               &r.report, std::nullopt, clock);
  }
  r.recover_cpu_s = ProcessCpuSeconds() - cpu0;
  const double recover_wall = static_cast<double>(NowNs() - t0) / 1e9;
  if (!st.ok()) {
    r.error = "Recover: " + st.ToString();
    return r;
  }
  r.error = CheckRecovered(target, primary, &r.redo_s);
  r.ok = r.error.empty();
  r.recover_s = model_time ? static_cast<double>(r.report.duration_micros) / 1e6
                           : recover_wall + r.redo_s;
  return r;
}

// The store handed to Ginja::Recover, and the infrastructure behind it.
// `probes` installs the outside-in timing decorators (traced phase only).
struct RecoverySource {
  std::shared_ptr<ginja::Clock> clock;
  std::shared_ptr<ginja::MeteredStore> metered;  // usage on either path
  std::shared_ptr<ginja::S3Server> s3;
  std::unique_ptr<ginja::HttpSocketServer> http;
  ginja::ObjectStorePtr store;
};

RecoverySource BuildSource(const std::shared_ptr<ginja::MemoryStore>& bucket,
                           std::uint64_t seed, bool wan, bool probes,
                           std::string* error) {
  RecoverySource src;
  if (wan) {
    src.clock = std::make_shared<ginja::ScaledClock>(kTimeScale);
    auto latency = std::make_shared<ginja::LatencyModel>(
        ginja::LatencyParams::WanS3(), src.clock, DeriveSeed(seed, 2));
    src.metered = std::make_shared<ginja::MeteredStore>(bucket, src.clock, latency);
  } else {
    src.clock = std::make_shared<ginja::RealClock>();
    ginja::ObjectStorePtr backend = bucket;
    if (probes) backend = std::make_shared<TimedStore>(backend, /*backend=*/true);
    src.s3 = std::make_shared<ginja::S3Server>(backend, kBucket);
    src.http = std::make_unique<ginja::HttpSocketServer>(src.s3, 0);
    if (!src.http->status().ok()) {
      *error = "HTTP server: " + src.http->status().ToString();
      return {};
    }
    std::shared_ptr<ginja::HttpTransport> transport =
        std::make_shared<ginja::HttpSocketClient>("127.0.0.1", src.http->port());
    if (probes) transport = std::make_shared<TimedTransport>(transport);
    auto client = std::make_shared<ginja::S3Client>(transport, kBucket);
    src.metered = std::make_shared<ginja::MeteredStore>(client, src.clock);
  }
  src.store = src.metered;
  if (probes) src.store = std::make_shared<TimedStore>(src.store);
  return src;
}

}  // namespace

Outcome RunRecover(const RunOptions& options, bool wan) {
  Outcome out;
  const char* name = wan ? "recover_wan" : "recover";
  const ginja::GinjaConfig config = DeployedConfig();
  char line[320];

  std::vector<double> setup_s;
  std::unique_ptr<Bucket> bucket;
  std::vector<double> pending;
  for (int i = 0; i < kSetupRepeats; ++i) {
    bucket.reset();
    std::string error;
    const std::uint64_t t0 = NowNs();
    bucket = BuildBucket(config, options.seed, &error);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!bucket) {
      out.Gate(false, std::string(name) + " set-up failed: " + error);
      return out;
    }
    pending.insert(pending.end(), bucket->pending.begin(), bucket->pending.end());
  }

  // A traced run recovers for half the time on a probe-free store, then for
  // half on a freshly built probed one with the recorder on, so the p50
  // difference is the cost of tracing.
  SpanRecorder recorder;
  const int phases = options.trace ? 2 : 1;
  const double window = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<std::vector<OneRecovery>> runs(static_cast<std::size_t>(phases));
  std::uint64_t begin_ns = 0, end_ns = 0;
  ginja::UsageReport usage_begin, usage_end;
  RecoverySource source;
  for (int ph = 0; ph < phases; ++ph) {
    const bool probes = ph == 1;
    std::string error;
    source = BuildSource(bucket->store, options.seed, wan, probes, &error);
    if (!source.store) {
      out.Gate(false, std::string(name) + ": " + error);
      return out;
    }
    if (probes) recorder.Activate();
    usage_begin = source.metered->Usage();
    begin_ns = NowNs();
    const std::uint64_t until = begin_ns + static_cast<std::uint64_t>(window * 1e9);
    auto& rs = runs[static_cast<std::size_t>(ph)];
    do {
      rs.push_back(Recover(source.store, config, source.clock, wan, bucket->primary));
    } while (NowNs() < until && rs.back().ok);
    end_ns = NowNs();
    usage_end = source.metered->Usage();
    recorder.Deactivate();
    if (source.s3) {
      out.Gate(source.s3->rejected_requests() == 0,
               "recover: S3Server rejected " +
                   std::to_string(source.s3->rejected_requests()) + " requests");
    }
  }
  const std::vector<OneRecovery>& rs = runs.back();

  // -- correctness gates -----------------------------------------------------------
  std::uint64_t failed = 0;
  std::string first_error;
  for (const auto& phase : runs) {
    for (const OneRecovery& r : phase) {
      ++out.attempted;
      if (!r.ok) {
        ++failed;
        if (first_error.empty()) first_error = r.error;
      }
    }
  }
  out.failed += failed;
  out.Gate(failed == 0, std::string(name) + ": " + std::to_string(failed) +
                            " recoveries failed; first: " + first_error);
  // Host CPU spent inside Recover, scaled into model time, as a share of
  // the model time those recoveries took.
  double cpu_s = 0, model_s = 0;
  for (const OneRecovery& r : runs.back()) {
    cpu_s += r.recover_cpu_s;
    model_s += static_cast<double>(r.report.duration_micros) / 1e6;
  }
  const double cpu_share = wan && model_s > 0 ? cpu_s * kTimeScale / model_s : 0;
  if (wan) {
    out.Gate(cpu_share <= kMaxCpuShare,
             "recover_wan: host CPU is " + std::to_string(cpu_share) +
                 " of model time (limit " + std::to_string(kMaxCpuShare) + ")");
  }

  std::vector<double> rto_ms;
  for (const OneRecovery& r : rs) rto_ms.push_back(r.recover_s * 1e3);
  const Summary rto = Summarize(rto_ms);
  std::sort(pending.begin(), pending.end());
  const double rpo_p90 = pending.empty() ? 0 : QuantileSorted(pending, 0.9);
  const Summary rpo = Summarize(pending);
  const double n = static_cast<double>(std::max<std::size_t>(rs.size(), 1));
  double total_s = 0;
  for (const OneRecovery& r : rs) total_s += r.recover_s;
  const auto requests = (usage_end.puts - usage_begin.puts) +
                        (usage_end.gets - usage_begin.gets) +
                        (usage_end.lists - usage_begin.lists) +
                        (usage_end.deletes - usage_begin.deletes);
  const double download_kb =
      static_cast<double>(usage_end.bytes_downloaded - usage_begin.bytes_downloaded) / 1024.0;
  const ginja::RecoveryReport& last = rs.back().report;

  std::snprintf(line, sizeof(line),
                "%s: bucket from %d TPC-C txns (%d warehouses, scale %d, checkpoint every %d), "
                "%zu objects %.2f MB; prefetch %d; %s",
                name, kBucketTxns, kWarehouses, kTpccScale, kCheckpointEveryTxns,
                bucket->store->ObjectCount(),
                static_cast<double>(bucket->store->TotalBytes()) / 1e6,
                config.recovery_prefetch,
                wan ? "MeteredStore(WanS3), model time" : "S3 over TCP loopback, real clock");
  out.Line(line);
  std::snprintf(line, sizeof(line),
                "recovery time: p50 %.3f ms, p%.1f %.3f ms over n=%zu; "
                "%llu objects, %.2f MB downloaded per recovery%s",
                rto.p50, rto.tail_q * 100, rto.tail, rto.count,
                static_cast<unsigned long long>(last.objects_downloaded),
                static_cast<double>(last.bytes_downloaded) / 1e6,
                wan ? "" : " (includes Database::Open redo)");
  out.Line(line);
  if (wan) {
    std::snprintf(line, sizeof(line), "host CPU %.3f of model time", cpu_share);
    out.Line(line);
  }

  if (!options.trace) {
    out.EndToEnd("setup_s", Median(setup_s), "s");
    out.EndToEnd("ops_per_s", n / total_s, "1/s");
    out.EndToEnd("p50_ms", rto.p50, "ms");
    out.EndToEnd("tail_ms", rto.tail, "ms");
    out.EndToEnd("rpo_p90_writes", rpo_p90, "count");
    out.EndToEnd("kb_per_op", download_kb / n, "kB");
    out.EndToEnd("requests_per_kop", static_cast<double>(requests) / n * 1000, "count");
    return out;
  }

  // -- per-layer (traced window) ---------------------------------------------------------
  out.LayerMetric("rpo.exposure_p99_writes", rpo.tail, "count");
  const std::vector<Span> spans = recorder.Collect();
  if (!options.trace_dir.empty()) {
    recorder.WriteTsv(options.trace_dir + "/" + name + "_seed" +
                      std::to_string(options.seed) + ".tsv");
  }
  const double scale = wan ? kTimeScale : 1.0;  // span wall time → workload clock
  auto scaled = [&](std::vector<double> v) {
    for (double& x : v) x *= scale;
    return v;
  };
  const auto gets = OfLayer(spans, Layer::kCloudGet);
  const Summary get_us = Summarize(scaled(DurationsUs(gets)));
  std::uint64_t failed_cloud = 0;
  for (const Span& sp : spans) {
    if (sp.layer == Layer::kCloudPut || sp.layer == Layer::kCloudGet ||
        sp.layer == Layer::kCloudList || sp.layer == Layer::kCloudDelete) {
      failed_cloud += sp.failed;
    }
  }
  double redo_sum = 0, bytes = 0, objects = 0, recover_sum = 0;
  for (const OneRecovery& r : rs) {
    redo_sum += r.redo_s;
    bytes += static_cast<double>(r.report.bytes_downloaded);
    objects += static_cast<double>(r.report.objects_downloaded);
    recover_sum += r.recover_s - (wan ? 0 : r.redo_s);
  }
  std::vector<double> untraced_ms;
  for (const OneRecovery& r : runs.front()) untraced_ms.push_back(r.recover_s * 1e3);
  const double untraced_p50 = Summarize(untraced_ms).p50;

  // Codec figures on the bucket's own objects: decode is recovery's work,
  // encode what the primary paid to write them.
  {
    ginja::Envelope envelope(config.envelope);
    envelope.SetCodecPool(std::make_shared<ginja::CodecPool>(config.codec_threads));
    ReportCodec(out, CheckStoredObjects(*bucket->store, envelope, true));
  }
  out.LayerMetric("db.redo_s", redo_sum / n, "s");
  out.LayerMetric("cloud.get_count", static_cast<double>(gets.size()), "count");
  out.LayerMetric("cloud.get_us_p50", get_us.p50, "us");
  out.LayerMetric("cloud.get_us_p99", get_us.tail, "us");
  out.LayerMetric("cloud.get_busy_frac",
            BusyFraction(gets, begin_ns, end_ns, config.recovery_prefetch), "ratio");
  out.LayerMetric("cloud.list_count", static_cast<double>(OfLayer(spans, Layer::kCloudList).size()), "count");
  out.LayerMetric("cloud.failed_ops", static_cast<double>(failed_cloud), "count");
  out.LayerMetric("recover.fetch_apply_s", recover_sum / n, "s");
  out.LayerMetric("recover.objects", objects / n, "count");
  out.LayerMetric("recover.mb", bytes / 1e6 / n, "MB");
  out.LayerMetric("bench.trace_overhead_pct",
            untraced_p50 > 0 ? (rto.p50 - untraced_p50) / untraced_p50 * 100 : 0, "%");
  if (wan) {
    out.LayerMetric("bench.cpu_s_per_model_s", cpu_share, "ratio");
  } else {
    const Summary req = Summarize(DurationsUs(OfLayer(spans, Layer::kS3Request)));
    const Summary backend = Summarize(DurationsUs(OfLayer(spans, Layer::kS3Backend)));
    out.LayerMetric("s3.request_us_p50", req.p50, "us");
    out.LayerMetric("s3.request_us_p99", req.tail, "us");
    out.LayerMetric("s3.backend_us_p50", backend.p50, "us");
    out.LayerMetric("s3.wire_self_us_p50", req.p50 - backend.p50, "us");
    out.LayerMetric("s3.requests", static_cast<double>(req.count), "count");
    out.LayerMetric("s3.rejected", static_cast<double>(source.s3->rejected_requests()), "count");
  }
  FillAbsentLayers(out, wan ? std::string("recover_wan reads through the WAN model only: no "
                                          "engine writes, commits, checkpoints or S3 wire")
                            : std::string("recover reads over the S3 wire only: no engine "
                                          "writes, commits, checkpoints or model clock"));
  return out;
}

}  // namespace perfbench
