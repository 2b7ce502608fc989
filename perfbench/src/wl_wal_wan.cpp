// wal_wan: open-loop WAL writes into CommitPipeline::Submit over a
// WAN-modeled S3 (MeteredStore + LatencyParams::WanS3) in model time.
//
// The writes are a real PostgreSQL-personality TPC-C WAL stream, captured
// during set-up at the InterceptFs boundary (8 KiB pages rewritten as
// commits append) and replayed cyclically, so coalescing runs at a TPC-C
// ratio. Arrivals are Poisson at a fixed model-time rate chosen to keep the
// uploader pool about half busy. A write's latency runs from when it was
// due to the first frontier advance (SetFrontierListener) covering its
// max_lsn. Almost no CPU is involved: this isolates batching, upload
// concurrency and the S window under S3 round trips.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench_stats.h"
#include "cloud/latency_model.h"
#include "cloud/memory_store.h"
#include "cloud/metered_store.h"
#include "common/codec/codec_pool.h"
#include "db/database.h"
#include "fs/mem_fs.h"
#include "ginja/commit_pipeline.h"
#include "probes.h"
#include "workload/tpcc.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Model µs per wall µs. Low enough that host CPU stays a small share of
// model time (checked by the time-domain guard below).
constexpr double kTimeScale = 10.0;
// Poisson arrival rate of WAL writes, per model second.
constexpr double kWritesPerModelSecond = 550.0;
// TPC-C transactions whose WAL writes are captured for replay.
constexpr int kCaptureTxns = 1500;
// Slices of the window for the tail figures: each reports the median over
// slices of its per-slice p99, so a host stall (magnified kTimeScale-fold
// in model time) in one slice does not move the run's result.
constexpr int kTailSlices = 5;
// Fail the run when host CPU, scaled into model time, exceeds this share
// of model time: beyond it modeled latency would absorb CPU contention.
constexpr double kMaxCpuShare = 0.5;
// ops_per_s counts the writes the generator handed over at most this late
// (model ms). Arrivals are scheduled regardless of progress, so a count of
// all writes would be the offered rate whatever the program does; a Submit
// that stalls (a full S window holds 1000 writes, 1.8 model s of arrivals)
// makes later writes late. Host scheduling noise, magnified by the time
// scale, made writes up to 185 model ms late on a 4-core host; the limit
// sits above that.
constexpr double kOnTimeMs = 250.0;

struct CapturedWrite {
  std::string file;
  std::uint64_t offset = 0;
  ginja::Bytes data;
};

// Records the engine's WAL-segment writes as InterceptFs reports them.
class WalCapture : public ginja::FileEventListener {
 public:
  explicit WalCapture(ginja::DbLayout layout) : layout_(std::move(layout)) {}
  void OnFileEvent(const ginja::FileEvent& event) override {
    if (event.kind != ginja::FileEvent::Kind::kWrite) return;
    if (layout_.Classify(event.path, event.offset) != ginja::FileKind::kWalSegment) {
      return;
    }
    writes.push_back({event.path, event.offset, event.data});
  }
  std::vector<CapturedWrite> writes;

 private:
  ginja::DbLayout layout_;
};

// Set-up: populate TPC-C, run a fixed number of seeded transactions on one
// terminal and keep the WAL writes they made.
std::vector<CapturedWrite> CaptureTpccWal(std::uint64_t seed, std::string* error) {
  auto clock = std::make_shared<ginja::RealClock>();
  auto local = std::make_shared<ginja::MemFs>();
  auto intercept = std::make_shared<ginja::InterceptFs>(local, clock, 0);
  const ginja::DbLayout layout = ginja::DbLayout::Postgres();
  ginja::Database db(intercept, layout);
  ginja::TpccConfig tpcc_config;
  tpcc_config.seed = DeriveSeed(seed, 1);
  ginja::TpccWorkload tpcc(&db, tpcc_config);
  ginja::Status st = db.Create();
  if (st.ok()) st = tpcc.Populate();
  if (st.ok()) st = db.Checkpoint();
  if (!st.ok()) {
    *error = st.ToString();
    return {};
  }
  WalCapture capture(layout);
  intercept->SetListener(&capture);
  ginja::SplitMix64 rng(DeriveSeed(seed, 100));
  for (int i = 0; i < kCaptureTxns; ++i) {
    st = tpcc.Execute(tpcc.PickType(rng), rng);
    if (!st.ok() && st.code() != ginja::ErrorCode::kAborted) {
      *error = st.ToString();
      return {};
    }
  }
  intercept->SetListener(nullptr);
  return std::move(capture.writes);
}

struct Pipeline {
  std::shared_ptr<ginja::ScaledClock> clock;
  std::shared_ptr<ginja::MemoryStore> raw_store;
  std::shared_ptr<ginja::MeteredStore> metered;
  std::shared_ptr<ginja::Envelope> envelope;
  std::unique_ptr<ginja::CommitPipeline> commits;
};

Pipeline BuildPipeline(const ginja::GinjaConfig& config, std::uint64_t seed,
                       bool probes) {
  Pipeline p;
  p.clock = std::make_shared<ginja::ScaledClock>(kTimeScale);
  p.raw_store = std::make_shared<ginja::MemoryStore>();
  auto latency = std::make_shared<ginja::LatencyModel>(
      ginja::LatencyParams::WanS3(), p.clock, DeriveSeed(seed, 2));
  p.metered = std::make_shared<ginja::MeteredStore>(p.raw_store, p.clock, latency);
  ginja::ObjectStorePtr store = p.metered;
  if (probes) store = std::make_shared<TimedStore>(store);
  // The same envelope + codec pool wiring Ginja gives its commit pipeline.
  p.envelope = std::make_shared<ginja::Envelope>(config.envelope);
  p.envelope->SetCodecPool(std::make_shared<ginja::CodecPool>(config.codec_threads));
  p.commits = std::make_unique<ginja::CommitPipeline>(
      store, std::make_shared<ginja::CloudView>(), p.clock, config, p.envelope);
  return p;
}

// One measured window: per-write timeline in model µs.
struct Timeline {
  std::vector<std::uint64_t> due, sent, returned, acked;
  // Writes of this window the published frontier covered right after each
  // Submit returned.
  std::vector<std::uint64_t> covered_at_return;
  std::uint64_t submitted = 0;
  std::uint64_t submitted_bytes = 0;
  std::uint64_t begin_us = 0, end_us = 0;   // model time
  std::uint64_t begin_ns = 0, end_ns = 0;   // wall
  ginja::UsageReport usage_begin, usage_end;
};

// Frontier bookkeeping shared with the pipeline's unlocker thread. Write i
// carries max_lsn = i + 1, so frontier F acknowledges writes [0, F).
struct AckTracker {
  ginja::CommitPipeline* commits = nullptr;
  ginja::Clock* clock = nullptr;
  std::vector<std::uint64_t>* acked = nullptr;  // sized before Start
  std::uint64_t offset = 0;   // max_lsn of write 0 of the current window - 1
  std::uint64_t next = 0;     // next unacked index in the current window
  std::uint64_t last_frontier = 0;
  bool monotone = true;
  std::mutex mu;

  void OnAdvance() {
    const std::uint64_t frontier = commits->UploadedWalFrontier();
    const std::uint64_t now = clock->NowMicros();
    std::lock_guard<std::mutex> lock(mu);
    if (frontier < last_frontier) monotone = false;
    last_frontier = std::max(last_frontier, frontier);
    if (acked == nullptr) return;
    while (offset + next < frontier && next < acked->size()) {
      (*acked)[next++] = now;
    }
  }
};

void RunWindow(Pipeline& p, AckTracker& tracker,
               const std::vector<CapturedWrite>& capture,
               std::uint64_t& next_lsn, ginja::SplitMix64& arrivals,
               double wall_seconds, Timeline& t) {
  const double model_seconds = wall_seconds * kTimeScale;
  const std::size_t cap = static_cast<std::size_t>(
      kWritesPerModelSecond * model_seconds * 1.5 + 1000);
  t.due.assign(cap, 0);
  t.sent.assign(cap, 0);
  t.returned.assign(cap, 0);
  t.acked.assign(cap, 0);
  t.covered_at_return.assign(cap, 0);
  {
    std::lock_guard<std::mutex> lock(tracker.mu);
    tracker.acked = &t.acked;
    tracker.offset = next_lsn - 1;
    tracker.next = 0;
  }
  std::uint64_t span = 0;  // capture's byte span: cycles never overlap pages
  for (const CapturedWrite& w : capture) span = std::max(span, w.offset + w.data.size());

  t.usage_begin = p.metered->Usage();
  t.begin_ns = NowNs();
  t.begin_us = p.clock->NowMicros();
  t.end_us = t.begin_us + static_cast<std::uint64_t>(model_seconds * 1e6);
  double due = static_cast<double>(t.begin_us);
  std::size_t i = 0;
  while (i < cap) {
    due += -std::log(1.0 - arrivals.NextDouble()) / kWritesPerModelSecond * 1e6;
    const auto due_us = static_cast<std::uint64_t>(due);
    if (due_us >= t.end_us) break;
    std::uint64_t now = p.clock->NowMicros();
    if (now < due_us) {
      // Sleep in wall time: the scaled clock would spin for short waits.
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          static_cast<std::int64_t>(static_cast<double>(due_us - now) * 1e3 / kTimeScale)));
      now = p.clock->NowMicros();
    }
    const std::uint64_t lsn = next_lsn++;
    const CapturedWrite& src = capture[(lsn - 1) % capture.size()];
    const std::uint64_t cycle = (lsn - 1) / capture.size();
    ginja::WalWrite write;
    write.file = src.file;
    write.offset = src.offset + cycle * span;
    write.data = src.data;
    write.max_lsn = lsn;
    t.submitted_bytes += write.data.size();
    t.due[i] = due_us;
    t.sent[i] = now;
    p.commits->Submit(std::move(write));
    t.returned[i] = p.clock->NowMicros();
    const std::uint64_t frontier = p.commits->UploadedWalFrontier();
    t.covered_at_return[i] = frontier > tracker.offset ? frontier - tracker.offset : 0;
    ++i;
  }
  t.submitted = i;
  const std::uint64_t now = p.clock->NowMicros();
  if (now < t.end_us) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        static_cast<std::int64_t>(static_cast<double>(t.end_us - now) * 1e3 / kTimeScale)));
  }
  t.end_ns = NowNs();
  t.usage_end = p.metered->Usage();
}

// The pipeline publishes its frontier before it wakes blocked submitters and
// calls the frontier listener after, so a listener timestamp can trail a
// Submit return that the advance allowed. A frontier read right after each
// return bounds the ack time from above: pull acked[j] back to returned[i]
// for every write j that read shows covered.
void ApplyFrontierReads(Timeline& t) {
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < t.submitted; ++i) {
    const std::uint64_t upto = std::min<std::uint64_t>(t.covered_at_return[i], t.submitted);
    for (; covered < upto; ++covered) {
      if (t.acked[covered] == 0 || t.acked[covered] > t.returned[i]) {
        t.acked[covered] = t.returned[i];
      }
    }
  }
}

// Commit latency (ms, model) of each acknowledged write, with its due time.
struct CommitLatencies {
  std::vector<std::uint64_t> due_us;
  std::vector<double> ms;
};

CommitLatencies CommitLatencyMs(const Timeline& t) {
  CommitLatencies c;
  for (std::size_t i = 0; i < t.submitted; ++i) {
    if (t.acked[i] == 0) continue;
    c.due_us.push_back(t.due[i]);
    c.ms.push_back(t.acked[i] > t.due[i]
                       ? static_cast<double>(t.acked[i] - t.due[i]) / 1e3
                       : 0.0);
  }
  return c;
}

// One measured window on a fresh pipeline: the arrival schedule and LSNs
// start over from the seed, so two windows see the same writes at the same
// due times. `recorder` (traced window) records only while the writes run.
struct WindowRun {
  Timeline t;
  bool frontier_monotone = true;
  double cpu_share = 0;  // host CPU scaled into model time, over model time
};

WindowRun RunPipeline(Pipeline& p, const std::vector<CapturedWrite>& capture,
                      std::uint64_t seed, double seconds, SpanRecorder* recorder) {
  WindowRun w;
  AckTracker tracker;
  tracker.commits = p.commits.get();
  tracker.clock = p.clock.get();
  p.commits->SetFrontierListener([&tracker] { tracker.OnAdvance(); });
  p.commits->Start();
  ginja::SplitMix64 arrivals(DeriveSeed(seed, 3));
  std::uint64_t next_lsn = 1;
  if (recorder) recorder->Activate();
  const double cpu0 = ProcessCpuSeconds();
  RunWindow(p, tracker, capture, next_lsn, arrivals, seconds, w.t);
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  p.commits->Drain();
  if (recorder) recorder->Deactivate();
  p.commits->Stop();
  p.commits->SetFrontierListener(nullptr);  // the tracker dies with this call
  ApplyFrontierReads(w.t);
  w.frontier_monotone = tracker.monotone;
  const double model_s = static_cast<double>(w.t.end_us - w.t.begin_us) / 1e6;
  w.cpu_share = cpu_s * kTimeScale / model_s;
  return w;
}

// The correctness gates of one window; returns the exposure at each submit.
std::vector<std::uint64_t> GateWindow(Outcome& out, const WindowRun& w,
                                      const ginja::GinjaConfig& config) {
  const Timeline& t = w.t;
  std::uint64_t acked = 0;
  for (std::size_t i = 0; i < t.submitted; ++i) acked += t.acked[i] != 0;
  out.attempted += t.submitted;
  out.failed += t.submitted - acked;
  out.Gate(acked == t.submitted,
           "wal_wan: " + std::to_string(t.submitted - acked) + " of " +
               std::to_string(t.submitted) + " writes unacknowledged after Drain");
  out.Gate(w.frontier_monotone, "wal_wan: the WAL frontier moved backwards");
  std::vector<std::uint64_t> exposure = Exposure(
      std::vector<std::uint64_t>(t.returned.begin(), t.returned.begin() + t.submitted),
      std::vector<std::uint64_t>(t.acked.begin(), t.acked.begin() + t.submitted));
  const std::uint64_t max_exposure =
      exposure.empty() ? 0 : *std::max_element(exposure.begin(), exposure.end());
  out.Gate(max_exposure <= config.safety,
           "wal_wan: exposure " + std::to_string(max_exposure) + " exceeds S=" +
               std::to_string(config.safety));
  out.Gate(w.cpu_share <= kMaxCpuShare,
           "wal_wan: host CPU is " + std::to_string(w.cpu_share) +
               " of model time (limit " + std::to_string(kMaxCpuShare) +
               "); modeled latency would absorb CPU contention");
  return exposure;
}

}  // namespace

Outcome RunWalWan(const RunOptions& options) {
  Outcome out;
  const ginja::GinjaConfig config = DeployedConfig();
  char line[320];

  // Set-up, repeated; the last capture and pipeline are the ones measured.
  // A traced run measures two windows of half the length each: the first on
  // a probe-free pipeline, the second on a freshly built probed one with the
  // recorder on, so their p50 difference is the cost of tracing.
  std::vector<double> setup_s;
  std::vector<CapturedWrite> capture;
  Pipeline p;
  for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
    p = Pipeline{};
    std::string error;
    const std::uint64_t t0 = NowNs();
    capture = CaptureTpccWal(options.seed, &error);
    if (capture.empty()) {
      out.Gate(false, "wal_wan set-up failed: " + error);
      return out;
    }
    p = BuildPipeline(config, options.seed, /*probes=*/false);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  const double window = options.trace ? options.seconds / 2 : options.seconds;
  const WindowRun base = RunPipeline(p, capture, options.seed, window, nullptr);
  std::vector<std::uint64_t> exposure = GateWindow(out, base, config);
  SpanRecorder recorder;
  WindowRun traced;
  if (options.trace) {
    p = BuildPipeline(config, options.seed, /*probes=*/true);
    traced = RunPipeline(p, capture, options.seed, window, &recorder);
    exposure = GateWindow(out, traced, config);
  }
  const WindowRun& w = options.trace ? traced : base;
  const Timeline& t = w.t;
  const double model_s = static_cast<double>(t.end_us - t.begin_us) / 1e6;

  const CommitLatencies latencies = CommitLatencyMs(t);
  const Summary commit = Summarize(latencies.ms);
  std::vector<double> exposure_d(exposure.begin(), exposure.end());
  const Summary rpo = Summarize(exposure_d);
  std::vector<double> exposure_sorted = exposure_d;
  std::sort(exposure_sorted.begin(), exposure_sorted.end());
  const double rpo_p90 = exposure_sorted.empty() ? 0 : QuantileSorted(exposure_sorted, 0.9);
  // Slices by due time for latency, by return time for exposure.
  const double tail_ms = SliceMedianTail(latencies.due_us, latencies.ms, t.begin_us,
                                         t.end_us, kTailSlices);
  const double rpo_tail = SliceMedianTail(
      std::vector<std::uint64_t>(t.returned.begin(), t.returned.begin() + t.submitted),
      exposure_d, t.begin_us, t.end_us, kTailSlices);
  const std::vector<double> lateness = Lateness(
      std::vector<std::uint64_t>(t.due.begin(), t.due.begin() + t.submitted),
      std::vector<std::uint64_t>(t.sent.begin(), t.sent.begin() + t.submitted));
  const Summary late = Summarize(lateness);
  std::uint64_t on_time = 0;
  for (std::size_t i = 0; i < t.submitted; ++i) {
    on_time += t.acked[i] != 0 && lateness[i] <= kOnTimeMs * 1e3;
  }
  const double writes = static_cast<double>(std::max<std::uint64_t>(t.submitted, 1));
  const auto puts = t.usage_end.puts - t.usage_begin.puts;
  const auto requests = puts + (t.usage_end.gets - t.usage_begin.gets) +
                        (t.usage_end.lists - t.usage_begin.lists) +
                        (t.usage_end.deletes - t.usage_begin.deletes);
  const double upload_kb =
      static_cast<double>(t.usage_end.bytes_uploaded - t.usage_begin.bytes_uploaded) / 1024.0;
  const ginja::PriceBook prices = ginja::PriceBook::AmazonS3May2017();
  const double usd_month = static_cast<double>(puts) * prices.per_put / model_s * 30 * 86400;

  std::snprintf(line, sizeof(line),
                "wal_wan: %.0f writes/model-s Poisson, time scale %.0fx, %zu captured "
                "TPC-C WAL writes; window %.1f model-s, %llu writes (%llu at most "
                "%.0f ms late), %llu PUTs",
                kWritesPerModelSecond, kTimeScale, capture.size(), model_s,
                static_cast<unsigned long long>(t.submitted),
                static_cast<unsigned long long>(on_time), kOnTimeMs,
                static_cast<unsigned long long>(puts));
  out.Line(line);
  std::snprintf(line, sizeof(line),
                "commit latency (model): p50 %.3f ms, p%.1f %.3f ms over n=%zu "
                "(median of %d slices' p99: %.3f ms); exposure p50 %.0f, p90 %.0f, "
                "p%.1f %.0f (slices %.0f); generator late p%.1f %.3f ms",
                commit.p50, commit.tail_q * 100, commit.tail, commit.count, kTailSlices,
                tail_ms, rpo.p50, rpo_p90, rpo.tail_q * 100, rpo.tail, rpo_tail,
                late.tail_q * 100, late.tail / 1e3);
  out.Line(line);
  std::snprintf(line, sizeof(line),
                "WAL PUT charges %.2f USD/month at this rate; host CPU %.3f of model time",
                usd_month, w.cpu_share);
  out.Line(line);

  if (!options.trace) {
    out.EndToEnd("setup_s", Median(setup_s), "s");
    out.EndToEnd("ops_per_s", static_cast<double>(on_time) / model_s, "1/s");
    out.EndToEnd("p50_ms", commit.p50, "ms");
    out.EndToEnd("tail_ms", tail_ms, "ms");
    out.EndToEnd("rpo_p90_writes", rpo_p90, "count");
    out.EndToEnd("kb_per_op", upload_kb / writes, "kB");
    out.EndToEnd("requests_per_kop", static_cast<double>(requests) / writes * 1000, "count");
    return out;
  }

  // -- per-layer (traced window) -------------------------------------------------------
  const std::vector<Span> spans = recorder.Collect();
  if (!options.trace_dir.empty()) {
    recorder.WriteTsv(options.trace_dir + "/wal_wan_seed" +
                      std::to_string(options.seed) + ".tsv");
  }
  const auto& cs = p.commits->stats();
  const double batches = static_cast<double>(std::max<std::uint64_t>(cs.batches_uploaded.Get(), 1));
  const auto put_spans = OfLayer(spans, Layer::kCloudPut);
  // Spans are wall time; model time is wall × scale.
  std::vector<double> put_us = DurationsUs(put_spans);
  for (double& v : put_us) v *= kTimeScale;
  const Summary put = Summarize(put_us);
  std::vector<double> put_kb, inflight;
  std::uint64_t failed_cloud = 0;
  for (const Span& sp : spans) {
    if (sp.layer == Layer::kCloudPut) {
      put_kb.push_back(static_cast<double>(sp.bytes) / 1024.0);
      inflight.push_back(sp.inflight);
    }
    failed_cloud += sp.failed;
  }
  const double untraced_p50 = Summarize(CommitLatencyMs(base.t).ms).p50;

  out.LayerMetric("rpo.exposure_p99_writes", rpo_tail, "count");
  out.LayerMetric("commit.writes_per_batch", static_cast<double>(cs.writes_submitted.Get()) / batches, "count");
  out.LayerMetric("commit.closed_full_ratio", static_cast<double>(cs.batches_closed_full.Get()) / batches, "ratio");
  out.LayerMetric("commit.coalesce_ratio",
            cs.object_logical_bytes.Sum() > 0
                ? static_cast<double>(t.submitted_bytes) / cs.object_logical_bytes.Sum()
                : 0,
            "ratio");
  out.LayerMetric("commit.upload_retries", static_cast<double>(cs.upload_retries.Get()), "count");
  ReportCodec(out, CheckStoredObjects(*p.raw_store, *p.envelope, true));
  out.LayerMetric("cloud.put_count", static_cast<double>(put_spans.size()), "count");
  out.LayerMetric("cloud.put_us_p50", put.p50, "us");
  out.LayerMetric("cloud.put_us_p99", put.tail, "us");
  out.LayerMetric("cloud.put_kb_p50", Summarize(put_kb).p50, "kB");
  out.LayerMetric("cloud.put_busy_frac",
            BusyFraction(put_spans, t.begin_ns, t.end_ns, config.uploader_threads), "ratio");
  out.LayerMetric("cloud.put_inflight_p99", Summarize(inflight).tail, "count");
  out.LayerMetric("cloud.list_count", static_cast<double>(OfLayer(spans, Layer::kCloudList).size()), "count");
  out.LayerMetric("cloud.delete_count", static_cast<double>(OfLayer(spans, Layer::kCloudDelete).size()), "count");
  out.LayerMetric("cloud.failed_ops", static_cast<double>(failed_cloud), "count");
  out.LayerMetric("cost.usd_per_month", usd_month, "USD");
  out.LayerMetric("bench.generator_late_ms_p99", late.tail / 1e3, "ms");
  out.LayerMetric("bench.cpu_s_per_model_s", w.cpu_share, "ratio");
  out.LayerMetric("bench.trace_overhead_pct",
            untraced_p50 > 0 ? (commit.p50 - untraced_p50) / untraced_p50 * 100 : 0, "%");
  FillAbsentLayers(out, "wal_wan drives CommitPipeline directly: no engine, fs, "
                        "checkpoints, recovery or S3 wire");
  return out;
}

}  // namespace perfbench
