// tpcc: closed-loop TPC-C through the whole write path on a real clock.
//
// One terminal calls TpccWorkload::Execute on a PostgreSQL-personality
// engine whose file I/O goes through InterceptFs into Ginja, which ships WAL
// batches and checkpoints to a MeteredStore over an in-memory MemoryStore.
// No fsync model, FUSE hop 0, no cloud latency: the program's own CPU is
// the bottleneck, so Ginja's foreground path, codec, coalescing and
// checkpoint work all show up in txn throughput and latency.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "bench_stats.h"
#include "cloud/memory_store.h"
#include "cloud/metered_store.h"
#include "db/database.h"
#include "fs/mem_fs.h"
#include "ginja/ginja.h"
#include "probes.h"
#include "workload/tpcc.h"
#include "workloads.h"

namespace perfbench {

namespace {

// One terminal (the loop in RunTerminal): the engine serializes every
// commit and checkpoint on one database mutex, so on a 4-core host a second
// terminal adds no throughput (3370-3420 txn/s with two, 3330-3400 with one)
// and turns the p99 into scheduler contention between terminals (2.8-5.0 ms
// across runs with two, 0.29 ms with one).
constexpr int kWarehouses = 4;
constexpr int kTpccScale = 100;
// PostgreSQL 9.3, the DBMS of the paper's deployment, starts a checkpoint
// once checkpoint_segments (default 3) WAL segments of 16 MiB have filled
// since the last one; its other trigger, checkpoint_timeout (default 5 min),
// never fires within a run. The terminal applies the same WAL-volume rule.
constexpr ginja::Lsn kCheckpointWalBytes = 3 * (ginja::Lsn{16} << 20);
// The window is a fixed amount of work, not a fixed time: the database grows
// as TPC-C inserts rows, so each engine checkpoint flushes more dirty pages
// than the one before (0.6 s for the first cycle of the window, 3.6 s for
// the eighth on a 4-core host) and the transaction rate falls from cycle to
// cycle. A time-based window would hold more and later cycles on a faster
// host, which magnifies every change in host speed; a fixed count of cycles
// makes each run do the same work and only its time vary. The count is
// derived from --seconds at the mean cycle length of the first nine cycles
// on a 4-core host, so the window lasts about --seconds there.
constexpr double kNominalCycleSeconds = 4.5;
constexpr auto kRpoSampleEvery = std::chrono::milliseconds(1);
// A run that has not completed its window by then (a host far slower than
// the nominal) stops and fails its gate instead of running into the
// harness timeout.
constexpr double kMaxWindowFactor = 3.0;

// Checkpoint cycles measured in a window of `seconds` (at least two).
std::size_t WindowCycles(double seconds) {
  return static_cast<std::size_t>(
      std::max(2.0, std::round(seconds / kNominalCycleSeconds)));
}

// Wall time after which a run that has not completed its warm-up cycle and
// window gives up.
double GiveUpSeconds(double seconds) {
  return (seconds + kNominalCycleSeconds) * kMaxWindowFactor;
}

struct Stack {
  std::shared_ptr<ginja::Clock> clock;
  std::shared_ptr<ginja::MemFs> local;
  std::shared_ptr<ginja::InterceptFs> intercept;
  std::shared_ptr<ginja::MemoryStore> raw_store;
  std::shared_ptr<ginja::MeteredStore> metered;
  std::unique_ptr<ginja::Database> db;
  std::unique_ptr<ginja::TpccWorkload> tpcc;
  std::unique_ptr<ginja::Ginja> ginja;
  std::unique_ptr<TimedListener> listener;  // probed stacks only

  ~Stack() {
    if (intercept) intercept->SetListener(nullptr);
    if (ginja) ginja->Kill();
  }
};

// Populate, first checkpoint, Boot (initial dump): the set-up a user pays
// before the database is protected. `probes` installs the outside-in timing
// decorators; only the traced window runs on such a stack.
std::unique_ptr<Stack> BuildStack(const ginja::GinjaConfig& config,
                                  std::uint64_t seed, bool probes,
                                  std::string* error) {
  auto s = std::make_unique<Stack>();
  s->clock = std::make_shared<ginja::RealClock>();
  s->local = std::make_shared<ginja::MemFs>();
  ginja::VfsPtr below = s->local;
  if (probes) below = std::make_shared<TimedVfs>(below, Layer::kFsLocal);
  s->intercept = std::make_shared<ginja::InterceptFs>(below, s->clock, 0);
  ginja::VfsPtr above = s->intercept;
  if (probes) above = std::make_shared<TimedVfs>(above, Layer::kFsAbove);

  const ginja::DbLayout layout = ginja::DbLayout::Postgres();
  s->db = std::make_unique<ginja::Database>(above, layout);
  ginja::TpccConfig tpcc_config;
  tpcc_config.warehouses = kWarehouses;
  tpcc_config.scale = kTpccScale;
  tpcc_config.seed = DeriveSeed(seed, 1);
  s->tpcc = std::make_unique<ginja::TpccWorkload>(s->db.get(), tpcc_config);
  ginja::Status st = s->db->Create();
  if (st.ok()) st = s->tpcc->Populate();
  if (st.ok()) st = s->db->Checkpoint();
  if (!st.ok()) {
    *error = "populate: " + st.ToString();
    return nullptr;
  }

  s->raw_store = std::make_shared<ginja::MemoryStore>();
  s->metered = std::make_shared<ginja::MeteredStore>(s->raw_store, s->clock);
  ginja::ObjectStorePtr store = s->metered;
  if (probes) store = std::make_shared<TimedStore>(store);
  s->ginja = std::make_unique<ginja::Ginja>(s->local, store, s->clock, layout,
                                            config);
  st = s->ginja->Boot();
  if (!st.ok()) {
    *error = "boot: " + st.ToString();
    return nullptr;
  }
  if (probes) {
    s->listener = std::make_unique<TimedListener>(s->ginja.get(), layout);
    s->intercept->SetListener(s->listener.get());
  } else {
    s->intercept->SetListener(s->ginja.get());
  }
  return s;
}

std::uint64_t Deletes(const ginja::CheckpointPipelineStats& s) {
  return s.wal_objects_deleted.Get() + s.db_objects_deleted.Get() +
         s.chunks_deleted.Get();
}

// Counters read right after an engine checkpoint returns: the boundary of a
// checkpoint cycle. A window runs from one boundary to a later one, so it
// holds whole cycles and no checkpoint straddles its edges.
struct Boundary {
  std::uint64_t ns = 0;
  ginja::UsageReport usage;
  std::uint64_t checkpoints = 0;
  std::uint64_t dumps = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t deletes = 0;
  std::uint64_t blocked = 0;
};

Boundary ReadBoundary(Stack& s, std::uint64_t ns) {
  const auto& ck = s.ginja->checkpoint_stats();
  Boundary b;
  b.ns = ns;
  b.usage = s.metered->Usage();
  b.checkpoints = ck.checkpoints_uploaded.Get();
  b.dumps = ck.dumps_uploaded.Get();
  b.checkpoint_bytes = ck.bytes_uploaded.Get();
  b.deletes = Deletes(ck);
  b.blocked = s.ginja->commit_stats().blocked_waits.Get();
  return b;
}

struct TxnSample {
  std::uint64_t start_ns = 0;
  double latency_ms = 0;
};

// Everything one run of the terminal produced, warm-up included.
struct RunResult {
  std::vector<TxnSample> txns;
  std::vector<Interval> checkpoints;   // engine checkpoints, wall ns
  std::vector<Boundary> boundaries;    // one per checkpoint
  std::vector<std::uint64_t> pending_at;
  std::vector<double> pending;         // Ginja::PendingWrites samples
  std::uint64_t failed = 0;            // transactions and checkpoints
  std::uint64_t rollbacks = 0;
  double cpu_s = 0;
  double wall_s = 0;
  // The measured window: boundaries[first] .. boundaries[last], i.e. the
  // cycles after the warm-up cycle.
  std::size_t first = 0, last = 0;
  bool complete = false;
};

// Runs the terminal on one thread while this thread samples exposure. The
// first checkpoint cycle is the warm-up; the window opens at its end and
// closes `cycles` checkpoints later. `on_window` runs on the terminal's
// thread when the window opens (the traced run switches its recorder on
// there).
RunResult RunTerminal(Stack& s, std::uint64_t seed, std::size_t cycles,
                      double give_up_seconds,
                      const std::function<void()>& on_window) {
  RunResult r;
  r.txns.reserve(1 << 18);
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  const double cpu0 = ProcessCpuSeconds();
  const std::uint64_t start = NowNs();

  std::thread terminal([&] {
    ginja::SplitMix64 rng(DeriveSeed(seed, 100));
    ginja::Lsn checkpointed = s.db->WalEndLsn();
    std::uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto type = s.tpcc->PickType(rng);
      SetCurrentTxn(++n);
      const std::uint64_t t0 = NowNs();
      ginja::Status st;
      {
        ScopedSpan span(Layer::kTxn);
        st = s.tpcc->Execute(type, rng);
      }
      const std::uint64_t t1 = NowNs();
      SetCurrentTxn(0);
      r.txns.push_back({t0, static_cast<double>(t1 - t0) / 1e6});
      if (!st.ok()) {
        // The spec's intentional 1% NewOrder rollback is not a failure.
        if (st.code() == ginja::ErrorCode::kAborted) {
          ++r.rollbacks;
        } else {
          ++r.failed;
        }
      }
      if (s.db->WalEndLsn() - checkpointed >= kCheckpointWalBytes) {
        const std::uint64_t c0 = NowNs();
        {
          ScopedSpan span(Layer::kCheckpoint);
          if (!s.db->Checkpoint().ok()) ++r.failed;
        }
        const std::uint64_t c1 = NowNs();
        checkpointed = s.db->WalEndLsn();
        r.checkpoints.push_back({c0, c1});
        r.boundaries.push_back(ReadBoundary(s, c1));
        if (r.boundaries.size() == 1) on_window();
        if (r.boundaries.size() == cycles + 1) break;
      }
    }
    done.store(true, std::memory_order_release);
  });

  const std::uint64_t give_up =
      start + static_cast<std::uint64_t>(give_up_seconds * 1e9);
  while (!done.load(std::memory_order_acquire)) {
    const std::uint64_t now = NowNs();
    r.pending_at.push_back(now);
    r.pending.push_back(static_cast<double>(s.ginja->PendingWrites()));
    if (now >= give_up) break;
    std::this_thread::sleep_for(kRpoSampleEvery);
  }
  stop.store(true);
  terminal.join();
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  r.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  r.complete = r.boundaries.size() == cycles + 1;
  r.first = 0;
  r.last = r.complete ? cycles : 0;
  return r;
}

// The figures of a run's window.
struct Window {
  double seconds = 0;
  std::uint64_t txns = 0;
  Summary latency;        // ms
  Summary pending;        // writes
  double pending_p90 = 0;
  std::size_t max_pending = 0;  // over the whole run
  Boundary begin, end;
  std::uint64_t checkpoints = 0, dumps = 0;
  double checkpoint_share = 0;  // of the window spent in engine checkpoints
};

Window Measure(const RunResult& r) {
  Window w;
  for (double p : r.pending) {
    w.max_pending = std::max(w.max_pending, static_cast<std::size_t>(p));
  }
  if (!r.complete) return w;
  w.begin = r.boundaries[r.first];
  w.end = r.boundaries[r.last];
  w.seconds = static_cast<double>(w.end.ns - w.begin.ns) / 1e9;
  std::vector<double> latency, pending;
  for (const TxnSample& x : r.txns) {
    if (x.start_ns >= w.begin.ns && x.start_ns < w.end.ns) latency.push_back(x.latency_ms);
  }
  for (std::size_t i = 0; i < r.pending.size(); ++i) {
    if (r.pending_at[i] >= w.begin.ns && r.pending_at[i] < w.end.ns) {
      pending.push_back(r.pending[i]);
    }
  }
  w.txns = latency.size();
  w.latency = Summarize(std::move(latency));
  std::sort(pending.begin(), pending.end());
  if (!pending.empty()) w.pending_p90 = QuantileSorted(pending, 0.9);
  w.pending = Summarize(std::move(pending));
  w.checkpoints = w.end.checkpoints - w.begin.checkpoints;
  w.dumps = w.end.dumps - w.begin.dumps;
  std::uint64_t in_checkpoints = 0;
  for (std::size_t i = r.first + 1; i <= r.last; ++i) {
    in_checkpoints += r.checkpoints[i].end - r.checkpoints[i].begin;
  }
  w.checkpoint_share = static_cast<double>(in_checkpoints) / 1e9 / w.seconds;
  return w;
}

// Stops the stack cleanly and applies the run's correctness gates; returns
// the codec check of its bucket.
CodecCheck FinishAndGate(Outcome& out, Stack& s, const RunResult& r,
                         const Window& w, const ginja::GinjaConfig& config,
                         bool time_encode) {
  s.intercept->SetListener(nullptr);
  s.ginja->Drain();
  s.ginja->Stop();

  out.attempted += r.txns.size() + r.checkpoints.size();
  out.failed += r.failed;
  out.Gate(r.failed == 0, "tpcc: " + std::to_string(r.failed) +
                              " transactions or checkpoints failed (rollbacks excluded)");
  out.Gate(r.complete, "tpcc: the run completed " +
                           std::to_string(r.checkpoints.size()) +
                           " checkpoints, too few to close its window");
  // Exposure: Ginja::PendingWrites counts a write blocked inside Submit as
  // well, so a sample may reach S plus the one terminal's blocked write;
  // writes returned to the engine stay <= S.
  out.Gate(w.max_pending <= config.safety + 1,
           "tpcc: sampled exposure " + std::to_string(w.max_pending) +
               " exceeds S=" + std::to_string(config.safety));
  const CodecCheck codec =
      CheckStoredObjects(*s.raw_store, s.ginja->envelope(), time_encode);
  out.Gate(codec.failures == 0 && codec.objects > 0,
           "tpcc: " + std::to_string(codec.failures) + " of " +
               std::to_string(codec.objects) +
               " stored objects failed to decode/MAC-verify");
  return codec;
}

void Describe(Outcome& out, const char* what, const RunResult& r, const Window& w) {
  char line[320];
  std::snprintf(line, sizeof(line),
                "tpcc %s: window %.2f s of whole checkpoint cycles, %llu txns "
                "(%llu rollbacks in the run), %llu checkpoints (%.1f%% of the "
                "window), %llu dumps",
                what, w.seconds, static_cast<unsigned long long>(w.txns),
                static_cast<unsigned long long>(r.rollbacks),
                static_cast<unsigned long long>(w.checkpoints),
                w.checkpoint_share * 100, static_cast<unsigned long long>(w.dumps));
  out.Line(line);
  std::snprintf(line, sizeof(line),
                "txn latency: p50 %.4f ms, p%.1f %.4f ms over n=%zu; "
                "pending writes p50 %.0f, p90 %.0f, p%.1f %.0f over n=%zu samples",
                w.latency.p50, w.latency.tail_q * 100, w.latency.tail,
                w.latency.count, w.pending.p50, w.pending_p90,
                w.pending.tail_q * 100, w.pending.tail, w.pending.count);
  out.Line(line);
}

}  // namespace

Outcome RunTpcc(const RunOptions& options) {
  Outcome out;
  const ginja::GinjaConfig config = DeployedConfig();
  char line[256];
  std::snprintf(line, sizeof(line),
                "tpcc: 1 terminal, %d warehouses, a checkpoint per %llu MiB of WAL",
                kWarehouses,
                static_cast<unsigned long long>(kCheckpointWalBytes >> 20));
  out.Line(line);

  if (!options.trace) {
    // Set-up, repeated; the last stack is the one measured.
    std::vector<double> setup_s;
    std::unique_ptr<Stack> stack;
    for (int i = 0; i < kSetupRepeats; ++i) {
      stack.reset();
      std::string error;
      const std::uint64_t t0 = NowNs();
      stack = BuildStack(config, options.seed, /*probes=*/false, &error);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (!stack) {
        out.Gate(false, "tpcc set-up failed: " + error);
        return out;
      }
    }
    const RunResult r = RunTerminal(*stack, options.seed, WindowCycles(options.seconds),
                                    GiveUpSeconds(options.seconds), [] {});
    const Window w = Measure(r);
    FinishAndGate(out, *stack, r, w, config, /*time_encode=*/false);
    Describe(out, "run", r, w);

    const double txns = static_cast<double>(std::max<std::uint64_t>(w.txns, 1));
    const auto& u0 = w.begin.usage;
    const auto& u1 = w.end.usage;
    const auto requests = (u1.puts - u0.puts) + (u1.gets - u0.gets) +
                          (u1.lists - u0.lists) + (u1.deletes - u0.deletes);
    out.EndToEnd("setup_s", Median(setup_s), "s");
    out.EndToEnd("ops_per_s", w.seconds > 0 ? static_cast<double>(w.txns) / w.seconds : 0,
                 "1/s");
    out.EndToEnd("p50_ms", w.latency.p50, "ms");
    out.EndToEnd("tail_ms", w.latency.tail, "ms");
    out.EndToEnd("rpo_p90_writes", w.pending_p90, "count");
    out.EndToEnd("kb_per_op",
                 static_cast<double>(u1.bytes_uploaded - u0.bytes_uploaded) / 1024.0 / txns,
                 "kB");
    out.EndToEnd("requests_per_kop", static_cast<double>(requests) / txns * 1000, "count");
    return out;
  }

  // Traced run: a window on a probe-free stack, then one of the same length
  // on a freshly built probed stack with the recorder on. Both start from the
  // same seeded state, so the p50 difference is the cost of tracing: probes
  // plus span recording.
  const double half = options.seconds / 2;
  std::string error;
  auto plain = BuildStack(config, options.seed, /*probes=*/false, &error);
  if (!plain) {
    out.Gate(false, "tpcc set-up failed: " + error);
    return out;
  }
  const RunResult base = RunTerminal(*plain, options.seed, WindowCycles(half),
                                      GiveUpSeconds(half), [] {});
  const Window base_w = Measure(base);
  FinishAndGate(out, *plain, base, base_w, config, /*time_encode=*/false);
  Describe(out, "untraced", base, base_w);
  plain.reset();

  auto stack = BuildStack(config, options.seed, /*probes=*/true, &error);
  if (!stack) {
    out.Gate(false, "tpcc set-up failed: " + error);
    return out;
  }
  SpanRecorder recorder;
  const RunResult r =
      RunTerminal(*stack, options.seed, WindowCycles(half), GiveUpSeconds(half),
                  [&recorder] { recorder.Activate(); });
  recorder.Deactivate();
  const Window w = Measure(r);
  const CodecCheck codec = FinishAndGate(out, *stack, r, w, config, /*time_encode=*/true);
  Describe(out, "traced", r, w);

  const std::vector<Span> spans = recorder.Collect();
  if (!options.trace_dir.empty()) {
    recorder.WriteTsv(options.trace_dir + "/tpcc_seed" +
                      std::to_string(options.seed) + ".tsv");
  }
  const auto txn_self =
      SelfTimesUs(spans, Layer::kTxn, {Layer::kFsAbove});
  const auto fs_self = SelfTimesUs(spans, Layer::kFsAbove,
                                   {Layer::kFsLocal, Layer::kGinjaEvent});
  double fs_self_sum = 0;
  for (double v : fs_self) fs_self_sum += v;
  const auto fs_above = OfLayer(spans, Layer::kFsAbove);
  const auto fs_local = OfLayer(spans, Layer::kFsLocal);
  const auto events = OfLayer(spans, Layer::kGinjaEvent);
  const auto puts_spans = OfLayer(spans, Layer::kCloudPut);
  const Summary event_us = Summarize(DurationsUs(events));
  const Summary put_us = Summarize(DurationsUs(puts_spans));
  std::vector<double> put_kb, put_inflight;
  std::uint64_t failed_cloud = 0;
  for (const Span& sp : spans) {
    if (sp.layer == Layer::kCloudPut) {
      put_kb.push_back(static_cast<double>(sp.bytes) / 1024.0);
      put_inflight.push_back(sp.inflight);
    }
    if (sp.failed && (sp.layer == Layer::kCloudPut || sp.layer == Layer::kCloudGet ||
                      sp.layer == Layer::kCloudList || sp.layer == Layer::kCloudDelete)) {
      ++failed_cloud;
    }
  }
  const double traced_txns = static_cast<double>(std::max<std::size_t>(OfLayer(spans, Layer::kTxn).size(), 1));
  const auto& cs = stack->ginja->commit_stats();
  const double batches = static_cast<double>(std::max<std::uint64_t>(cs.batches_uploaded.Get(), 1));
  std::uint64_t wal_event_bytes = 0;
  for (const Span* e : events) {
    if (e->cause == Cause::kCommit) wal_event_bytes += e->bytes;
  }
  const double wal_logical = cs.object_logical_bytes.Sum();
  const double window_txns = static_cast<double>(std::max<std::uint64_t>(w.txns, 1));

  out.LayerMetric("db.txn_self_us", Summarize(txn_self).p50, "us");
  out.LayerMetric("fs.writes_per_txn", static_cast<double>(fs_above.size()) / traced_txns, "count");
  out.LayerMetric("fs.intercept_self_us_per_txn", fs_self_sum / traced_txns, "us");
  out.LayerMetric("fs.local_write_us_per_txn", SumUs(fs_local) / traced_txns, "us");
  out.LayerMetric("ginja.event_us_per_txn", SumUs(events) / traced_txns, "us");
  out.LayerMetric("ginja.event_us_p50", event_us.p50, "us");
  out.LayerMetric("ginja.event_us_p99", event_us.tail, "us");
  out.LayerMetric("rpo.exposure_p99_writes", w.pending.tail, "count");
  out.LayerMetric("ginja.blocked_waits_per_ktxn",
            static_cast<double>(w.end.blocked - w.begin.blocked) / window_txns * 1000,
            "count");
  out.LayerMetric("commit.writes_per_batch",
            static_cast<double>(cs.writes_submitted.Get()) / batches, "count");
  out.LayerMetric("commit.closed_full_ratio",
            static_cast<double>(cs.batches_closed_full.Get()) / batches, "ratio");
  out.LayerMetric("commit.coalesce_ratio",
            wal_logical > 0 ? static_cast<double>(wal_event_bytes) / wal_logical : 0,
            "ratio", wal_event_bytes == 0 ? "no WAL events traced" : "");
  out.LayerMetric("commit.upload_retries", static_cast<double>(cs.upload_retries.Get()), "count");
  out.LayerMetric("checkpoint.count", static_cast<double>(w.checkpoints), "count");
  out.LayerMetric("checkpoint.dumps", static_cast<double>(w.dumps), "count");
  out.LayerMetric("checkpoint.kb_per_txn",
            static_cast<double>(w.end.checkpoint_bytes - w.begin.checkpoint_bytes) / 1024.0 /
                window_txns,
            "kB");
  out.LayerMetric("checkpoint.deletes", static_cast<double>(w.end.deletes - w.begin.deletes), "count");
  out.LayerMetric("checkpoint.time_share", w.checkpoint_share, "ratio");
  ReportCodec(out, codec);
  out.LayerMetric("cloud.put_count", static_cast<double>(puts_spans.size()), "count");
  out.LayerMetric("cloud.put_us_p50", put_us.p50, "us");
  out.LayerMetric("cloud.put_us_p99", put_us.tail, "us");
  out.LayerMetric("cloud.put_kb_p50", Summarize(put_kb).p50, "kB");
  out.LayerMetric("cloud.put_busy_frac",
            BusyFraction(puts_spans, w.begin.ns, w.end.ns, config.uploader_threads),
            "ratio");
  out.LayerMetric("cloud.put_inflight_p99", Summarize(put_inflight).tail, "count");
  out.LayerMetric("cloud.list_count", static_cast<double>(OfLayer(spans, Layer::kCloudList).size()), "count");
  out.LayerMetric("cloud.delete_count", static_cast<double>(OfLayer(spans, Layer::kCloudDelete).size()), "count");
  out.LayerMetric("cloud.failed_ops", static_cast<double>(failed_cloud), "count");
  // Request charges plus storage at the bucket's current size, extrapolated
  // to a month at the traced window's rate.
  {
    const ginja::PriceBook prices = ginja::PriceBook::AmazonS3May2017();
    const double month_s = 30.0 * 86400;
    const auto& u0 = w.begin.usage;
    const auto& u1 = w.end.usage;
    const double req_usd =
        static_cast<double>(u1.puts - u0.puts) * prices.per_put +
        static_cast<double>(u1.lists - u0.lists) * prices.per_put +
        static_cast<double>(u1.gets - u0.gets) * prices.per_get;
    const double storage_usd =
        static_cast<double>(u1.current_storage_bytes) / 1e9 * prices.storage_gb_month;
    out.LayerMetric("cost.usd_per_month",
                    w.seconds > 0 ? req_usd / w.seconds * month_s + storage_usd : 0, "USD");
  }
  // Real clock: the cores busy over the traced run.
  out.LayerMetric("bench.cpu_s_per_model_s", r.cpu_s / r.wall_s, "ratio");
  out.LayerMetric("bench.trace_overhead_pct",
            base_w.latency.p50 > 0
                ? (w.latency.p50 - base_w.latency.p50) / base_w.latency.p50 * 100
                : 0,
            "%");
  {
    double db_sum = 0;
    for (double v : txn_self) db_sum += v;
    std::snprintf(line, sizeof(line),
                  "txn self-time breakdown per txn: db %.2f us (p50 %.2f), "
                  "fs %.2f us (intercept self + local write), ginja %.2f us",
                  db_sum / traced_txns, Summarize(txn_self).p50,
                  (fs_self_sum + SumUs(fs_local)) / traced_txns,
                  SumUs(events) / traced_txns);
    out.Line(line);
  }
  FillAbsentLayers(out, "tpcc does no recovery, no S3 wire and no open-loop generator");
  return out;
}

}  // namespace perfbench
