// Figure 5: TPC-C throughput (Tpm-C / Tpm-Total) of PostgreSQL and MySQL on
// ext4, on plain FUSE, and on Ginja with the paper's (B, S) grid, down to
// the synchronous No-Loss configuration (S = B = 1).
//
// Latencies are model time (WAN S3 fitted to Table 3, 2 ms local fsync,
// 150 us FUSE hop); absolute Tpm depends on the simulated engine, but the
// ordering and relative drops are the paper's.
//
// Three additions beyond the paper's figure:
//   * a client-thread sweep (1/4/16 TPC-C terminals) with per-commit
//     latency percentiles through the whole stack;
//   * an ingestion sweep that strips away SQL and interception and calls
//     CommitPipeline::Submit directly from 1/4/16 threads against an
//     instant store (raw MemoryStore, real clock): end-to-end writes/s and
//     commit latency through the one submit ring;
//   * a buffered commit sweep over B on the WAN S3 model: commit latency
//     percentiles against PUTs and WAL dollars per month.
//
// Pass --smoke for the reduced CI matrix. Every row also emits a
// machine-readable `BENCH_fig5* {...}` JSON line.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "bench_common.h"

using namespace ginja;
using namespace ginja::bench;

namespace {

double g_model_seconds = 60.0;  // per configuration; --smoke shrinks it
bool g_smoke = false;

struct Row {
  std::string label;
  double tpm_total;
  double tpm_c;
  std::uint64_t blocked;
  HistogramSnapshot commit;
};

Row RunConfig(DbFlavor flavor, Mode mode, std::size_t batch, std::size_t safety,
              const std::string& label, int terminals = 5) {
  GinjaConfig config;
  config.batch = batch;
  config.safety = safety;
  config.batch_timeout_us = 1'000'000;    // TB = 1 s (model)
  config.safety_timeout_us = 30'000'000;  // TS = 30 s: B/S dominate (paper)
  auto stack = BuildStack(flavor, mode, config);
  if (!stack) return {label, 0, 0, 0, {}};
  const auto result = RunTpccBench(*stack, g_model_seconds, terminals);
  std::uint64_t blocked = 0;
  HistogramSnapshot commit;
  if (stack->ginja) {
    stack->ginja->Drain();
    blocked = stack->ginja->commit_stats().blocked_waits.Get();
    commit = stack->ginja->commit_stats().commit_latency_us.Snapshot();
    stack->ginja->Stop();
  }
  Row row{label, result.TpmTotal(), result.TpmC(), blocked, commit};
  JsonLine line("fig5");
  line.Field("flavor", flavor == DbFlavor::kPostgres ? "postgres" : "mysql")
      .Field("mode", ModeName(mode))
      .Field("label", label)
      .Field("terminals", terminals)
      .Field("tpm_total", row.tpm_total)
      .Field("tpm_c", row.tpm_c)
      .Field("blocked_waits", blocked)
      .Field("commit_p50_us", commit.p50)
      .Field("commit_p99_us", commit.p99);
  line.Emit();
  return row;
}

void RunFlavor(DbFlavor flavor) {
  std::printf("\n--- %s ---\n",
              flavor == DbFlavor::kPostgres ? "PostgreSQL" : "MySQL");
  std::printf("%-22s %-12s %-12s %-10s\n", "configuration", "Tpm-Total",
              "Tpm-C", "blocked");

  std::vector<Row> rows;
  rows.push_back(RunConfig(flavor, Mode::kExt4, 0, 0, "ext4"));
  rows.push_back(RunConfig(flavor, Mode::kFuse, 0, 0, "FUSE"));
  struct Cfg {
    std::size_t b, s;
  };
  std::vector<Cfg> grid{Cfg{1000, 10000}, Cfg{100, 10000}, Cfg{10, 10000},
                        Cfg{100, 1000},  Cfg{10, 1000},   Cfg{10, 100},
                        Cfg{1, 1}};
  if (g_smoke) grid = {Cfg{100, 10000}, Cfg{10, 100}, Cfg{1, 1}};
  for (const Cfg& c : grid) {
    const std::string label = c.b == 1 && c.s == 1
                                  ? "No-Loss (S=B=1)"
                                  : "B=" + std::to_string(c.b) +
                                        " S=" + std::to_string(c.s);
    rows.push_back(RunConfig(flavor, Mode::kGinja, c.b, c.s, label));
  }

  const double ext4 = rows[0].tpm_total;
  for (const Row& row : rows) {
    std::printf("%-22s %-12.0f %-12.0f %-10llu (%.0f%% of ext4)\n",
                row.label.c_str(), row.tpm_total, row.tpm_c,
                static_cast<unsigned long long>(row.blocked),
                ext4 > 0 ? row.tpm_total / ext4 * 100 : 0);
  }
}

// Client-thread scaling through the whole stack: same Ginja config, more
// concurrent TPC-C terminals pushing intercepted WAL writes into Submit.
void RunTerminalSweep() {
  PrintHeader("Client-thread sweep — PostgreSQL, Ginja B=100 S=10000");
  std::printf("%-10s %-12s %-12s %-14s %-14s\n", "terminals", "Tpm-Total",
              "Tpm-C", "commit p50", "commit p99");
  for (int terminals : {1, 4, 16}) {
    const Row row =
        RunConfig(DbFlavor::kPostgres, Mode::kGinja, 100, 10'000,
                  "terminals=" + std::to_string(terminals), terminals);
    std::printf("%-10d %-12.0f %-12.0f %-14.0f %-14.0f\n", terminals,
                row.tpm_total, row.tpm_c, row.commit.p50, row.commit.p99);
  }
}

// Ingestion scaling, isolated from the engine: concurrent client threads
// call CommitPipeline::Submit directly, all through the one submit ring.
// The store is a raw MemoryStore on a real clock (the "Instant" latency
// profile).
//
// The headline metrics are end to end: writes/s until Drain() returns
// (every write acknowledged) and the commit latency percentiles. The
// submit-phase rate (wall time until every Submit has returned) trails:
// it measures how fast the front end accepts writes, which is not how fast
// they commit. The total write count stays below S and below the ring
// capacity, so no Submit ever blocks on the back end. Each thread count
// runs several repetitions and reports the one with the median end-to-end
// rate.
void RunIngestSweep() {
  PrintHeader(
      "Ingestion sweep — CommitPipeline::Submit, instant store, real clock");
  std::printf("%-9s %-16s %-14s %-14s %-16s\n", "threads", "e2e writes/s",
              "commit p50", "commit p99", "submitted/s");
  // 48k total writes: under S = 100k (never safety-blocked) and under the
  // 65536-slot ring (never backpressured).
  const std::uint64_t total_writes = 48'000;
  const int reps = g_smoke ? 3 : 5;
  for (int threads : {1, 4, 16}) {
    struct Rep {
      IngestResult result;
      HistogramSnapshot commit;
    };
    std::vector<Rep> runs;
    for (int rep = 0; rep < reps; ++rep) {
      auto store = std::make_shared<MemoryStore>();
      auto view = std::make_shared<CloudView>();
      auto clock = std::make_shared<RealClock>();
      auto envelope = std::make_shared<Envelope>(EnvelopeOptions{});
      GinjaConfig config;
      config.batch = 100;
      config.batch_timeout_us = 1'000'000;
      config.safety = 100'000;
      config.uploader_threads = 4;
      auto pipeline = std::make_unique<CommitPipeline>(store, view, clock,
                                                       config, envelope);
      pipeline->Start();

      IngestOptions options;
      options.threads = threads;
      // Fixed total work across thread counts.
      options.writes_per_thread =
          total_writes / static_cast<std::uint64_t>(threads);
      options.write_bytes = 256;
      options.pages_per_thread = 8;
      const IngestResult result = RunWalIngest(*pipeline, options);
      runs.push_back({result, pipeline->stats().commit_latency_us.Snapshot()});
      pipeline->Stop();
    }
    std::sort(runs.begin(), runs.end(), [](const Rep& a, const Rep& b) {
      return a.result.EndToEndWritesPerSec() < b.result.EndToEndWritesPerSec();
    });
    const Rep& median = runs[runs.size() / 2];

    std::printf("%-9d %-16.0f %-14.0f %-14.0f %-16.0f\n", threads,
                median.result.EndToEndWritesPerSec(), median.commit.p50,
                median.commit.p99, median.result.SubmittedWritesPerSec());
    JsonLine line("fig5_ingest");
    line.Field("threads", threads)
        .Field("writes", median.result.writes)
        .Field("e2e_writes_per_sec", median.result.EndToEndWritesPerSec())
        .Field("commit_p50_us", median.commit.p50)
        .Field("commit_p99_us", median.commit.p99)
        .Field("writes_per_sec", median.result.SubmittedWritesPerSec());
    line.Emit();
  }
}

// Buffered commit sweep (latency vs $): paced WAL writes into
// CommitPipeline::Submit against the WAN S3 latency model on a scaled
// clock, at B in {1, 8, 16, 100}. Every batch is one buffered PUT, so B
// sets both sides of the trade: a smaller B starts each PUT sooner but
// pays one request per B writes.
//
// The uploader pool is sized to keep up at every B — 1.5x the PUTs the
// arrival rate keeps in flight over one modeled round-trip — so the
// percentiles measure the commit path, not queueing under overload.
// Dollars are the WAL PUT bill for a month at the sweep's write rate,
// priced with the May 2017 S3 list prices.
void RunCommitSweep() {
  PrintHeader(
      "Buffered commit sweep — WAN S3 model, paced writes, "
      "commit latency vs PUTs and $");
  std::printf("%-6s %-10s %-12s %-12s %-12s %-12s %-12s %-12s\n", "B",
              "uploaders", "p50 ms", "p95 ms", "p99 ms", "PUTs/kwr",
              "objs/kwr", "WAL $/month");

  const LatencyParams wan = LatencyParams::WanS3();
  constexpr std::size_t kWriteBytes = 4096;
  constexpr std::uint64_t kInterarrivalUs = 2'000;  // 500 writes/s
  const int writes = g_smoke ? 300 : 1000;
  const PriceBook prices = PriceBook::AmazonS3May2017();

  for (std::size_t batch : {std::size_t{1}, std::size_t{8}, std::size_t{16},
                            std::size_t{100}}) {
    const double puts_per_s =
        1e6 / static_cast<double>(kInterarrivalUs * batch);
    const double put_rtt_us =
        wan.put_base_us + static_cast<double>(batch * kWriteBytes) / 1024.0 *
                              wan.put_us_per_kb;
    const int uploaders = std::max(
        4, static_cast<int>(std::ceil(1.5 * puts_per_s * put_rtt_us / 1e6)));

    auto raw = std::make_shared<MemoryStore>();
    auto clock = std::make_shared<ScaledClock>(kTimeScale);
    auto model = std::make_shared<LatencyModel>(wan, clock);
    auto store = std::make_shared<MeteredStore>(raw, clock, model);
    auto view = std::make_shared<CloudView>();
    auto envelope = std::make_shared<Envelope>(EnvelopeOptions{});
    GinjaConfig config;
    config.batch = batch;
    config.safety = 1'000'000;  // never safety-blocked
    config.batch_timeout_us = 1'000'000;
    config.safety_timeout_us = 60'000'000;
    config.uploader_threads = uploaders;
    auto pipeline =
        std::make_unique<CommitPipeline>(store, view, clock, config, envelope);
    // Exact per-write ack times via the consecutive-ack frontier (the
    // pipeline's own histogram buckets are too coarse to resolve p50). A
    // write with max_lsn L is committed at the first frontier advance
    // covering L.
    std::mutex events_mu;
    std::vector<std::pair<std::uint64_t, Lsn>> events;  // (model us, lsn)
    pipeline->SetFrontierListener([&] {
      std::lock_guard<std::mutex> lock(events_mu);
      events.emplace_back(clock->NowMicros(), pipeline->UploadedWalFrontier());
    });
    pipeline->Start();

    std::vector<std::uint64_t> submit_us(static_cast<std::size_t>(writes), 0);
    for (int i = 0; i < writes; ++i) {
      WalWrite w;
      w.file = "pg_xlog/000000010000000000000001";
      w.offset = static_cast<std::uint64_t>(i) * kWriteBytes;
      w.data = Bytes(kWriteBytes, 0x5A);
      w.max_lsn = static_cast<std::uint64_t>(i + 1) * kWriteBytes;
      submit_us[static_cast<std::size_t>(i)] = clock->NowMicros();
      pipeline->Submit(std::move(w));
      clock->SleepMicros(kInterarrivalUs);
    }
    pipeline->Drain();
    const std::uint64_t drained_us = clock->NowMicros();
    pipeline->Stop();

    std::vector<double> latencies(static_cast<std::size_t>(writes));
    {
      std::lock_guard<std::mutex> lock(events_mu);
      std::size_t w = 0;
      for (const auto& [at_us, lsn] : events) {
        while (w < latencies.size() &&
               static_cast<Lsn>(w + 1) * kWriteBytes <= lsn) {
          latencies[w] = static_cast<double>(at_us - submit_us[w]);
          ++w;
        }
      }
      for (; w < latencies.size(); ++w) {
        latencies[w] = static_cast<double>(drained_us - submit_us[w]);
      }
    }
    std::sort(latencies.begin(), latencies.end());
    auto quantile = [&](double q) {
      const std::size_t idx = std::min(
          latencies.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(latencies.size())));
      return latencies[idx];
    };
    const double per_kwrite = 1000.0 / static_cast<double>(writes);
    const double puts = static_cast<double>(store->Usage().puts) * per_kwrite;
    const double objects =
        static_cast<double>(pipeline->stats().objects_uploaded.Get()) *
        per_kwrite;
    // The offered-load window: requests extrapolate at the write rate.
    const double usd_month = store->MonthlyCost(
        prices,
        static_cast<double>(writes) * static_cast<double>(kInterarrivalUs));

    std::printf("%-6zu %-10d %-12.0f %-12.0f %-12.0f %-12.1f %-12.1f %-12.2f\n",
                batch, uploaders, quantile(0.50) / 1e3, quantile(0.95) / 1e3,
                quantile(0.99) / 1e3, puts, objects, usd_month);
    JsonLine line("fig5_commit");
    line.Field("batch", static_cast<std::uint64_t>(batch))
        .Field("uploaders", uploaders)
        .Field("writes", static_cast<std::uint64_t>(writes))
        .Field("write_bytes", static_cast<std::uint64_t>(kWriteBytes))
        .Field("writes_per_s", 1e6 / static_cast<double>(kInterarrivalUs))
        .Field("commit_p50_us", quantile(0.50))
        .Field("commit_p95_us", quantile(0.95))
        .Field("commit_p99_us", quantile(0.99))
        .Field("puts_per_kwrite", puts)
        .Field("wal_objects_per_kwrite", objects)
        .Field("wal_usd_per_month", usd_month);
    line.Emit();
  }
  std::printf(
      "\nExpected shape: small B pays about one PUT round-trip; p50 rises once\n"
      "the batch fill rivals it, while PUTs and dollars fall as 1/B.\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      g_model_seconds = 10.0;
    }
  }
  PrintHeader(
      "Figure 5 — TPC-C throughput under Ginja configurations "
      "(model time, WAN S3)");
  RunFlavor(DbFlavor::kPostgres);
  if (!g_smoke) RunFlavor(DbFlavor::kMySql);
  RunTerminalSweep();
  RunIngestSweep();
  RunCommitSweep();
  if (!g_smoke) {
    std::printf(
        "\nExpected shape (paper Section 8.1): FUSE costs ~7-12%% vs ext4; large\n"
        "B,S costs only a few %% more; small B with small S blocks the DBMS and\n"
        "collapses throughput; No-Loss (S=B=1) is slowest of all.\n");
  }
  return 0;
}
